import ast
from pathlib import Path

import isomonodromy


def test_export_list_matches_the_package_imports():
    # a stale entry breaks only ``from isomonodromy import *``, which plain
    # imports never run
    names = isomonodromy.__all__
    assert all(hasattr(isomonodromy, name) for name in names)
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    tree = ast.parse(Path(isomonodromy.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert set(names) == imported


def test_every_import_is_read():
    # an import that nothing reads is dead code; the package's own
    # re-exports are read by name in its ``__all__``
    unread = []
    for path in sorted(Path(isomonodromy.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        if path.name == "__init__.py":
            read |= set(isomonodromy.__all__)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                unread += [(path.stem, name) for name in (
                    alias.asname or alias.name.split(".")[0]
                    for alias in node.names) if name not in read]
    assert unread == []
