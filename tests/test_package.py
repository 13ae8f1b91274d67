import ast
import re
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


def test_every_constant_is_read_where_it_is_defined():
    # a module-level UPPER_CASE constant lives with its reader: one that
    # only another module reads belongs in that module
    unread = []
    for path in sorted(Path(isomonodromy.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = [target.id for node in tree.body
                   if isinstance(node, (ast.Assign, ast.AnnAssign))
                   for target in ast.walk(node.targets[0] if isinstance(
                       node, ast.Assign) else node.target)
                   if isinstance(target, ast.Name)
                   and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unread += [(path.stem, name) for name in defined
                   if name not in read]
    assert unread == []
