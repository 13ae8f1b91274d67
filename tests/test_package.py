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
