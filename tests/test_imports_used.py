"""Every name a thickflow module imports is used in that module or listed
in its __all__ (the package's re-exports). A deletion that leaves an
import behind fails here. Only the standard library's ast is used."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "thickflow"


def _unused_imports(tree):
    """Names bound by the imports of tree that no Name in it reads and
    __all__ does not list, in order."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_every_imported_name_is_used():
    unused = {path.name: names for path in sorted(SRC.glob("*.py"))
              if (names := _unused_imports(ast.parse(path.read_text())))}
    assert unused == {}


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nimport numpy as np\nfrom .a import b, c\n"
                     "__all__ = ['c']\nnp.zeros(os.sep)\n")
    assert _unused_imports(tree) == ["b"]
