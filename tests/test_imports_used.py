"""Every name a thickflow module imports is used in that module or listed
in its __all__ (the package's re-exports). A deletion that leaves an
import behind fails here. No module rebinds a module-level name from
inside a function (a global statement): state a function needs comes in
as an argument. Only config.py names MODELS, the model name to class
map: past the config a model is its class, or the instance a Trajectory
carries. No function imports from config (an import there would hide a
cycle). Only the standard library's ast is used."""

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


def test_no_module_has_a_global_statement():
    found = {path.name for path in sorted(SRC.glob("*.py"))
             if any(isinstance(node, ast.Global)
                    for node in ast.walk(ast.parse(path.read_text())))}
    assert found == set()


def _names(tree):
    """Every name tree reads, binds, imports or takes as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def _imports_config(node):
    """Whether node imports config or a name from it."""
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[-1] == "config" \
            or any(a.name == "config" for a in node.names)
    return isinstance(node, ast.Import) \
        and any(a.name.split(".")[-1] == "config" for a in node.names)


def _config_imports_in_functions(tree):
    """The names of the functions of tree that import from config."""
    return [fn.name for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(map(_imports_config, ast.walk(fn)))]


def test_only_config_names_models():
    found = {path.name for path in sorted(SRC.glob("*.py"))
             if "MODELS" in _names(ast.parse(path.read_text()))}
    assert found == {"config.py"}


def test_no_function_imports_from_config():
    found = {path.name: names for path in sorted(SRC.glob("*.py"))
             if (names := _config_imports_in_functions(
                 ast.parse(path.read_text())))}
    assert found == {}


def test_names_and_function_imports_are_found():
    tree = ast.parse("from .config import MODELS as M\n"
                     "def f():\n    from .config import load_config\n"
                     "def g():\n    from . import config\n"
                     "    return config.MODELS\n"
                     "def h():\n    from .grids import Grid1D\n")
    assert {"M", "MODELS", "load_config"} <= set(_names(tree))
    assert _config_imports_in_functions(tree) == ["f", "g"]


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nimport numpy as np\nfrom .a import b, c\n"
                     "__all__ = ['c']\nnp.zeros(os.sep)\n")
    assert _unused_imports(tree) == ["b"]
