"""No module of the package reaches into another's private names."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "randterm"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def private_imports(src=SRC):
    """module:line:name of every underscore name a module of src imports
    from another randterm module, or reads off a randterm module it
    imported whole (from . import grid; grid._name)."""
    found = []
    for path in sorted(src.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        imports = [n for n in nodes if isinstance(n, ast.ImportFrom) and (
            n.level or n.module.split(".")[0] == "randterm")]
        found += [(path.name, n.lineno, a.name) for n in imports
                  for a in n.names if _private(a.name)]
        modules = {a.asname or a.name for n in imports
                   if n.module in (None, "randterm") for a in n.names}
        found += [(path.name, n.lineno, n.attr) for n in nodes
                  if isinstance(n, ast.Attribute) and _private(n.attr)
                  and isinstance(n.value, ast.Name)
                  and n.value.id in modules]
    return ["%s:%d:%s" % f for f in found]


def test_no_private_imports():
    assert private_imports() == []
