"""Every top-level definition of the package is exported or used by the
package or its benchmark."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _top_level_names(node):
    """Names a module-level statement defines: a function, a class or the
    plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign) else
               [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def exported(root=ROOT):
    """The names randterm/__init__.py imports from the package's modules."""
    tree = ast.parse((root / "src" / "randterm" / "__init__.py").read_text())
    return {a.asname or a.name for n in tree.body
            if isinstance(n, ast.ImportFrom) for a in n.names}


def _uses(tree):
    """How often each name occurs in a syntax tree as an ast.Name, as the
    attribute of an ast.Attribute, or as a whole string constant (a name
    handed to getattr, as perfbench's layer lists hand theirs).  Docstrings
    and comments that mention a name do not count."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else
        n.attr if isinstance(n, ast.Attribute) else n.value
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
        or isinstance(n, ast.Constant) and isinstance(n.value, str)
        and n.value.isidentifier())


def dead_definitions(root=ROOT):
    """module:name of every top-level function, class or constant of
    src/randterm, dunder names aside, that randterm/__init__.py does not
    export and that no module of src/ or perfbench/ uses (see _uses)
    outside its own definition.  Uses in tests/ do not count: a definition
    that only tests reach is either the package's API, and exported, or a
    test helper, and belongs in tests/."""
    uses = collections.Counter()
    for d in ("src", "perfbench"):
        for p in sorted((root / d).rglob("*.py")):
            uses += _uses(ast.parse(p.read_text()))
    public = exported(root)
    dead = []
    for path in sorted((root / "src" / "randterm").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = _uses(node)
            for name in _top_level_names(node):
                if (name.startswith("__") and name.endswith("__")
                        or name in public):
                    continue
                if uses[name] == own[name]:
                    dead.append("%s:%s" % (path.name, name))
    return dead


def test_no_dead_definitions():
    assert dead_definitions() == []
