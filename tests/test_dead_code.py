"""Every top-level definition of the package, and every method of its
classes, is exported or used by the package or its benchmark."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _definitions(node):
    """(name, definition) of each thing a module-level statement defines: a
    function; a class, and as Class.name each method or property of its
    body; or the plain names an assignment binds, defined by the whole
    statement."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [(node.name, node)]
    if isinstance(node, ast.ClassDef):
        return [(node.name, node)] + [
            ("%s.%s" % (node.name, m.name), m) for m in node.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
    targets = (node.targets if isinstance(node, ast.Assign) else
               [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [(n.id, node) for t in targets for n in ast.walk(t)
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
    """module:name of every top-level function, class or constant, and
    module:Class.name of every method or property of a top-level class, of
    src/randterm, dunder names aside, that randterm/__init__.py does not
    export and that no module of src/ or perfbench/ uses (see _uses)
    outside its own definition.  A method counts by its bare name, as an
    attribute has no type.  Uses in tests/ do not count: a definition that
    only tests reach is either the package's API, and exported, or a test
    helper, and belongs in tests/."""
    uses = collections.Counter()
    for d in ("src", "perfbench"):
        for p in sorted((root / d).rglob("*.py")):
            uses += _uses(ast.parse(p.read_text()))
    public = exported(root)
    dead = []
    for path in sorted((root / "src" / "randterm").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for qualified, definition in _definitions(node):
                name = qualified.rpartition(".")[2]
                if (name.startswith("__") and name.endswith("__")
                        or qualified in public):
                    continue
                if uses[name] == _uses(definition)[name]:
                    dead.append("%s:%s" % (path.name, qualified))
    return dead


def test_no_dead_definitions():
    assert dead_definitions() == []


def test_methods_count(tmp_path):
    # a method or property that only its own body or tests/ reach is dead;
    # one that another module calls, or a dunder, is not
    package = tmp_path / "src" / "randterm"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tests").mkdir()
    (package / "__init__.py").write_text("from .m import Shape\n")
    (package / "m.py").write_text(
        "class Shape:\n"
        "    def __len__(self):\n        return 0\n"
        "    def area(self):\n        return self.area()\n"
        "    @property\n    def side(self):\n        return 1\n"
        "    def used(self):\n        return 2\n")
    (tmp_path / "perfbench" / "run.py").write_text("Shape().used()\n")
    (tmp_path / "tests" / "test_m.py").write_text("Shape().side\n")
    assert dead_definitions(tmp_path) == ["m.py:Shape.area",
                                          "m.py:Shape.side"]
