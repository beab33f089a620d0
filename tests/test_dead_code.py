"""Every top-level definition of the package is exported or used by the
package or its benchmark."""

import ast
import pathlib
import re

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


def dead_definitions(root=ROOT):
    """module:name of every top-level function, class or constant of
    src/randterm, dunder names aside, that randterm/__init__.py does not
    export and whose name appears in no file of src/ or perfbench/ outside
    its own definition.  Uses in tests/ do not count: a definition that
    only tests reach is either the package's API, and exported, or a test
    helper, and belongs in tests/."""
    texts = [p.read_text() for d in ("src", "perfbench")
             for p in sorted((root / d).rglob("*.py"))]
    public = exported(root)
    dead = []
    for path in sorted((root / "src" / "randterm").glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.parse("\n".join(lines)).body:
            for name in _top_level_names(node):
                if (name.startswith("__") and name.endswith("__")
                        or name in public):
                    continue
                word = re.compile(r"\b%s\b" % re.escape(name))
                own = "\n".join(lines[node.lineno - 1:node.end_lineno])
                uses = sum(len(word.findall(t)) for t in texts)
                if uses == len(word.findall(own)):
                    dead.append("%s:%s" % (path.name, name))
    return dead


def test_no_dead_definitions():
    assert dead_definitions() == []
