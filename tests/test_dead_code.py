"""Every top-level definition of the package is used somewhere."""

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


def dead_definitions(root=ROOT):
    """module:name of every top-level function, class or constant of
    src/randterm, dunder names aside, whose name appears in no file of src/,
    tests/ or perfbench/ outside its own definition."""
    texts = [p.read_text() for d in ("src", "tests", "perfbench")
             for p in sorted((root / d).rglob("*.py"))]
    dead = []
    for path in sorted((root / "src" / "randterm").glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.parse("\n".join(lines)).body:
            for name in _top_level_names(node):
                if name.startswith("__") and name.endswith("__"):
                    continue
                word = re.compile(r"\b%s\b" % re.escape(name))
                own = "\n".join(lines[node.lineno - 1:node.end_lineno])
                uses = sum(len(word.findall(t)) for t in texts)
                if uses == len(word.findall(own)):
                    dead.append("%s:%s" % (path.name, name))
    return dead


def test_no_dead_definitions():
    assert dead_definitions() == []
