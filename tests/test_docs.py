"""The README names only what the package has: every backticked
module.name of a randterm module is an attribute of that module."""

import importlib
import pathlib
import pkgutil
import re

import randterm

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(randterm.__path__)}


def references(text):
    """(line, module, name) of each module.name, or randterm.module.name,
    in a backticked span of text whose module is a randterm module.  Fenced
    blocks are no spans: they are blanked first, their lines kept."""
    text = re.sub(r"^```.*?^```", lambda m: "\n" * m.group().count("\n"),
                  text, flags=re.S | re.M)
    found = []
    for span in re.finditer(r"`[^`]+`", text):
        line = text.count("\n", 0, span.start()) + 1
        for ref in re.finditer(r"(?<![\w./])(?:randterm\.)?(\w+)\.(\w+)",
                               span.group()):
            if ref.group(1) in MODULES:
                found.append((line, *ref.groups()))
    return found


def test_references_are_found():
    refs = references("`io.load_graph` and `randterm.native.library()`, "
                      "`analytic.f(grid.march)`, not `scan.c` or "
                      "`src/randterm/io.py`\n```\nio.fenced\n```\n"
                      "`idle.after`")
    assert [r[1:] for r in refs] == [("io", "load_graph"),
                                     ("native", "library"),
                                     ("analytic", "f"), ("grid", "march"),
                                     ("idle", "after")]
    assert refs[-1][0] == 5


def test_readme_names_exist():
    refs = references(README.read_text())
    assert len(refs) >= 18
    missing = ["README.md:%d: %s.%s" % ref for ref in refs
               if not hasattr(importlib.import_module("randterm." + ref[1]),
                              ref[2])]
    assert missing == []
