"""Every definition in the library is reached by something other than a test.

A top-level function or class, or a method, passes when its name occurs in
the library source beyond its own definition, or in the benchmark harness
under ``bench/``, or when ``wwlab`` exports it.  Tests do not count as
callers.  Protocol methods (``__init__``, ``__len__``, ...) are called by the
language and are not checked.
"""

import ast
import pathlib
import re

import wwlab

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "wwlab").glob("*.py"))
HARNESS = sorted((ROOT / "bench").glob("*.py"))


def _definitions(tree):
    """(name, line) of every top-level def/class and every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno


def _occurrences(name: str, text: str) -> int:
    return len(re.findall(rf"\b{re.escape(name)}\b", text))


def test_every_definition_is_reached():
    library = "\n".join(path.read_text() for path in LIBRARY)
    harness = "\n".join(path.read_text() for path in HARNESS)
    unreached = []
    for path in LIBRARY:
        for name, line in _definitions(ast.parse(path.read_text())):
            if name.startswith("__") and name.endswith("__"):
                continue
            if _occurrences(name, library) > 1 or _occurrences(name, harness) or name in wwlab.__all__:
                continue
            unreached.append(f"{path.name}:{line} {name}")
    assert not unreached, "defined but reached only by tests: " + ", ".join(unreached)
