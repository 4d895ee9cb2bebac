"""Every top-level function and class of the package, and every non-dunder
method of a top-level class, has a user: its name appears outside its own
definition somewhere in src/, tests/, demos/ or pyproject.toml (the
console-script entry point)."""

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORD = re.compile(r"\w+")


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods in the
    bodies of top-level classes, with the names they are reported under."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not item.name.startswith("__"):
                    yield "%s.%s" % (node.name, item.name), item


def test_no_dead_functions():
    searched = [p for d in ("src", "tests", "demos")
                for p in sorted((REPO / d).rglob("*.py"))]
    words = Counter()
    for path in searched + [REPO / "pyproject.toml"]:
        words.update(WORD.findall(path.read_text()))
    dead = []
    for path in sorted((REPO / "src" / "twocat").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for label, node in _definitions(ast.parse(text)):
            # uses inside the definition itself, such as recursion, do not
            # count
            start = min([node.lineno] + [d.lineno
                                         for d in node.decorator_list])
            own = "\n".join(lines[start - 1:node.end_lineno])
            if words[node.name] == WORD.findall(own).count(node.name):
                dead.append("%s.%s" % (path.stem, label))
    assert dead == []
