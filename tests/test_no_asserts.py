"""No check in the package lives in an ``assert`` statement: ``python -O``
strips them, so a check that must hold on untrusted input, or a guard
against misuse, is an explicit ``raise``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "twocat"


def test_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []
