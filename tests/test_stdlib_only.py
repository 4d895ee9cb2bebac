"""The runtime is pure standard library: every ``import`` and ``from`` in
the package names the package itself or a module of the standard library.
So no command can reach test-side code, such as the diagram-comma oracles
of ``tests/diagram_comma.py``, nor a third-party module."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "twocat"


def _imported(node):
    """The top-level module names an import node names; None stands for a
    relative import, which stays inside the package."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [None if node.level else node.module.split(".")[0]]
    return []


def test_package_imports_only_itself_and_the_standard_library():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            for name in _imported(node):
                if name not in (None, "twocat") \
                        and name not in sys.stdlib_module_names:
                    found.append("%s:%d %s" % (path.name, node.lineno, name))
    assert found == []
