"""No module of the package uses a ``_``-prefixed name of another, by
``from .mod import _name`` or through an imported module as ``mod._name``:
what two modules share is a public name, documented where it is defined."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "twocat"


def _from_package(node):
    return node.level or (node.module or "").split(".")[0] == "twocat"


def test_no_private_names_across_modules():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()           # names bound to modules of the package
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _from_package(node):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        found.append("%s:%d %s" % (path.name, node.lineno,
                                                   alias.name))
                    if node.module is None or node.module == "twocat":
                        modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                found.append("%s:%d %s.%s" % (path.name, node.lineno,
                                              node.value.id, node.attr))
    assert found == []
