"""Every top-level function and class of the package, and every non-dunder
method of a top-level class, has a user: its name is used in code outside
its own definition somewhere in src/, tests/ or demos/, or appears in
pyproject.toml (the console-script entry point).  And, but for the
allowlist below, that user is no test alone: the name is used in src/ or
demos/ or appears in pyproject.toml.  A use of a function or class is a
name, an attribute or an imported name of the syntax tree, f-string
expressions included; a use of a method is an attribute (x.name) only, so
a local variable that shares its name is none; a word in a docstring,
comment or string is none.  Methods that a library calls, not this code,
are exempt by name."""

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORD = re.compile(r"\w+")

# definitions that only tests use, each with the reason it stays in src/
TEST_ONLY = {
    "io.two_functor_to_dict": "io writer: the file API for 2-functors",
    "io.action_to_dict": "io writer: the file API for actions",
    "io.coeff_system_to_dict": "io writer: the file API for coefficient "
                               "systems",
    "sinv.rho_opfib_check": "ROADMAP item 16 puts it to work on the "
                            "paper's route to group completion",
    "pgm.localize_module": "localization of a canonical group, which an "
                           "acceptance criterion states",
    "intlinalg.FGAbGroup.is_trivial": "a query of the group type",
    "fixtures.fix_m2": "a named fixture of the paper",
    "pgm.fix_g2sat_pgm": "a named fixture: a PGM that is no 2-groupoid",
}

# methods that a library calls, with the caller
HOOKS = {"cli._Parser.error": "argparse's hook: ArgumentParser calls it"}


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods in the
    bodies of top-level classes, with the names they are reported under and
    the key their uses are counted under (see _uses)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not item.name.startswith("__"):
                    yield ("%s.%s" % (node.name, item.name),
                           "." + item.name, item)


def _uses(tree) -> Counter:
    """The names the code of tree uses: names, attributes and imports, each
    under its name, and attributes once more under "." + name."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
            uses["." + node.attr] += 1
        elif isinstance(node, ast.alias):
            uses.update(node.name.split("."))
    return uses


def _unused(dirs) -> list:
    """module.label of each definition of the package whose name no code
    uses outside its own definition in the .py files under dirs, and which
    pyproject.toml does not name."""
    uses = Counter(WORD.findall((REPO / "pyproject.toml").read_text()))
    for path in (p for d in dirs for p in sorted((REPO / d).rglob("*.py"))):
        uses.update(_uses(ast.parse(path.read_text())))
    unused = []
    for path in sorted((REPO / "src" / "twocat").glob("*.py")):
        for label, key, node in _definitions(ast.parse(path.read_text())):
            name = "%s.%s" % (path.stem, label)
            # uses inside the definition itself, such as recursion, do not
            # count
            if uses[key] == _uses(node)[key] and name not in HOOKS:
                unused.append(name)
    return unused


def test_no_dead_functions():
    assert _unused(("src", "tests", "demos")) == []


def test_no_test_only_functions():
    # a definition that gains a user outside tests leaves the allowlist
    assert sorted(_unused(("src", "demos"))) == sorted(TEST_ONLY)
