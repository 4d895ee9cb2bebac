"""Every counterexample clause the package can report is named by a test.

The census lists each literal tag of a ``Counterexample("...")`` in the
package and looks for it among the string constants of the other test
files, f-string parts included; a comment is no test.  A tag is named
when it stands there on its own or at the end of a prefix such as
``hypothesis-``, and not as the front of a longer tag (so
``hom-terminality`` is not named by ``hom-terminality-witness``).  A tag
that no test can reach goes on the allowlist with the reason."""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "twocat"

# tags no test names, each with the reason
UNREACHED = {
    "cartesian-hcomp": "a census of 613 strict 2-functors found no "
                       "counterexample, and over a terminal base the "
                       "clause cannot fire",
}


def _tags() -> set:
    """The first argument of each Counterexample(...) call in the package
    that is a string literal."""
    tags = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "Counterexample" and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                tags.add(node.args[0].value)
    return tags


def _test_strings() -> list:
    """The string constants of every test file but this one."""
    out = []
    for path in sorted(TESTS.glob("*.py")):
        if path.name != Path(__file__).name:
            out += [node.value for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)]
    return out


def _named(tag: str, strings: list) -> bool:
    pattern = re.compile(r"(?<!\w)%s(?![\w-])" % re.escape(tag))
    return any(pattern.search(s) for s in strings)


def test_the_census_finds_the_tags():
    tags = _tags()
    assert {"hom-terminality", "hom-terminality-witness",
            "1-cell-not-equivalence", "cartesian-hcomp"} <= tags
    assert not _named("hom-terminality", ["hom-terminality-witness"])
    assert _named("1-cell-not-equivalence",
                  ["hypothesis-1-cell-not-equivalence at ('x',)"])


def test_every_counterexample_tag_is_named_by_a_test():
    strings = _test_strings()
    unnamed = {tag for tag in _tags() if not _named(tag, strings)}
    assert unnamed == set(UNREACHED)
