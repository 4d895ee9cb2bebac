"""A subcommand loads only the modules it runs: ``import twocat.cli`` loads
the seven below, the checks of a 2-category and of a nerve load no
construction, monoid or spectral-sequence module, and ``gc-check`` loads
no spectral sequence and no construction module: ``opfib``, which ``sinv``
imports, only certifies and imports nothing of ``constructs``.  No module
reads its version through ``importlib.metadata``, which imports pathlib,
zipfile, csv and email to read a constant."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twocat
from twocat import io as tio
from twocat.fixtures import fix_g2
from twocat.pgm import fix_c2_pgm

SRC = Path(__file__).resolve().parent.parent / "src" / "twocat"

AT_START = ["twocat", "twocat.cli", "twocat.core", "twocat.homology",
            "twocat.intlinalg", "twocat.io", "twocat.nerve"]
DEFERRED = {"twocat.constructs", "twocat.fixtures", "twocat.opfib",
            "twocat.pgm", "twocat.sinv", "twocat.specseq"}

# runs each argv list of sys.argv[1] in turn through main in a fresh
# interpreter; prints the exit codes and the twocat modules loaded, first
# by the import and then after each job
CHILD = """
import contextlib, io, json, sys
import twocat.cli

def loaded():
    return sorted(n for n in sys.modules
                  if n == "twocat" or n.startswith("twocat."))

seen, codes = [loaded()], []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(twocat.cli.main(argv))
    seen.append(loaded())
print(json.dumps([codes, seen]))
"""


def _run_jobs(flags, jobs):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(twocat.__file__)))
    proc = subprocess.run([sys.executable, *flags, "-c", CHILD,
                           json.dumps(jobs)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_each_subcommand_loads_only_what_it_runs(tmp_path, flags):
    cat, pgm = tmp_path / "G2.json", tmp_path / "C2pgm.json"
    cat.write_text(tio.dumps(tio.two_category_to_dict(fix_g2())))
    pgm.write_text(tio.dumps(tio.pgm_to_dict(fix_c2_pgm())))
    out = str(tmp_path / "X.json")
    jobs = [["validate", str(cat)], ["dualize", str(cat)],
            ["nerve", "--input", str(cat), "--max-dim", "2", "--out", out],
            ["homology", "--nerve", out, "--deg", "1"],
            ["gc-check", "--pgm", str(pgm), "--max-deg", "1"]]
    codes, seen = _run_jobs(flags, jobs)
    assert codes == [0] * len(jobs)
    assert seen[0] == AT_START
    assert DEFERRED.isdisjoint(seen[4])         # after homology
    assert "twocat.specseq" not in seen[5]      # after gc-check
    assert "twocat.constructs" not in seen[5]


def test_opfib_imports_nothing_of_constructs():
    # of the package, opfib names two classes of core, and no module
    tree = ast.parse((SRC / "opfib.py").read_text())
    names = {(node.module, a.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (
                 node.level or node.module.split(".")[0] == "twocat")
             for a in node.names}
    assert names == {("core", "Counterexample"), ("core", "TwoFunctor")}
    assert not any(a.name.split(".")[0] == "twocat" for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for a in node.names)


def _imports_metadata(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.startswith("importlib.metadata")
                   for a in node.names)
    if isinstance(node, ast.ImportFrom) and not node.level:
        return (node.module or "").startswith("importlib.metadata") \
            or node.module == "importlib" \
            and any(a.name == "metadata" for a in node.names)
    return False


def test_no_module_imports_importlib_metadata():
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if _imports_metadata(node)]
    assert found == []
