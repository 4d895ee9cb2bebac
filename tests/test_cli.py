import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

import twocat
from twocat import cli, dnerve
from twocat import homology as hm
from twocat import io as tio
from twocat import nerve as nv
from twocat import pgm, sinv, specseq
from twocat.cli import main
from twocat.core import (AxiomError, TwoFunctor, identity_functor,
                         make_two_category)
from twocat.fixtures import (bang_functor, fix_c2, fix_g2, fix_i, fix_prod,
                             fix_t, point_functor)
from twocat.homology import PresentedGroup, chain_complex
from twocat.nerve import TruncSimplicialSet, nerve
import diagram_comma
from test_homology import constant_system, dense_chain_complex
from test_nerve import awkward_copy
from test_pgm import trivial_action
from test_specseq import swap_projection, xmod_projection


@pytest.fixture
def run(capsys):
    def go(argv):
        code = main([str(a) for a in argv])
        return code, capsys.readouterr().out
    return go


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(tio.dumps(obj))
    return str(p)


def g2_file(tmp_path):
    return write(tmp_path, "FIX_G2.json", tio.two_category_to_dict(fix_g2()))


def discrete_to_interval(tmp_path):
    C, I = fix_c2(), fix_i()
    P = TwoFunctor(C, I, {"0": "0", "1": "1"},
                   {"id_0": "id_0", "id_1": "id_1"},
                   {"ii_0": "ii_id_0", "ii_1": "ii_id_1"})
    return write(tmp_path, "discrete-to-interval.json",
                 tio.two_functor_to_dict(P))


# --- the three contract invocations -------------------------------------------

def test_validate_fixture_exits_zero(run, tmp_path):
    code, out = run(["validate", g2_file(tmp_path)])
    assert code == 0
    rep = json.loads(out)
    assert rep["report"] == {"kind": "two-category", "valid": True,
                             "objects": 1, "one_cells": 1, "two_cells": 2}


def test_opfib_negative_fixture_exits_two(run, tmp_path):
    code, out = run(["opfib", "--functor", discrete_to_interval(tmp_path)])
    assert code == 2
    rep = json.loads(out)
    assert rep["counterexample"]["clause"] == "opcartesian-lift-missing"
    assert rep["counterexample"]["detail"] == ["0", "a01"]


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_opfib_point_of_g2_is_no_local_fibration(tmp_path, flags):
    # e1: i => i over id_pt has no cartesian lift in the terminal category
    p = write(tmp_path, "g2-point.json",
              tio.two_functor_to_dict(point_functor(fix_g2(), "*")))
    proc = cli_run(flags, "opfib", "--functor", p)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["counterexample"] == {
        "clause": "local-fibration", "detail": ["id_pt", "i", "e1"]}


def test_gc_check_m2(run, tmp_path):
    p = write(tmp_path, "FIX_M2.json", tio.pgm_to_dict(pgm.fix_m2_pgm()))
    code, out = run(["gc-check", "--pgm", p, "--max-deg", 1, "--trunc", 3])
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["degrees"]["0"]["localized"] == "Z"
    assert rep["degrees"]["0"]["target"] == "Z"
    assert rep["degrees"]["0"]["iso"] is True
    assert rep["all_iso"] is True


def _count_complexes(monkeypatch):
    """Record the top degree of each double-nerve total complex built and
    the degree of each ``Homology`` record made."""
    complexes, reduced = [], []
    total_complex, Homology = dnerve.total_complex, dnerve.Homology
    monkeypatch.setattr(dnerve, "total_complex",
                        lambda D, top: complexes.append(top)
                        or total_complex(D, top))
    monkeypatch.setattr(dnerve, "Homology",
                        lambda n, *a: reduced.append(n) or Homology(n, *a))
    return complexes, reduced


def test_gc_check_builds_each_chain_complex_once(run, tmp_path, monkeypatch):
    # one total complex per double nerve, X and S^-1 X, and one reduction
    # per complex and degree, which both induced maps read
    complexes, reduced = _count_complexes(monkeypatch)
    p = write(tmp_path, "FIX_M2.json", tio.pgm_to_dict(pgm.fix_m2_pgm()))
    code, out = run(["gc-check", "--pgm", p, "--max-deg", 5, "--trunc", 6])
    assert code == 0
    assert complexes == [6, 6]
    assert sorted(reduced) == sorted(2 * list(range(6)))
    rep = json.loads(out)["report"]
    assert rep["all_iso"] is True
    assert rep["degrees"]["0"] == {"iso": True, "localized": "Z",
                                   "source": "Z + Z", "target": "Z"}
    assert all(rep["degrees"][str(q)] == {"iso": True, "localized": "0",
                                          "source": "0", "target": "0"}
               for q in range(1, 6))


def test_gc_check_builds_only_what_the_degrees_read(run, tmp_path,
                                                    monkeypatch):
    # a truncation past max_deg + 1 bounds the trusted degrees only: both
    # complexes stop at degree max_deg + 1, and the report is --trunc 3's
    # but for trunc
    p = write(tmp_path, "FIX_M2.json", tio.pgm_to_dict(pgm.fix_m2_pgm()))
    complexes, _ = _count_complexes(monkeypatch)
    code, out = run(["gc-check", "--pgm", p, "--max-deg", 1, "--trunc", 8])
    assert code == 0
    assert complexes == [2, 2]
    code3, out3 = run(["gc-check", "--pgm", p, "--max-deg", 1, "--trunc", 3])
    assert code3 == 0
    rep, rep3 = json.loads(out)["report"], json.loads(out3)["report"]
    assert (rep.pop("trunc"), rep3.pop("trunc")) == (8, 3)
    assert rep == rep3


# --- exit codes and manifest ----------------------------------------------------

def test_malformed_input_exits_one(run, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"nonsense": 1}')
    code, out = run(["validate", str(p)])
    assert code == 1
    assert "error" in json.loads(out)


def test_unreadable_json_exits_one(run, tmp_path):
    p = tmp_path / "garbled.json"
    p.write_text("{{{")
    assert run(["validate", str(p)])[0] == 1


def test_missing_file_exits_one(run, tmp_path):
    assert run(["validate", str(tmp_path / "absent.json")])[0] == 1


def test_bad_flags_exit_one(run, tmp_path):
    code, out = run(["no-such-subcommand"])
    assert code == 1
    assert "error" in json.loads(out)


def test_axiom_failure_exits_two(run, tmp_path):
    d = tio.two_category_to_dict(fix_g2())
    d["comp1"] = []
    code, out = run(["validate", write(tmp_path, "broken.json", d)])
    assert code == 2
    assert json.loads(out)["counterexample"]["clause"] == "axiom-failure"


def test_manifest_embedded_everywhere(run, tmp_path):
    p = g2_file(tmp_path)
    for argv in (["validate", p], ["nerve", "--input", p, "--max-dim", 2],
                 ["dualize", p]):
        code, out = run(argv)
        assert code == 0
        m = json.loads(out)["manifest"]
        assert set(m) == {"subcommand", "inputs", "bounds", "determinism",
                          "tool_version"}
        assert p in m["inputs"] and len(m["inputs"][p]) == 64


def test_one_version(run, tmp_path):
    # the manifest's tool version is pyproject's [project].version and the
    # package's __version__, read by no metadata lookup
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml",
              "rb") as fh:
        declared = tomllib.load(fh)["project"]["version"]
    assert cli.VERSION == twocat.__version__ == declared == "0.1.0"
    _, out = run(["validate", g2_file(tmp_path)])
    assert '"tool_version":"0.1.0"' in out


def test_reports_are_byte_identical(run, tmp_path):
    p = g2_file(tmp_path)
    outs = {run(["nerve", "--input", p, "--max-dim", 3])[1]
            for _ in range(3)}
    assert len(outs) == 1


def test_pretty_flag(run, tmp_path):
    p = g2_file(tmp_path)
    _, compact = run(["validate", p])
    _, pretty = run(["validate", p, "--pretty"])
    assert json.loads(compact) == json.loads(pretty)
    assert "\n  " in pretty and "\n  " not in compact


# --- validate kinds ---------------------------------------------------------------

def test_validate_all_kinds(run, tmp_path):
    cases = [
        ("f.json", tio.two_functor_to_dict(identity_functor(fix_g2())),
         "two-functor"),
        ("p.json", tio.pgm_to_dict(pgm.fix_c2_pgm()), "pgm"),
        ("a.json", tio.action_to_dict(pgm.self_action(pgm.fix_c2_pgm())),
         "action"),
    ]
    for name, obj, kind in cases:
        code, out = run(["validate", write(tmp_path, name, obj)])
        assert code == 0
        assert json.loads(out)["report"]["kind"] == kind


# --- constructions ------------------------------------------------------------------

def test_cospan_constructions(run, tmp_path):
    write(tmp_path, "id.json",
          tio.two_functor_to_dict(identity_functor(fix_g2())))
    cospan = write(tmp_path, "cospan.json",
                   {"left": "id.json", "right": "id.json"})
    for name, twos in (("laco", 8), ("oplaco", 8), ("pullback", 2)):
        code, out = run([name, cospan])
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["construction"] == name
        assert rep["two_cells"] == twos
        assert set(rep["inputs"]) == {"left", "right"}
        # the emitted category is valid interchange data
        tio.two_category_from_dict(rep["category"])


def every_job(tmp_path):
    """(argv, input paths) of one job per subcommand, each with every
    optional input file supplied and no output file."""
    F = tio.two_functor_to_dict(identity_functor(fix_g2()))
    cospan = [write(tmp_path, "cospan.json",
                    {"left": "l.json", "right": "r.json"}),
              write(tmp_path, "l.json", F), write(tmp_path, "r.json", F)]
    g2, f = g2_file(tmp_path), write(tmp_path, "f.json", F)
    pr2 = write(tmp_path, "pr2.json",
                tio.two_functor_to_dict(fix_prod(fix_g2(), fix_c2())[2]))
    X = nerve(fix_g2(), 3)
    nerve_file = write(tmp_path, "nerve.json", tio.trunc_sset_to_dict(X))
    coeffs = write(tmp_path, "const.json",
                   tio.coeff_system_to_dict(constant_system(X)))
    P = pgm.fix_c2_pgm()
    c2 = write(tmp_path, "c2.json", tio.pgm_to_dict(P))
    act = write(tmp_path, "act.json", tio.action_to_dict(pgm.self_action(P)))
    return [
        (["validate", g2], [g2]),
        *(([name, cospan[0]], cospan)
          for name in ("laco", "oplaco", "pullback")),
        (["fiber", "--functor", pr2, "--object", "0"], [pr2]),
        (["nerve", "--input", g2, "--max-dim", 3], [g2]),
        (["homology", "--nerve", nerve_file, "--deg", 1], [nerve_file]),
        (["homology", "--nerve", nerve_file, "--deg", 1, "--coeffs", coeffs],
         [nerve_file, coeffs]),
        (["opfib", "--functor", f], [f]),
        (["ss", "--functor", pr2, "--pmax", 1, "--qmax", 1,
          "--fiber-coeffs", 0], [pr2]),
        (["sinv", "--pgm", c2, "--action", act], [c2, act]),
        (["gc-check", "--pgm", c2, "--action", act, "--max-deg", 0,
          "--trunc", 1], [c2, act]),
        (["dualize", g2], [g2]),
    ]


def test_each_input_is_read_once(run, tmp_path, monkeypatch):
    # one read of each input file gives both its manifest digest and its
    # parse, on every subcommand
    monkeypatch.delenv("TWOCAT_CACHE_DIR", raising=False)
    jobs = every_job(tmp_path)
    assert {argv[0] for argv, _ in jobs} == {
        name[4:].replace("_", "-") for name in dir(cli)
        if name.startswith("cmd_")}
    opened, real_open = Counter(), open

    def counted_open(file, *args, **kwargs):
        opened[os.path.realpath(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counted_open)
    for argv, inputs in jobs:
        opened.clear()
        assert run(argv)[0] == 0, argv
        assert opened == Counter(os.path.realpath(p) for p in inputs), argv


@pytest.mark.parametrize("subcommand", ["validate", "dualize", "nerve"])
def test_manifest_digest_is_of_the_parsed_bytes(run, tmp_path, monkeypatch,
                                                subcommand):
    # a file that changes between reads: the report is that of the bytes
    # first read, whose digest the manifest gives
    monkeypatch.delenv("TWOCAT_CACHE_DIR", raising=False)
    first, later = (tio.dumps(tio.two_category_to_dict(C)).encode()
                    for C in (fix_g2(), fix_i()))
    p = tmp_path / "C.json"
    p.write_bytes(first)
    argv = {"validate": ["validate", p], "dualize": ["dualize", p],
            "nerve": ["nerve", "--input", p, "--max-dim", 2]}[subcommand]
    code, want = run(argv)
    assert code == 0
    rep = json.loads(want)
    assert rep["manifest"]["inputs"][str(p)] == \
        hashlib.sha256(first).hexdigest()
    if subcommand != "nerve":
        assert rep["report"]["two_cells"] == len(fix_g2().two_src)
    reads, real_open = [], open

    def changing_open(file, mode="r", *args, **kwargs):
        if os.path.realpath(file) != os.path.realpath(p):
            return real_open(file, mode, *args, **kwargs)
        reads.append(mode)
        data = first if len(reads) == 1 else later
        return io.BytesIO(data) if "b" in mode else io.StringIO(data.decode())

    monkeypatch.setattr("builtins.open", changing_open)
    assert run(argv) == (0, want)
    assert reads == ["rb"]


# --- cached runs, checked here and under python -O ----------------------------

def quiet(argv):
    """(exit code, stdout) of main(argv), captured without a fixture."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(a) for a in argv])
    return code, buf.getvalue()


def observed(flags, probe, tmp_path):
    """What probe(tmp_path) returns, as JSON, run in this process or, with
    flags, under `python [flags]` in a child process: -O strips asserts,
    so a probe makes none, and its caller checks what it returns."""
    if not flags:
        return json.loads(json.dumps(probe(str(tmp_path))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([
        os.path.dirname(os.path.dirname(twocat.__file__)),
        os.path.dirname(os.path.abspath(__file__))]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c",
         "import json, sys, test_cli; "
         "print(json.dumps(test_cli.%s(sys.argv[1])))" % probe.__name__,
         str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def probe_cached_opens(tmp):
    """[exit code, {file: times opened}] of a nerve hit, a homology hit, a
    homology record miss and a homology whose --coeffs names its nerve
    file, each file named relative to tmp and each temporary one without
    its pid."""
    tmp = Path(tmp)
    out = tmp / "nerve.json"
    nerve_job = ["nerve", "--input", g2_file(tmp), "--max-dim", 3,
                 "--out", out]
    homology_job = ["homology", "--nerve", out, "--deg", 2]
    quiet(nerve_job)            # the miss
    opened, real_open = Counter(), open

    def counted_open(file, *args, **kwargs):
        name = os.path.relpath(os.path.realpath(file), os.path.realpath(tmp))
        opened[re.sub(r"\.\d+\.tmp$", ".tmp", name)] += 1
        return real_open(file, *args, **kwargs)

    seen = {}
    with mock.patch("builtins.open", counted_open):
        for name, job in (("nerve-hit", nerve_job),
                          ("homology-hit", homology_job),
                          ("homology-miss", homology_job),
                          ("coeffs-nerve", [*homology_job, "--coeffs", out])):
            if name == "homology-miss":
                for f in Path(os.environ["TWOCAT_CACHE_DIR"]).glob("sset-*"):
                    f.unlink()
            opened.clear()
            seen[name] = [quiet(job)[0], dict(opened)]
    return seen


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_each_input_is_read_once_through_the_cache(tmp_path, monkeypatch,
                                                   flags):
    # a cached run opens each input file, cache entry and record once: a
    # nerve hit reads the entry in chunks into --out's temporary file, and
    # homology hashes the nerve file chunk by chunk, reading it again from
    # the start only on a record miss; a --coeffs that names the nerve file
    # (not a coefficients file, so exit 1) takes the one whole read
    monkeypatch.setenv("TWOCAT_CACHE_DIR", str(tmp_path / "cache"))
    seen = observed(flags, probe_cached_opens, tmp_path)
    entry = "cache/nerve-%s-3.json" % hashlib.sha256(
        (tmp_path / "FIX_G2.json").read_bytes()).hexdigest()
    record = "cache/sset-%s.json" % hashlib.sha256(
        (tmp_path / "nerve.json").read_bytes()).hexdigest()
    assert seen == {
        "nerve-hit": [0, {"FIX_G2.json": 1, entry: 1, record: 1,
                          "nerve.json.tmp": 1}],
        "homology-hit": [0, {"nerve.json": 1, record: 1}],
        "homology-miss": [0, {"nerve.json": 1, record: 1,
                              record + ".tmp": 1}],
        "coeffs-nerve": [1, {"nerve.json": 1, record + ".tmp": 1}],
    }


class ChangingFile(io.BytesIO):
    """A file that holds first until it is sought back to its start, and
    later from then on."""

    def __init__(self, first, later):
        super().__init__(first)
        self.later = later

    def seek(self, pos, whence=0):
        if (pos, whence) == (0, 0) and self.later is not None:
            super().__init__(self.later)
            self.later = None
        return super().seek(pos, whence)


def changing_nerve_files():
    """The nerve files of G2 and of I at N = 3."""
    return [tio.dumps(tio.trunc_sset_to_dict(nerve(C, 3))).encode()
            for C in (fix_g2(), fix_i())]


def probe_changing_nerve_file(tmp):
    """[exit code, stdout, open modes, cache files] of a cached homology
    --deg 2 of a nerve file that holds that of G2 until it is read again
    from its start, and that of I from then on."""
    first, later = changing_nerve_files()
    p = Path(tmp) / "X.json"
    p.write_bytes(later)
    reads, real_open = [], open

    def changing_open(file, mode="r", *args, **kwargs):
        if os.path.realpath(file) != os.path.realpath(p):
            return real_open(file, mode, *args, **kwargs)
        reads.append(mode)
        return ChangingFile(first, later)

    with mock.patch("builtins.open", changing_open):
        code, out = quiet(["homology", "--nerve", p, "--deg", 2])
    return [code, out, reads, sorted(os.listdir(os.environ[
        "TWOCAT_CACHE_DIR"]))]


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_cached_homology_digest_is_of_the_parsed_bytes(run, tmp_path,
                                                       monkeypatch, flags):
    # a nerve file that changes between the hash pass and the parse, on a
    # record miss: the report is that of an uncached run on the bytes its
    # manifest digest names, and so is the record stored
    monkeypatch.setenv("TWOCAT_CACHE_DIR", str(tmp_path / "cache"))
    code, out, reads, files = observed(flags, probe_changing_nerve_file,
                                       tmp_path)
    p = tmp_path / "X.json"
    digest = json.loads(out)["manifest"]["inputs"][str(p)]
    data = {hashlib.sha256(d).hexdigest(): d for d in changing_nerve_files()}
    assert (reads, files) == (["rb"], ["sset-%s.json" % digest])
    p.write_bytes(data[digest])
    monkeypatch.delenv("TWOCAT_CACHE_DIR")
    assert run(["homology", "--nerve", p, "--deg", 2]) == (code, out)


def probe_failing_out(tmp):
    """[exit code, --out unchanged, temporary files left] of a cached nerve
    --out over an older --out that fails: on the miss after a tampered
    entry, on the commit of a hit, and on that of a miss."""
    tmp = Path(tmp)
    cache, out = Path(os.environ["TWOCAT_CACHE_DIR"]), tmp / "nerve.json"
    job = ["nerve", "--input", g2_file(tmp), "--max-dim", 3, "--out", out]

    def failing(*_args):
        raise OSError("the run fails here")

    cases = {"tampered-entry": (_flip_entry_byte, (nv, "nerve")),
             "hit-commit": (lambda _cache: None, (os, "replace")),
             "miss-commit": (shutil.rmtree, (os, "replace"))}
    seen = {}
    for name, (before, (obj, attr)) in cases.items():
        shutil.rmtree(cache, ignore_errors=True)
        quiet(job)              # a cold run fills the cache
        before(cache)
        out.write_bytes(b"older")
        with mock.patch.object(obj, attr, failing):
            code = quiet(job)[0]
        seen[name] = [code, out.read_bytes() == b"older",
                      sorted(str(f.relative_to(tmp))
                             for f in tmp.rglob("*.tmp"))]
    return seen


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_out_never_receives_unverified_bytes(tmp_path, monkeypatch, flags):
    # --out gets a hit's bytes only once their record is found, and any
    # file only by a rename of a complete one: a tampered entry whose
    # recomputation fails, and a commit that fails, leave --out as it was
    # and no temporary file behind
    monkeypatch.setenv("TWOCAT_CACHE_DIR", str(tmp_path / "cache"))
    assert observed(flags, probe_failing_out, tmp_path) == {
        name: [1, True, []]
        for name in ("tampered-entry", "hit-commit", "miss-commit")}


def test_cached_runs_hold_no_nerve_file_whole(run, tmp_path, monkeypatch):
    # a warm nerve --out and a cached homology move the nerve file of
    # G2 x C2 at N = 5 (30.7 MB) in chunks and read line 1 of its position
    # record alone: neither allocates a quarter of its size, nor 256 KiB;
    # the cold nerve --out encodes it off the position tables, under 7 MiB
    monkeypatch.setenv("TWOCAT_CACHE_DIR", str(tmp_path / "cache"))
    p = write(tmp_path, "G2xC2.json",
              tio.two_category_to_dict(fix_prod(fix_g2(), fix_c2())[0]))
    out = tmp_path / "nerve.json"
    jobs = [["nerve", "--input", p, "--max-dim", 5, "--out", out],
            ["homology", "--nerve", out, "--deg", 0]]
    peaks = []
    for job in jobs[:1] + jobs:         # the miss, then the cached runs
        tracemalloc.start()
        try:
            code, _ = run(job)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0, job
    size = out.stat().st_size
    assert size == 30675153
    assert peaks[0] <= 7 << 20, peaks
    assert all(peak <= min(size / 4, 1 << 18) for peak in peaks[1:]), peaks


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_cospan_with_different_targets_is_rejected(tmp_path, flags):
    # run as `python [-O] -m twocat.cli`: -O strips asserts, so the check
    # that both legs end in the same 2-category must not be one
    write(tmp_path, "g2.json",
          tio.two_functor_to_dict(identity_functor(fix_g2())))
    write(tmp_path, "c2.json",
          tio.two_functor_to_dict(identity_functor(fix_c2())))
    cospan = write(tmp_path, "cospan.json",
                   {"left": "g2.json", "right": "c2.json"})
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    for name in ("laco", "oplaco", "pullback"):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "twocat.cli", name, cospan],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["error"] == (
            "ValueError: not a cospan: the functors have different targets")


def cli_run(flags, *argv):
    """Run `python [flags] -m twocat.cli argv` in a child process: under -O,
    a check that is an assert would not run."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    return subprocess.run(
        [sys.executable, *flags, "-m", "twocat.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_functor_files_validate_their_two_categories(tmp_path, flags):
    # the bang functor out of G2 with the vertical unit law broken is a
    # 2-functor on its tables: only the source's own check can catch it
    G2 = fix_g2()
    broken = replace(G2, vcomp={**G2.vcomp, ("e0", "e1"): "e0"})
    f = write(tmp_path, "bang.json", tio.two_functor_to_dict(
        bang_functor(broken)))
    cospan = write(tmp_path, "cospan.json", {"left": f, "right": f})
    jobs = [["validate", f], ["laco", cospan], ["oplaco", cospan],
            ["pullback", cospan], ["fiber", "--functor", f, "--object", "pt"],
            ["opfib", "--functor", f],
            ["ss", "--functor", f, "--pmax", 2, "--qmax", 2]]
    for job in jobs:
        proc = cli_run(flags, *job)
        assert proc.returncode == 2, (job, proc.stdout + proc.stderr)
        assert json.loads(proc.stdout)["counterexample"] == {
            "clause": "axiom-failure",
            "detail": ["vcomp left unit at ('e1',)"]}, job


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_untyped_symmetry_is_an_axiom_failure(tmp_path, flags):
    # beta(1, 0) = id_0 runs 0 -> 0, not 1 + 0 -> 0 + 1; it must be
    # rejected before it is composed with beta(0, 1) = id_1
    P = pgm.fix_c2_pgm()
    P = replace(P, beta={**P.beta, ("1", "0"): "id_0"})
    p = write(tmp_path, "pgm.json", tio.pgm_to_dict(P))
    for job in (["validate", p], ["sinv", "--pgm", p],
                ["gc-check", "--pgm", p, "--max-deg", 1, "--trunc", 2]):
        proc = cli_run(flags, *job)
        assert proc.returncode == 2, (job, proc.stdout + proc.stderr)
        assert json.loads(proc.stdout)["counterexample"] == {
            "clause": "axiom-failure",
            "detail": ["pgm symmetry typing at ('1', '0', 'id_0')"]}, job


def test_fiber(run, tmp_path):
    _prod, _pr1, pr2 = fix_prod(fix_g2(), fix_c2())
    p = write(tmp_path, "pr2.json", tio.two_functor_to_dict(pr2))
    code, out = run(["fiber", "--functor", p, "--object", "0"])
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["objects"] == 1 and rep["two_cells"] == 2
    assert run(["fiber", "--functor", p, "--object", "zz"])[0] == 1


# --- nerve, cache, homology ----------------------------------------------------------

def test_nerve_counts_and_homology_roundtrip(run, tmp_path):
    p = g2_file(tmp_path)
    out_file = str(tmp_path / "nerve.json")
    code, out = run(["nerve", "--input", p, "--max-dim", 3,
                     "--out", out_file])
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["levels"] == [1, 1, 2, 8]
    code, out = run(["homology", "--nerve", out_file, "--deg", 1])
    assert code == 0
    assert json.loads(out)["report"]["group"] == "0"
    code, out = run(["homology", "--nerve", out_file, "--deg", 0])
    assert json.loads(out)["report"]["group"] == "Z"
    # degree out of the trusted range is a usage error
    assert run(["homology", "--nerve", out_file, "--deg", 3])[0] == 1


def test_homology_with_constant_coefficients(run, tmp_path):
    p = g2_file(tmp_path)
    out_file = str(tmp_path / "nerve.json")
    run(["nerve", "--input", p, "--max-dim", 3, "--out", out_file])
    X = tio.trunc_sset_from_dict(json.loads(open(out_file).read()))
    coeffs = write(tmp_path, "const.json",
                   tio.coeff_system_to_dict(constant_system(X)))
    code, out = run(["homology", "--nerve", out_file, "--deg", 2,
                     "--coeffs", coeffs])
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["coefficients"] == "local" and rep["group"] == "Z/2"


def test_nerve_cache(run, tmp_path, monkeypatch):
    p = g2_file(tmp_path)
    cache = tmp_path / "cache"
    _, cold = run(["nerve", "--input", p, "--max-dim", 3])
    monkeypatch.setenv("TWOCAT_CACHE_DIR", str(cache))
    _, miss = run(["nerve", "--input", p, "--max-dim", 3])
    # one nerve entry keyed by the input's digest, and one position record
    # keyed by the entry's
    with open(p, "rb") as fh:
        entry = "nerve-%s-3.json" % hashlib.sha256(fh.read()).hexdigest()
    record = "sset-%s.json" % hashlib.sha256(
        (cache / entry).read_bytes()).hexdigest()
    assert sorted(os.listdir(cache)) == sorted([entry, record])
    _, hit = run(["nerve", "--input", p, "--max-dim", 3])
    assert cold == miss == hit


def _nerve_out_twice(run, tmp_path, monkeypatch):
    """Runs `nerve --out` cold and then warm through one cache, writing the
    same --out path; returns ((report, file bytes) cold, the same warm)."""
    p = g2_file(tmp_path)
    out = tmp_path / "nerve.json"
    monkeypatch.setenv("TWOCAT_CACHE_DIR", str(tmp_path / "cache"))
    argv = ["nerve", "--input", p, "--max-dim", 3, "--out", out]
    code, cold = run(argv)
    assert code == 0
    cold_bytes = out.read_bytes()
    out.unlink()

    def not_enumerated(*_args):
        raise AssertionError("a warm run must not build the nerve")

    monkeypatch.setattr(nv, "nerve", not_enumerated)
    code, warm = run(argv)
    assert code == 0
    return (cold, cold_bytes), (warm, out.read_bytes())


def test_warm_nerve_out_file_matches_cold(run, tmp_path, monkeypatch):
    (_, cold), (_, warm) = _nerve_out_twice(run, tmp_path, monkeypatch)
    assert warm == cold
    assert cold.decode() == tio.dumps(
        tio.trunc_sset_to_dict(nerve(fix_g2(), 3)))


def test_warm_nerve_out_report_matches_cold(run, tmp_path, monkeypatch):
    (cold, _), (warm, _) = _nerve_out_twice(run, tmp_path, monkeypatch)
    assert warm == cold


def test_nerve_out_may_name_the_cache_entry(run, tmp_path, monkeypatch):
    p = g2_file(tmp_path)
    cache = tmp_path / "cache"
    monkeypatch.setenv("TWOCAT_CACHE_DIR", str(cache))
    with open(p, "rb") as fh:
        entry = cache / ("nerve-%s-3.json" % hashlib.sha256(fh.read())
                         .hexdigest())
    text = tio.dumps(tio.trunc_sset_to_dict(nerve(fix_g2(), 3)))
    for _ in range(2):      # a miss, then a hit
        code, _ = run(["nerve", "--input", p, "--max-dim", 3, "--out", entry])
        assert code == 0
        assert entry.read_text() == text


@pytest.mark.parametrize("cache", [False, True], ids=["uncached", "cached"])
def test_unwritable_out_is_named_in_the_error(run, tmp_path, monkeypatch,
                                              cache):
    # --out is written through a temporary file beside it, but the error
    # names --out itself, and no file is left behind, in the cache either
    if cache:
        monkeypatch.setenv("TWOCAT_CACHE_DIR", str(tmp_path / "cache"))
    else:
        monkeypatch.delenv("TWOCAT_CACHE_DIR", raising=False)
    p = g2_file(tmp_path)
    (tmp_path / "dir").mkdir()
    for out, error in (
            ("absent/nerve.json", "FileNotFoundError: [Errno 2] No such file "
                                  "or directory: '%s'"),
            ("dir", "IsADirectoryError: [Errno 21] Is a directory: '%s'")):
        out = str(tmp_path / out)
        code, rep = run(["nerve", "--input", p, "--max-dim", 2, "--out", out])
        assert (code, json.loads(rep)) == (1, {"error": error % out})
        assert [f.name for f in tmp_path.rglob("*") if f.is_file()] == [
            "FIX_G2.json"]


@pytest.mark.parametrize("pretty", [[], ["--pretty"]],
                         ids=["compact", "pretty"])
def test_nerve_bytes_are_those_of_dumps(run, tmp_path, monkeypatch, pretty):
    # a cold and a warm --out file, the cache entry, and the inline report
    # uncached, on a miss and on a hit, are the bytes tio.dumps writes of
    # trunc_sset_to_dict, on ids that JSON escapes
    D = awkward_copy(fix_prod(fix_g2(), fix_c2())[0])
    p = write(tmp_path, "awkward.json", tio.two_category_to_dict(D))
    d = tio.trunc_sset_to_dict(nerve(D, 3))
    want = tio.dumps(d).encode()
    argv = ["nerve", "--input", p, "--max-dim", 3, *pretty]
    out = tmp_path / "nerve.json"
    monkeypatch.setenv("TWOCAT_CACHE_DIR", str(tmp_path / "out-cache"))
    for _ in range(2):          # a miss, then a hit
        code, _ = run(argv + ["--out", out])
        assert code == 0 and out.read_bytes() == want
        entry, = (tmp_path / "out-cache").glob("nerve-*.json")
        assert entry.read_bytes() == want
    reports = []
    for cache in (None, "cache", "cache"):      # uncached, a miss, a hit
        if cache:
            monkeypatch.setenv("TWOCAT_CACHE_DIR", str(tmp_path / cache))
        else:
            monkeypatch.delenv("TWOCAT_CACHE_DIR")
        code, rep = run(argv)
        assert code == 0
        reports.append(rep)
    doc = json.loads(reports[0])
    assert doc["report"]["nerve"] == d
    assert reports == 3 * [tio.dumps(doc, pretty=bool(pretty))]


def record_of(X, **fields) -> list:
    """The two lines of the position record of X, keyed by its simplex
    keys, with the fields on line 1."""
    return b"".join(tio.trunc_sset_record(X, tio.level_keys(X), **fields)
                    ).splitlines(keepends=True)


def test_position_record_roundtrip_and_checks():
    empty = TruncSimplicialSet(2, [[], [], []], [[], [[], []], [[], [], []]],
                               [[[]], [[], []], []])
    for X in (nerve(fix_g2(), 5), nerve(fix_i(), 3), empty):
        line1, line2 = record_of(X, digest="0" * 64, tool_version="v")
        sizes = [len(lev) for lev in X.levels]
        assert line1.decode() == tio.dumps({
            "N": X.N, "sizes": sizes, "faces": X.faces, "degens": X.degens,
            "digest": "0" * 64, "tool_version": "v"})
        assert line2.decode() == tio.dumps(
            [[tio.simplex_key(x) for x in lev] for lev in X.levels])
        rec = json.loads(line1)
        Y = tio.trunc_sset_from_record(rec, line2)
        assert Y.levels == json.loads(line2) and Y.N == X.N
        assert (Y.faces, Y.degens, Y.degenerate) == (X.faces, X.degens,
                                                     X.degenerate)
        # line 1 alone: the simplices are their positions
        Y = tio.trunc_sset_from_record(rec)
        assert [list(lev) for lev in Y.levels] == [list(range(n))
                                                   for n in sizes]
        assert (Y.N, Y.faces, Y.degens, Y.degenerate) == (
            X.N, X.faces, X.degens, X.degenerate)
    line1, line2 = record_of(nerve(fix_i(), 3))
    rec, levels = json.loads(line1), json.loads(line2)
    n1, n2 = len(levels[1]), len(levels[2])
    tables = "faces and degens must be total position tables"
    sizes = "sizes must be N \\+ 1 integers >= 0"
    alone, both = [None], [None, line2]
    bad = [
        # line 2, and line 1 against it
        (dict(rec, N=2), [line2], "N must be 3"),
        (rec, [tio.dumps(levels[:1] * 4)], "levels must not repeat"),
        (rec, [tio.dumps(levels[:3] + [levels[3][:-1]])],
         "levels must have the sizes"),
        (rec, [line2[:len(line2) // 2]], "Unterminated string"),
        # line 1, read alone and (but for N) with line 2: the sizes, and a
        # row cut, an index past its level, a negative one (which a list
        # would read from the end), a boolean one, a table missing
        (dict(rec, N=2), alone, sizes),
        (dict(rec, sizes=rec["sizes"][:3]), both, sizes),
        (dict(rec, sizes=[-1] + rec["sizes"][1:]), both, sizes),
        (dict(rec, sizes=[True] + rec["sizes"][1:]), both, sizes),
        ({k: v for k, v in rec.items() if k != "sizes"}, both, sizes),
        (dict(rec, faces=[[], rec["faces"][1][:1]] + rec["faces"][2:]),
         both, tables),
        (dict(rec, degens=[[[n1] * 2]] + rec["degens"][1:]), both, tables),
        (dict(rec, faces=rec["faces"][:2] + [[[-1] * n2]
                                             + rec["faces"][2][1:]]
              + rec["faces"][3:]), both, tables),
        (dict(rec, degens=[[[True, 0]]] + rec["degens"][1:]), both, tables),
        ({k: v for k, v in rec.items() if k != "faces"}, both, tables),
    ]
    assert len(levels[0]) == 2
    for d, lines, error in bad:
        for given in lines:
            with pytest.raises(ValueError, match=error):
                tio.trunc_sset_from_record(d, given)


def _edit_record(cache, edit):
    """Applies edit to [line 1 parsed, line 2] of the record in cache and
    writes the record back."""
    path, = cache.glob("sset-*.json")
    line1, line2 = path.read_bytes().splitlines(keepends=True)
    lines = [json.loads(line1), line2]
    edit(lines)
    path.write_bytes(tio.dumps(lines[0]).encode() + lines[1])


def _other_nerve(**fields):
    """An edit that puts the record of the nerve of I at N = 3 in place of
    the record, with `fields` changed: used, it would change every report
    the tests below compare."""
    def edit(lines):
        line1, lines[1] = record_of(nerve(fix_i(), 3))
        lines[0].update(json.loads(line1), **fields)
    return edit


def _flip_entry_byte(cache):
    # the first "(" of the first level key turned into ")": the entry is
    # still JSON, with a simplex no row names
    path, = cache.glob("nerve-*.json")
    data = bytearray(path.read_bytes())
    k = data.index(b'"levels":[["') + len(b'"levels":[["')
    data[k] ^= 1
    path.write_bytes(bytes(data))


def _break_identity(lines):
    # s_0 of G2's one edge pointed at the nondegenerate 2-simplex: the
    # tables stay total and in range, s_1 s_0 = s_0 s_0 fails, and used,
    # the record would lose H_2 = Z/2
    assert lines[0]["sizes"][2] == 2
    lines[0]["degens"][1][0][0] ^= 1


def _truncate_record(cache):
    # cut in the middle of line 1, which every run reads
    path, = cache.glob("sset-*.json")
    data = path.read_bytes()
    path.write_bytes(data[:data.index(b"\n") // 2])


CACHE_TAMPERS = {
    "entry-byte-flipped": _flip_entry_byte,
    "other-tool-version": lambda cache: _edit_record(
        cache, _other_nerve(tool_version="0.0.0+other")),
    "other-digest": lambda cache: _edit_record(
        cache, _other_nerve(digest="0" * 64)),
    "face-out-of-range": lambda cache: _edit_record(
        cache, lambda lines: lines[0]["faces"][1][0].__setitem__(
            0, lines[0]["sizes"][0])),
    "identity-broken": lambda cache: _edit_record(cache, _break_identity),
    "record-truncated": _truncate_record,
}


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("tamper", sorted(CACHE_TAMPERS))
def test_tampered_cache_is_a_miss(tmp_path, run, monkeypatch, flags,
                                  tamper):
    # a cache file that fails a check is a miss, also under python -O: the
    # warm nerve --out and homology recompute, overwrite the cache and
    # write and print the cold run's bytes
    cache, out = tmp_path / "cache", tmp_path / "nerve.json"
    monkeypatch.setenv("TWOCAT_CACHE_DIR", str(cache))
    jobs = [["nerve", "--input", g2_file(tmp_path), "--max-dim", "3",
             "--out", str(out)],
            ["homology", "--nerve", str(out), "--deg", "2"]]
    cold = [run(job) for job in jobs]
    assert [code for code, _ in cold] == [0, 0]

    def files(pattern):
        return {f.name: f.read_bytes() for f in cache.glob(pattern)}

    # nerve restores the whole cache; homology, which reads no entry, the
    # record
    restored = ["*", "sset-*"]
    cold_files = [files(pattern) for pattern in restored]
    cold_out = out.read_bytes()
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    for job, (_, want), pattern, want_files in zip(jobs, cold, restored,
                                                   cold_files):
        CACHE_TAMPERS[tamper](cache)
        if job[0] == "nerve":
            out.unlink()
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "twocat.cli", *job],
            capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, want), proc.stderr
        assert out.read_bytes() == cold_out
        assert files(pattern) == want_files


def _edit_levels(edit):
    """A tamper that applies edit to the levels of the record's line 2,
    parsed, and writes them back as line 2."""
    def apply(lines):
        levels = json.loads(lines[1])
        edit(levels)
        lines[1] = tio.dumps(levels).encode()
    return lambda cache: _edit_record(cache, apply)


# line 2 of the record of G2's nerve at N = 3, whose level 3 has 8 simplices
LEVEL_TAMPERS = {
    "key-repeated": _edit_levels(
        lambda levels: levels[3].__setitem__(1, levels[3][0])),
    "level-too-long": _edit_levels(
        lambda levels: levels[3].append(levels[3][0] + "x")),
    "not-json": lambda cache: _edit_record(
        cache, lambda lines: lines.__setitem__(
            1, lines[1][:len(lines[1]) // 2] + b"\n")),
}


def keyed_jobs(run, tmp_path):
    """(the nerve file of G2 at N = 3, written uncached; the inline nerve
    report and homology --coeffs of it, the runs that name simplices; the
    uncached (exit code, stdout) of each)."""
    p, out = g2_file(tmp_path), tmp_path / "nerve.json"
    assert run(["nerve", "--input", p, "--max-dim", 3, "--out", out])[0] == 0
    X = tio.trunc_sset_from_dict(json.loads(out.read_text()))
    coeffs = write(tmp_path, "const.json",
                   tio.coeff_system_to_dict(constant_system(X)))
    jobs = [["nerve", "--input", p, "--max-dim", "3"],
            ["homology", "--nerve", str(out), "--deg", "2",
             "--coeffs", coeffs]]
    return out, jobs, [run(job) for job in jobs]


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("tamper", sorted(LEVEL_TAMPERS))
def test_tampered_levels_are_a_miss_for_the_keyed_runs(tmp_path, run,
                                                       monkeypatch, flags,
                                                       tamper):
    # line 2 of a record, the levels, is read by the runs that name
    # simplices; one that fails a check is a miss for them, also under
    # python -O: they recompute, print the uncached run's bytes and
    # rewrite the record.  Integral homology names none: it reads line 1
    # alone, a hit that leaves line 2 as it is
    monkeypatch.delenv("TWOCAT_CACHE_DIR", raising=False)
    out, jobs, uncached = keyed_jobs(run, tmp_path)
    integral = ["homology", "--nerve", out, "--deg", 2]
    want_integral = run(integral)
    cache = tmp_path / "cache"
    monkeypatch.setenv("TWOCAT_CACHE_DIR", str(cache))
    assert run(jobs[0]) == uncached[0]          # the miss writes the record
    record, = cache.glob("sset-*.json")
    want = record.read_bytes()
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    for job, done in zip(jobs, uncached):
        LEVEL_TAMPERS[tamper](cache)
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "twocat.cli", *job],
            capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == done, proc.stderr
        assert record.read_bytes() == want
    LEVEL_TAMPERS[tamper](cache)
    tampered = record.read_bytes()

    def not_parsed(_d):
        raise AssertionError("a hit must not parse the nerve file")

    monkeypatch.setattr(tio, "trunc_sset_from_dict", not_parsed)
    assert run(integral) == want_integral
    assert record.read_bytes() == tampered


def test_one_line_record_is_a_miss_and_is_rewritten(tmp_path, run,
                                                    monkeypatch):
    # a record in the earlier one-line layout, {"N", "degens", "digest",
    # "faces", "levels", "tool_version"}, has no sizes: each run takes it
    # as a miss, prints the uncached run's bytes and rewrites the record in
    # the two-line layout
    monkeypatch.delenv("TWOCAT_CACHE_DIR", raising=False)
    out, jobs, uncached = keyed_jobs(run, tmp_path)
    jobs += [["nerve", "--input", jobs[0][2], "--max-dim", "3",
              "--out", str(out)],
             ["homology", "--nerve", str(out), "--deg", "2"]]
    uncached += [run(job) for job in jobs[2:]]
    cache = tmp_path / "cache"
    monkeypatch.setenv("TWOCAT_CACHE_DIR", str(cache))
    assert run(jobs[0]) == uncached[0]
    record, = cache.glob("sset-*.json")
    want = record.read_bytes()
    X = tio.trunc_sset_from_dict(json.loads(out.read_text()))
    old = tio.dumps({"N": X.N, "levels": X.levels, "faces": X.faces,
                     "degens": X.degens, "digest": record.name[5:-5],
                     "tool_version": cli.VERSION})
    for job, done in zip(jobs, uncached):
        record.write_text(old)
        assert run(job) == done, job
        assert record.read_bytes() == want, job


def test_homology_hit_and_miss_match_the_uncached_run(run, tmp_path,
                                                      monkeypatch):
    monkeypatch.delenv("TWOCAT_CACHE_DIR", raising=False)
    p, out = g2_file(tmp_path), tmp_path / "nerve.json"
    assert run(["nerve", "--input", p, "--max-dim", 3, "--out", out])[0] == 0
    X = tio.trunc_sset_from_dict(json.loads(out.read_text()))
    coeffs = write(tmp_path, "const.json",
                   tio.coeff_system_to_dict(constant_system(X)))
    jobs = [["homology", "--nerve", out, "--deg", n, *extra]
            for n in range(3) for extra in ([], ["--coeffs", coeffs])]
    uncached = [run(job) for job in jobs]
    assert all(code == 0 for code, _ in uncached)
    cache = tmp_path / "cache"
    monkeypatch.setenv("TWOCAT_CACHE_DIR", str(cache))
    missed = []
    for job in jobs:
        shutil.rmtree(cache, ignore_errors=True)
        missed.append(run(job))

    def not_parsed(_d):
        raise AssertionError("a hit must not parse the nerve file")

    monkeypatch.setattr(tio, "trunc_sset_from_dict", not_parsed)
    hit = [run(job) for job in jobs]
    assert uncached == missed == hit


def corrupted_nerve_file(tmp_path):
    """The I x I nerve at N = 3 with the face d_0 of one nondegenerate
    1-simplex pointed at its other vertex, so that d^2 != 0; returns (nerve
    file, that 1-simplex)."""
    d = tio.trunc_sset_to_dict(nerve(fix_prod(fix_i(), fix_i())[0], 3))
    degenerate = {x: v for x, v in d["degenerate"]}
    edge = next(x for x in d["levels"][1] if not degenerate[x])
    faces = {(i, x): y for i, x, y in d["face"]}
    for f in d["face"]:
        if f[:2] == [0, edge]:
            f[2] = faces[(1, edge)]
    return write(tmp_path, "bad-nerve.json", d), edge


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_corrupted_nerve_is_an_axiom_failure(tmp_path, flags):
    # run as `python [-O] -m twocat.cli`: -O strips asserts, so the check of
    # the simplicial identities at load, which stops this file before its
    # d^2 = 0 check, must not be one
    p, edge = corrupted_nerve_file(tmp_path)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    for deg in (0, 1, 2):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "twocat.cli", "homology",
             "--nerve", p, "--deg", str(deg)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        rep = json.loads(proc.stdout)
        assert rep["counterexample"]["clause"] == "axiom-failure"
        assert rep["counterexample"]["detail"] == [
            "simplicial identity d_0 s_1 = s_0 d_0 fails at %s" % edge]


def corrupted_top_nerve_file(tmp_path):
    """The G2 nerve at N = 5 with one face of a nondegenerate 5-simplex
    pointed at another nondegenerate 4-simplex with a different boundary,
    so that d_4 d_5 != 0 while every lower d^2 stays 0; returns (nerve
    file, that 5-simplex)."""
    d = tio.trunc_sset_to_dict(nerve(fix_g2(), 5))
    C = chain_complex(tio.trunc_sset_from_dict(d))
    d4 = dict(zip(C.basis[4], C.boundary[4]))
    faces = {(i, x): y for i, x, y in d["face"]}
    x = C.basis[5][0]
    i = next(i for i in range(6) if faces[(i, x)] in d4)
    y = faces[(i, x)]
    other = next(z for z in C.basis[4] if d4[z] != d4[y])
    for f in d["face"]:
        if f[:2] == [i, x]:
            f[2] = other
    return write(tmp_path, "bad-top-nerve.json", d), x


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_corrupted_top_of_nerve_is_an_axiom_failure(tmp_path, flags):
    # the simplicial identities are checked at load in every degree, so
    # also for a degree far below the corruption; only the corrupted
    # simplex's faces break one
    p, x = corrupted_top_nerve_file(tmp_path)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    for deg in (4, 0):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "twocat.cli", "homology",
             "--nerve", p, "--deg", str(deg)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        rep = json.loads(proc.stdout)
        assert rep["counterexample"]["clause"] == "axiom-failure"
        detail, = rep["counterexample"]["detail"]
        assert re.fullmatch(r"simplicial identity d_\d d_\d = d_\d d_\d "
                            r"fails at " + re.escape(x), detail), detail


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_tampered_degenerate_flag_is_an_axiom_failure(tmp_path, run, flags):
    # the only nondegenerate 2-simplex of G2 flagged degenerate drops the
    # Z/2 of H_2, so the flags are checked against the degeneracy table
    out = str(tmp_path / "n.json")
    code, _ = run(["nerve", "--input", g2_file(tmp_path), "--max-dim", 4,
                   "--out", out])
    assert code == 0
    with open(out) as fh:
        d = json.load(fh)
    flag = dict(d["degenerate"])
    x, = [x for x in d["levels"][2] if not flag[x]]
    tampered = dict(d, degenerate=[[y, v or y == x] for y, v in
                                   d["degenerate"]])
    missing = dict(d, degenerate=[row for row in d["degenerate"]
                                  if row[0] != x])
    with pytest.raises(AxiomError, match="has no degenerate flag"):
        tio.trunc_sset_from_dict(missing)
    p = write(tmp_path, "tampered.json", tampered)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "twocat.cli", "homology",
         "--nerve", p, "--deg", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["counterexample"]["clause"] == "axiom-failure"
    assert rep["counterexample"]["detail"] == [
        "degenerate flag of %s disagrees with the degeneracy table" % x]


def first_face_tampered(d, how):
    """(d with its first face entry deleted or its index set to 7, the
    detail that names the entry)."""
    i, x, y = d["face"][0]
    if how == "deleted":
        return (dict(d, face=d["face"][1:]),
                "face entry d_%d of %s is missing" % (i, x))
    return (dict(d, face=[[7, x, y]] + d["face"][1:]),
            "face entry d_7 of %s = %s is out of range" % (x, y))


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("how", ["deleted", "index-7"])
def test_partial_face_table_is_an_axiom_failure(tmp_path, run, flags, how):
    # the first face entry deleted, or its index set to 7: the face table
    # is no longer total or in range, which the reader checks
    out = str(tmp_path / "n.json")
    code, _ = run(["nerve", "--input", g2_file(tmp_path), "--max-dim", 4,
                   "--out", out])
    assert code == 0
    with open(out) as fh:
        tampered, detail = first_face_tampered(json.load(fh), how)
    p = write(tmp_path, "tampered.json", tampered)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "twocat.cli", "homology",
         "--nerve", p, "--deg", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["counterexample"]["clause"] == "axiom-failure"
    assert rep["counterexample"]["detail"] == [detail]


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_broken_simplicial_identity_is_an_axiom_failure(tmp_path, run,
                                                        flags):
    # d_0 of the edge a01 of I pointed at vertex 0: the tables stay total
    # and in range, d^2 = 0 still holds (I has no nondegenerate 2-simplex),
    # and without the identity check H_0 and H_1 read Z + Z and Z
    out = str(tmp_path / "n.json")
    i_file = write(tmp_path, "FIX_I.json", tio.two_category_to_dict(fix_i()))
    code, _ = run(["nerve", "--input", i_file, "--max-dim", 4,
                   "--out", out])
    assert code == 0
    with open(out) as fh:
        d = json.load(fh)
    edge, v0, v1 = ("(('0', '1'), (((0, 1), 'a01'),), ())", "(('0',), (), ())",
                    "(('1',), (), ())")
    row, = [f for f in d["face"] if f[:2] == [0, edge]]
    assert row[2] == v1
    row[2] = v0
    p = write(tmp_path, "tampered.json", d)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    for deg in (0, 1):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "twocat.cli", "homology",
             "--nerve", p, "--deg", str(deg)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        rep = json.loads(proc.stdout)
        assert rep["counterexample"]["clause"] == "axiom-failure"
        assert rep["counterexample"]["detail"] == [
            "simplicial identity d_0 s_1 = s_0 d_0 fails at %s" % edge]


def test_nerve_fields_are_checked(tmp_path, run):
    # an N past the levels read as a raw IndexError at H_5, and levels that
    # are no list as a TypeError about iteration
    d = tio.trunc_sset_to_dict(nerve(fix_g2(), 4))
    cases = [
        (dict(d, N=7), 5, "ValueError: N must be 4, one less than the "
         "number of levels, not 7"),
        (dict(d, N=3), 2, "ValueError: N must be 4, one less than the "
         "number of levels, not 3"),
        (dict(d, levels=5), 0, "ValueError: levels must be a list of lists "
         "of strings"),
        (dict(d, levels=d["levels"][:2] + [[7]] + d["levels"][3:]), 0,
         "ValueError: levels must be a list of lists of strings"),
        (dict(d, levels=d["levels"][:1] + [d["levels"][0]]
              + d["levels"][2:]), 0,
         "ValueError: levels must not repeat a simplex"),
    ]
    for n, (tampered, deg, error) in enumerate(cases):
        p = write(tmp_path, "fields-%d.json" % n, tampered)
        code, out = run(["homology", "--nerve", p, "--deg", deg])
        assert code == 1
        assert json.loads(out) == {"error": error}


def test_operator_tables_must_be_total_and_in_range():
    d = tio.trunc_sset_to_dict(nerve(fix_i(), 3))
    x, y = d["levels"][1][0], d["levels"][2][0]
    cases = [
        # a face of a vertex, a degeneracy off the top, values one level off
        (dict(d, face=d["face"] + [[0, x, x]]), "face entry d_0 of %s = %s "
         "is out of range" % (x, x)),
        (dict(d, degen=[[0, d["levels"][3][0], y]] + d["degen"]),
         "degen entry s_0 of %s = %s is out of range"
         % (d["levels"][3][0], y)),
        (dict(d, degen=[[1, x, x]] + d["degen"]),
         "degen entry s_1 of %s = %s is out of range" % (x, x)),
        (dict(d, degen=d["degen"] + [d["degen"][0]]),
         "degen entry s_%d of %s is given twice" % tuple(d["degen"][0][:2])),
        (dict(d, degen=d["degen"][:-1]),
         "degen entry s_%d of %s is missing" % tuple(d["degen"][-1][:2])),
    ]
    for tampered, detail in cases:
        with pytest.raises(AxiomError) as got:
            tio.trunc_sset_from_dict(tampered)
        assert str(got.value) == detail
    tio.trunc_sset_from_dict(d)


@pytest.mark.parametrize("corrupt", [corrupted_nerve_file,
                                     corrupted_top_nerve_file],
                         ids=["low", "top"])
def test_sparse_and_dense_d2_checks_agree(tmp_path, monkeypatch, corrupt):
    # the loader's check of the simplicial identities, switched off here,
    # stops these files before any d^2 = 0 check; past it, the sparse and
    # the dense check fail alike
    monkeypatch.setattr(tio, "check_simplicial_identities", lambda X: True)
    with open(corrupt(tmp_path)[0]) as fh:
        X = tio.trunc_sset_from_dict(json.load(fh))
    with pytest.raises(AxiomError) as sparse:
        chain_complex(X)
    with pytest.raises(AxiomError) as dense:
        dense_chain_complex(X)
    assert str(sparse.value) == str(dense.value)


@pytest.mark.parametrize("corrupt,inside,outside", [
    (corrupted_nerve_file, (1, 2), (0,)),
    (corrupted_top_nerve_file, (4,), (0, 1, 2, 3))], ids=["low", "top"])
def test_truncated_complex_checks_d2_in_its_window(tmp_path, monkeypatch,
                                                   corrupt, inside, outside):
    # H_n builds the boundaries up to level n + 1 and checks d^2 = 0 on
    # each: past the loader's check, switched off here, a d^2 != 0 inside
    # that window fails, and one outside it is the loader's alone to find
    monkeypatch.setattr(tio, "check_simplicial_identities", lambda X: True)
    with open(corrupt(tmp_path)[0]) as fh:
        X = tio.trunc_sset_from_dict(json.load(fh))
    for n in inside:
        with pytest.raises(AxiomError, match="boundary squared is nonzero"):
            hm.homology(X, n)
    for n in outside:
        hm.homology(X, n)


def non_functorial_coeffs(tmp_path):
    """The G2 nerve at N = 3 with constant coefficients Z, except that the
    face d_0 of one 2-simplex multiplies by 2, so d_0 d_1 != d_0 d_0 there;
    returns (nerve file, coefficient file)."""
    d = tio.trunc_sset_to_dict(nerve(fix_g2(), 3))
    X = tio.trunc_sset_from_dict(d)
    L = constant_system(X)
    L.face_map[(0, X.levels[2][0])] = [[2]]
    return (write(tmp_path, "g2-nerve.json", d),
            write(tmp_path, "bad-coeffs.json", tio.coeff_system_to_dict(L)))


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_non_functorial_coefficients_are_an_axiom_failure(tmp_path, flags):
    # a loaded coefficient system is checked against the loaded nerve, by
    # an explicit check that python -O keeps
    nerve_file, coeffs = non_functorial_coeffs(tmp_path)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    for deg in (0, 1, 2):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "twocat.cli", "homology",
             "--nerve", nerve_file, "--deg", str(deg), "--coeffs", coeffs],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        rep = json.loads(proc.stdout)
        assert rep["counterexample"]["clause"] == "axiom-failure"
        assert "face functoriality fails" in \
            rep["counterexample"]["detail"][0]


def misshapen_coeffs(tmp_path, change):
    """The nerve of I at N = 3 with constant coefficients Z^2, except that
    the face map (0, a01), the identity of Z^2, is replaced by
    change(identity); returns (nerve file, coefficient file)."""
    d = tio.trunc_sset_to_dict(nerve(fix_i(), 3))
    X = tio.trunc_sset_from_dict(d)
    L = constant_system(X, PresentedGroup(2, []))
    x = next(x for x in X.levels[1] if "a01" in x)
    L.face_map[(0, x)] = change(L.face_map[(0, x)])
    return (write(tmp_path, "i-nerve.json", d),
            write(tmp_path, "misshapen.json", tio.coeff_system_to_dict(L)))


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("change", [lambda M: M[:1], lambda M: M + [[5, 7]]],
                         ids=["row-cut", "row-added"])
def test_misshapen_face_map_is_an_axiom_failure(tmp_path, flags, change):
    # a 1 x 2 or 3 x 2 matrix for a map Z^2 -> Z^2 is rejected before use,
    # not read with missing rows as zeros or extra rows ignored
    nerve_file, coeffs = misshapen_coeffs(tmp_path, change)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    for deg in (0, 1):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "twocat.cli", "homology",
             "--nerve", nerve_file, "--deg", str(deg), "--coeffs", coeffs],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        rep = json.loads(proc.stdout)
        assert rep["counterexample"]["clause"] == "axiom-failure"
        assert "is not a 2 x 2 matrix" in rep["counterexample"]["detail"][0]


def terminal_coeffs(tmp_path, edit):
    """The nerve of the terminal 2-category at N = 2, and the constant
    coefficient system Z on it with its dict changed by edit; returns
    (nerve file, coefficient file)."""
    X = nerve(fix_t(), 2)
    d = tio.coeff_system_to_dict(constant_system(X))
    edit(d)
    return (write(tmp_path, "t-nerve.json", tio.trunc_sset_to_dict(X)),
            write(tmp_path, "t-coeffs.json", d))


def _every_group(**fields):
    return lambda d: [g.update(fields) for _x, g in d["group"]]


def _first_map(name, M):
    return lambda d: d[name][0].__setitem__(2, M)


NON_INTEGER_COEFFS = {
    # read as they were, [[2.5]] made H_1 = 0 and [[2.0]] H_0 = Z/2
    "rel-2.5": (_every_group(rels=[[2.5]]), "rels of"),
    "rel-2.0": (_every_group(rels=[[2.0]]), "rels of"),
    "gens-true": (_every_group(gens=True), "gens of"),
    "gens-negative": (_every_group(gens=-1), "gens of"),
    "face-1.0": (_first_map("face_map", [[1.0]]), "face_map of"),
    "degen-true": (_first_map("degen_map", [[True]]), "degen_map of"),
    "rels-no-matrix": (_every_group(rels=[2]), "rels of"),
}


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("case", sorted(NON_INTEGER_COEFFS))
def test_non_integer_coefficients_are_malformed(tmp_path, flags, case):
    # a coefficient file of floats or booleans is malformed input, by a
    # check that python -O keeps
    edit, field = NON_INTEGER_COEFFS[case]
    nerve_file, coeffs = terminal_coeffs(tmp_path, edit)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    for deg in (0, 1):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "twocat.cli", "homology",
             "--nerve", nerve_file, "--deg", str(deg), "--coeffs", coeffs],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        error = json.loads(proc.stdout)["error"]
        assert error.startswith("ValueError: " + field), error


def _limit_address_space():
    # a claimed size must not be allocated: past 2 GB the run would end in
    # a MemoryError, whatever the machine's overcommit policy
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_huge_claimed_group_is_an_axiom_failure(tmp_path):
    # Z^(10^12) at the vertex: the face maps of the degenerate edge, given
    # as 1 x 1, are not 10^12 x 1, which is found without building 10^12 of
    # anything
    vertex = "(('pt',), (), ())"
    nerve_file, coeffs = terminal_coeffs(
        tmp_path, lambda d: dict(d["group"])[vertex].update(gens=10 ** 12))
    assert os.path.getsize(coeffs) < 1000
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "twocat.cli", "homology", "--nerve",
         nerve_file, "--deg", "0", "--coeffs", coeffs],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["counterexample"]["clause"] == "axiom-failure"
    assert re.fullmatch(r"face map \(\d, .*\) is not a 1000000000000 x 1 "
                        r"matrix", rep["counterexample"]["detail"][0])


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("make,edge", [(fix_t, "id_pt"), (fix_i, "a01")],
                         ids=["degenerate", "nondegenerate"])
def test_unbacked_claimed_group_is_an_axiom_failure(tmp_path, flags, make,
                                                    edge):
    # Z^(10^12) on an edge of a nerve at N = 1 whose vertices carry 0: its
    # face maps, 0 x 10^12, are written [], as 0 x 1 ones are, so no list
    # in the file has the claimed size, which is found without building
    # anything of that size (neither the empty relation rows of the
    # degenerate edge of the point nor the boundary columns of I's a01)
    d = tio.trunc_sset_to_dict(nerve(make(), 1))
    X = tio.trunc_sset_from_dict(d)
    L = constant_system(X, PresentedGroup(0, []))
    x = next(x for x in X.levels[1] if edge in x)
    L.group[x] = PresentedGroup(10 ** 12, [])
    nerve_file = write(tmp_path, "nerve.json", d)
    coeffs = write(tmp_path, "coeffs.json", tio.coeff_system_to_dict(L))
    assert os.path.getsize(coeffs) < 1000
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "twocat.cli", "homology", "--nerve",
         nerve_file, "--deg", "0", "--coeffs", coeffs],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["counterexample"]["clause"] == "axiom-failure"
    assert rep["counterexample"]["detail"] == [
        "the group at %r claims 1000000000000 generators that no matrix "
        "row backs" % x]


# --- opfibration and the spectral sequence ------------------------------------------

def test_opfib_certificate_emitted(run, tmp_path):
    p = write(tmp_path, "id.json",
              tio.two_functor_to_dict(identity_functor(fix_g2())))
    cert_file = str(tmp_path / "cert.json")
    code, out = run(["opfib", "--functor", p, "--emit-cert", cert_file])
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["certified"] is True
    assert json.loads(open(cert_file).read()) == rep["certificate"]
    assert ["*", "i", "i"] in rep["certificate"]["opcartesian_lifts"]


def test_opfib_certificate_replaces_a_file_whole(run, tmp_path):
    # the certificate goes through a temporary file renamed into place: an
    # older, longer file gives way to exactly the certificate's bytes, and
    # a rename that fails leaves it as it was, with no file beside it
    p = write(tmp_path, "id.json",
              tio.two_functor_to_dict(identity_functor(fix_g2())))
    cert_file = tmp_path / "cert.json"
    older = b"older " * 1000
    cert_file.write_bytes(older)
    code, out = run(["opfib", "--functor", p, "--emit-cert", cert_file])
    assert code == 0
    want = tio.dumps(json.loads(out)["report"]["certificate"]).encode()
    assert cert_file.read_bytes() == want
    cert_file.write_bytes(older)

    def failing(*_args):
        raise OSError("the rename fails here")

    with mock.patch.object(os, "replace", failing):
        code, out = run(["opfib", "--functor", p, "--emit-cert", cert_file])
    assert (code, json.loads(out)) == (
        1, {"error": "OSError: the rename fails here"})
    assert cert_file.read_bytes() == older
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cert.json",
                                                          "id.json"]


def test_opfib_certificate_into_a_missing_directory(run, tmp_path):
    # the error names the path asked for, not its temporary file, and no
    # file is left behind
    p = write(tmp_path, "id.json",
              tio.two_functor_to_dict(identity_functor(fix_g2())))
    cert_file = str(tmp_path / "absent" / "cert.json")
    code, out = run(["opfib", "--functor", p, "--emit-cert", cert_file])
    assert (code, json.loads(out)) == (1, {
        "error": "FileNotFoundError: [Errno 2] No such file or directory: "
                 "'%s'" % cert_file})
    assert list(tmp_path.rglob("*.tmp")) == []
    assert [f.name for f in tmp_path.rglob("*")] == ["id.json"]


def test_ss_reports_trusted_range(run, tmp_path):
    _prod, _pr1, pr2 = fix_prod(fix_g2(), fix_c2())
    p = write(tmp_path, "pr2.json", tio.two_functor_to_dict(pr2))
    code, out = run(["ss", "--functor", p, "--pmax", 2, "--qmax", 2,
                     "--fiber-coeffs", 0])
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["trusted"] == {"pmax": 1, "qmax": 1}
    assert [0, 0, "Z + Z"] in rep["E2"]
    assert all(flag for _p, _q, flag in rep["e2_vs_local"])


def test_ss_sees_the_monodromy_of_the_swap(run, tmp_path):
    # BZ/2 swaps the two points of the fiber: E2 row 0 is Z, 0, 0 and
    # agrees with the local-coefficient homology, which identity
    # transition matrices would make Z^2, (Z/2)^2
    p = write(tmp_path, "swap.json",
              tio.two_functor_to_dict(swap_projection()))
    code, out = run(["ss", "--functor", p, "--pmax", 3, "--qmax", 3,
                     "--fiber-coeffs", 0])
    assert code == 0
    rep = json.loads(out)["report"]
    assert [g for _p, q, g in rep["E2"] if q == 0] == ["Z", "0", "0"]
    assert rep["e2_vs_local"] == [[0, 0, True], [1, 0, True], [2, 0, True]]


def test_ss_on_the_crossed_module(run, tmp_path):
    # the fiber's H_2 = Z/3 keeps its columns on the dense route and the
    # free rows take the identity one; the base inverts Z/3, so E2 row 2
    # is 0, 0 and agrees with the local-coefficient homology
    p = write(tmp_path, "xmod.json",
              tio.two_functor_to_dict(xmod_projection()))
    code, out = run(["ss", "--functor", p, "--pmax", 2, "--qmax", 3,
                     "--fiber-coeffs", 2])
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["E1"] == [[0, 0, "Z"], [0, 1, "0"], [0, 2, "Z/3"],
                         [1, 0, "Z + Z"], [1, 1, "0"], [1, 2, "Z/3 + Z/3"]]
    assert rep["E2"] == [[0, 0, "Z"], [0, 1, "0"], [0, 2, "0"],
                         [1, 0, "Z/2"], [1, 1, "0"], [1, 2, "0"]]
    assert rep["e2_vs_local"] == [[0, 2, True], [1, 2, True]]


@pytest.mark.parametrize("name,functor,digest", [
    ("rho-c2", lambda: sinv.rho_projection(
        sinv.s_inv_x(pgm.fix_c2_pgm(), pgm.self_action(pgm.fix_c2_pgm())),
        sinv.s_inv_point(pgm.fix_c2_pgm())),
     "a9432f60b5d7138f4b28b46793f3e07f2fa1c9a931b99b4c16c3b7bcbf6e1d17"),
    ("pr2", lambda: fix_prod(fix_g2(), fix_c2())[2],
     "14fc674fd6ab91e10836a81d7ddbcd58bb79abc8c05560a4d71e69c583b11f4d"),
])
def test_ss_report_bytes_are_pinned(run, tmp_path, monkeypatch, name,
                                    functor, digest):
    # the manifest names the input by the path given, so run where a
    # relative name reaches it
    monkeypatch.chdir(tmp_path)
    f = name + ".json"
    write(tmp_path, f, tio.two_functor_to_dict(functor()))
    code, out = run(["ss", "--functor", f, "--pmax", 3, "--qmax", 3,
                     "--fiber-coeffs", 1])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


@pytest.mark.parametrize("functor,q", [
    (lambda: sinv.rho_projection(
        sinv.s_inv_x(pgm.fix_c2_pgm(), pgm.self_action(pgm.fix_c2_pgm())),
        sinv.s_inv_point(pgm.fix_c2_pgm())), 1),
    (swap_projection, 0),
], ids=["rho-c2", "swap"])
def test_ss_reaches_no_oriental_and_no_cone(run, tmp_path, monkeypatch,
                                            functor, q):
    # the fiber coefficients go by base change, so ss builds no oriental
    # and enumerates no cone of a diagram comma object: both live only in
    # the test-side reference implementation
    p = write(tmp_path, "F.json", tio.two_functor_to_dict(functor()))
    argv = ["ss", "--functor", p, "--pmax", 3, "--qmax", 3,
            "--fiber-coeffs", q]
    report = run(argv)

    def reached(*args, **kwargs):
        raise RuntimeError("reached")
    monkeypatch.setattr(diagram_comma, "_enumerate_cones", reached)
    monkeypatch.setattr(diagram_comma, "materialize_oriental", reached)
    assert run(argv) == report


def test_ss_rejects_an_untrusted_fiber_row_before_building(run, tmp_path,
                                                         monkeypatch):
    # the trusted row is qmax - 1, known from the arguments, so nothing is
    # built; an invalid functor is still reported first
    def reached(*args):
        raise RuntimeError("build_B reached")
    monkeypatch.setattr(specseq, "build_B", reached)
    p = write(tmp_path, "pr2.json",
              tio.two_functor_to_dict(fix_prod(fix_g2(), fix_c2())[2]))
    argv = ["ss", "--functor", p, "--pmax", 4, "--qmax", 4,
            "--fiber-coeffs", 4]
    code, out = run(argv)
    assert code == 1
    assert json.loads(out) == {
        "error": "usage: --fiber-coeffs 4 exceeds the trusted row 3"}
    G2 = fix_g2()
    broken = replace(G2, vcomp={**G2.vcomp, ("e0", "e1"): "e0"})
    argv[2] = write(tmp_path, "bang.json",
                    tio.two_functor_to_dict(bang_functor(broken)))
    code, out = run(argv)
    assert code == 2
    assert json.loads(out)["counterexample"]["clause"] == "axiom-failure"


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("argv", [
    ["gc-check", "--pgm", "m2.json", "--max-deg", "-1"],
    ["ss", "--functor", "pr2.json", "--pmax", "-1"],
    ["ss", "--functor", "pr2.json", "--qmax", "-1"],
    ["nerve", "--input", "g2.json", "--max-dim", "-1"],
    ["ss", "--functor", "pr2.json", "--fiber-coeffs", "-1"],
    ["homology", "--nerve", "g2-nerve.json", "--deg", "-1"],
    ["gc-check", "--pgm", "m2.json", "--trunc", "-1"],
], ids=["max-deg", "pmax", "qmax", "max-dim", "fiber-coeffs", "deg",
        "trunc"])
def test_negative_bound_is_a_usage_error(tmp_path, flags, argv):
    # a negative truncation bound would certify an empty range of degrees
    write(tmp_path, "m2.json", tio.pgm_to_dict(pgm.fix_m2_pgm()))
    write(tmp_path, "pr2.json",
          tio.two_functor_to_dict(fix_prod(fix_g2(), fix_c2())[2]))
    write(tmp_path, "g2.json", tio.two_category_to_dict(fix_g2()))
    write(tmp_path, "g2-nerve.json",
          tio.trunc_sset_to_dict(nerve(fix_g2(), 2)))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "twocat.cli", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert json.loads(proc.stdout) == {
        "error": "usage: %s must be >= 0, got -1" % argv[-2]}


# --- completion subcommands -----------------------------------------------------------

def test_sinv_variants(run, tmp_path):
    p = write(tmp_path, "c2.json", tio.pgm_to_dict(pgm.fix_c2_pgm()))
    code, out = run(["sinv", "--pgm", p])
    assert code == 0
    assert json.loads(out)["report"]["objects"] == 4
    code, out = run(["sinv", "--pgm", p, "--point"])
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["construction"] == "sinv-point" and rep["objects"] == 2
    act = write(tmp_path, "act.json",
                tio.action_to_dict(pgm.self_action(pgm.fix_c2_pgm())))
    code, out = run(["sinv", "--pgm", p, "--action", act])
    assert code == 0
    assert json.loads(out)["report"]["objects"] == 4
    assert run(["sinv", "--pgm", p, "--action", act, "--point"])[0] == 1


def test_gc_check_untrusted_degree_exits_one(run, tmp_path):
    p = write(tmp_path, "c2.json", tio.pgm_to_dict(pgm.fix_c2_pgm()))
    assert run(["gc-check", "--pgm", p, "--max-deg", 2, "--trunc", 2])[0] == 1


def test_gc_check_hypothesis_failure_exits_two(run, tmp_path):
    from twocat.fixtures import fix_g2sat
    P = pgm.fix_c2_pgm()
    p = write(tmp_path, "c2.json", tio.pgm_to_dict(P))
    act = write(tmp_path, "triv.json",
                tio.action_to_dict(trivial_action(P, fix_g2sat())))
    code, out = run(["gc-check", "--pgm", p, "--action", act,
                     "--max-deg", 0, "--trunc", 1])
    assert code == 2
    assert json.loads(out)["counterexample"]["clause"] == "axiom-failure"


def max_with_an_automorphism():
    """{0, 1} under max, with Aut(id_0) = Z/2 = {ii_0, a0} and Aut(id_1)
    trivial: translation by 1 sends both 2-cells of id_0 to ii_1, so it is
    not faithful, and that is the only completion hypothesis it breaks."""
    objects, cells = ["0", "1"], ("ii_0", "a0")
    S = make_two_category(
        objects, {"id_0": ("0", "0"), "id_1": ("1", "1")},
        {"ii_0": ("id_0", "id_0"), "a0": ("id_0", "id_0"),
         "ii_1": ("id_1", "id_1")},
        {"0": "id_0", "1": "id_1"}, {"id_0": "ii_0", "id_1": "ii_1"},
        {("id_0", "id_0"): "id_0", ("id_1", "id_1"): "id_1"},
        {("ii_0", "ii_0"): "ii_0", ("ii_0", "a0"): "a0",
         ("a0", "ii_0"): "a0", ("a0", "a0"): "ii_0",
         ("ii_1", "ii_1"): "ii_1"},
        {**{("id_0", c): c for c in cells}, ("id_1", "ii_1"): "ii_1"},
        {**{(c, "id_0"): c for c in cells}, ("ii_1", "id_1"): "ii_1"})
    lt = {"0": identity_functor(S),
          "1": TwoFunctor(S, S, {x: "1" for x in objects},
                          {f: "id_1" for f in S.one_src},
                          {c: "ii_1" for c in S.two_src})}
    top = {(a, b): max(a, b) for a in objects for b in objects}
    return pgm.PGM(S, "0", top, lt, dict(lt), {},
                   {k: "id_" + v for k, v in top.items()})


def idempotent_monoid():
    """The one-object PGM of the monoid {1, x} with x . x = x, identity
    2-cells only, sigma(x, x) = 1_x and the identity symmetry: a valid PGM
    whose 2-cells are invertible and whose translations are faithful, but
    x has no quasi-inverse, so the carrier is no 2-groupoid."""
    one = {"id": ("*", "*"), "x": ("*", "*")}
    comp = {(g, f): "id" if g == f == "id" else "x" for g in one for f in one}
    S = make_two_category(
        ["*"], one, {"1_id": ("id", "id"), "1_x": ("x", "x")},
        {"*": "id"}, {"id": "1_id", "x": "1_x"}, comp,
        {("1_" + f, "1_" + f): "1_" + f for f in one},
        {(k, "1_" + f): "1_" + comp[(k, f)] for k in one for f in one},
        {("1_" + f, k): "1_" + comp[(f, k)] for k in one for f in one})
    ident = identity_functor(S)
    return pgm.PGM(S, "*", {("*", "*"): "*"}, {"*": ident}, {"*": ident},
                   {("x", "x"): "1_x"}, {("*", "*"): "id"})


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("make,failure", [
    (pgm.fix_g2sat_pgm, "hypothesis-2-cell-not-invertible at ('e1',)"),
    (max_with_an_automorphism,
     "hypothesis-translation-not-faithful at ('1', 'a0', 'ii_0')"),
    (idempotent_monoid, "hypothesis-1-cell-not-equivalence at ('x',)")],
    ids=["two-groupoid", "faithful", "equivalence"])
def test_gc_check_names_the_failing_hypothesis(tmp_path, flags, make,
                                               failure):
    # run as `python [-O] -m twocat.cli`: the gate is no assert
    pgm.validate_pgm(make())
    p = write(tmp_path, "pgm.json", tio.pgm_to_dict(make()))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "twocat.cli", "gc-check", "--pgm", p,
         "--max-deg", "1", "--trunc", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["counterexample"] == {
        "clause": "axiom-failure",
        "detail": ["completion hypotheses fail: " + failure]}


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_gc_check_rejects_a_broken_action(tmp_path, flags):
    # an action other than the monoid's own is validated on its own: one
    # value of the action on objects disagrees with both translations
    P = pgm.fix_c2_pgm()
    d = tio.action_to_dict(pgm.self_action(P))
    assert d["act"][0] == ["0", "0", "0"]
    d["act"][0][2] = "1"
    p = write(tmp_path, "c2.json", tio.pgm_to_dict(P))
    act = write(tmp_path, "act.json", d)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twocat.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "twocat.cli", "gc-check", "--pgm", p,
         "--action", act, "--max-deg", "1", "--trunc", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["counterexample"] == {
        "clause": "axiom-failure",
        "detail": ["action translation agreement at ('0', '0')"]}


# --- dualize ---------------------------------------------------------------------------

def test_dualize_involution(run, tmp_path):
    p = write(tmp_path, "i.json", tio.two_category_to_dict(fix_i()))
    code, out = run(["dualize", p, "--which", "op"])
    assert code == 0
    once = json.loads(out)["report"]["category"]
    q = write(tmp_path, "i_op.json", once)
    code, out = run(["dualize", q, "--which", "op"])
    assert json.loads(out)["report"]["category"] == \
        tio.two_category_to_dict(fix_i())
