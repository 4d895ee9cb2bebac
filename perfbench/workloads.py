"""The benchmark's workloads: seeded inputs, job lists and output checks.

Every input is an isomorphic copy of a library fixture.  The seed draws a
bijective renaming of every object, 1-cell and 2-cell id to a random
fixed-width string, so expected answers and the size of every file do not
depend on the seed.  A workload is a list of CLI jobs (argv lists run
through ``twocat.cli.main`` in-process) plus the check of each job's
stdout.
"""

from __future__ import annotations

import json
import os
import random
import string

ID_WIDTH = 8
ID_ALPHABET = string.ascii_lowercase + string.digits


def renaming(ids, rng: random.Random) -> dict:
    """A bijection from ``ids`` to distinct random fixed-width strings."""
    out, used = {}, set()
    for old in sorted(ids):
        new = "".join(rng.choice(ID_ALPHABET) for _ in range(ID_WIDTH))
        while new in used:
            new = "".join(rng.choice(ID_ALPHABET) for _ in range(ID_WIDTH))
        used.add(new)
        out[old] = new
    return out


def _strings(obj, acc: set) -> set:
    """Every string value (not dict key) in an interchange dict.  In the
    2-category, 2-functor and monoid schemas these are exactly the ids."""
    if isinstance(obj, str):
        acc.add(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            _strings(v, acc)
    elif isinstance(obj, list):
        for v in obj:
            _strings(v, acc)
    return acc


def _rename(obj, ren: dict):
    if isinstance(obj, str):
        return ren[obj]
    if isinstance(obj, dict):
        return {k: _rename(v, ren) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rename(v, ren) for v in obj]
    return obj


def renamed_copy(d: dict, rng: random.Random):
    """(renamed interchange dict, renaming) for a fixture's dict."""
    ren = renaming(_strings(d, set()), rng)
    return _rename(d, ren), ren


# ---------------------------------------------------------------------------
# the three workloads
# ---------------------------------------------------------------------------

class Workload:
    """A workload provides ``make_input(rng)`` -> (file name, JSON text,
    renaming), run after ``twocat`` is imported; ``jobs(path)`` -> argv
    lists; ``check(i, outs, renaming)`` -> None or why job i's stdout
    ``outs[i]`` is wrong.  ``cache`` says whether ``TWOCAT_CACHE_DIR``
    points at a fresh directory each pass; ``INPUT_BYTES`` is the size of
    the input file, the same for every seed."""

    name = ""
    cache = False
    INPUT_BYTES = 0


def _report(out: str) -> dict:
    return json.loads(out)["report"]


def _expect(got, want, what):
    if got != want:
        return "%s: got %r, want %r" % (what, got, want)
    return None


class NerveHomology(Workload):
    """G2 x C2: nerve to dimension 5 through the nerve cache (miss, then
    hit), then integral homology of the saved nerve in degrees 0..4."""

    name = "nerve-homology"
    cache = True
    NERVE = "X.json"
    LEVELS = [2, 2, 4, 16, 128, 2048]
    NONDEGENERATE = [2, 0, 2, 8, 82, 1536]
    GROUPS = ["Z + Z", "0", "Z/2 + Z/2", "0", "Z/4 + Z/4"]
    INPUT_BYTES = 1578
    NERVE_BYTES = 23316647

    def make_input(self, rng):
        from twocat import io as tio
        from twocat.core import validate_two_category
        from twocat.fixtures import fix_c2, fix_g2, fix_prod
        prod, _pr1, _pr2 = fix_prod(fix_g2(), fix_c2())
        d, ren = renamed_copy(tio.two_category_to_dict(prod), rng)
        C = validate_two_category(tio.two_category_from_dict(d))
        return "G2xC2.json", tio.dumps(tio.two_category_to_dict(C)), ren

    def jobs(self, path):
        nerve = ["nerve", "--input", path, "--max-dim", "5",
                 "--out", self.NERVE]
        return [nerve, list(nerve)] + [
            ["homology", "--nerve", self.NERVE, "--deg", str(n)]
            for n in range(5)]

    def check(self, i, outs, ren):
        rep = _report(outs[i])
        if i == 1 and outs[1] != outs[0]:
            return "warm (cached) nerve report differs from the cold one"
        if i < 2:
            return (_expect(rep["levels"], self.LEVELS, "levels")
                    or _expect(rep["nondegenerate"], self.NONDEGENERATE,
                               "nondegenerate")
                    or _expect(os.path.getsize(self.NERVE), self.NERVE_BYTES,
                               "nerve file bytes"))
        return _expect(rep["group"], self.GROUPS[i - 2], "H_%d" % (i - 2))


class SpectralSequence(Workload):
    """rho-c2, the projection of the C2 monoid's self-completion onto its
    point completion: pages to (3, 3) and E2 against local coefficients
    in fiber degree 1."""

    name = "spectral-sequence"
    TRUSTED = {"pmax": 2, "qmax": 2}
    E1_ROW0 = ["Z + Z + Z + Z", "Z + Z + Z + Z + Z + Z + Z + Z",
               " + ".join(["Z"] * 16)]
    INPUT_BYTES = 7369

    def make_input(self, rng):
        from twocat import io as tio
        from twocat import pgm, sinv
        from twocat.core import (validate_two_category,
                                 validate_two_functor)
        P = pgm.fix_c2_pgm()
        rho = sinv.rho_projection(sinv.s_inv_x(P, pgm.self_action(P)),
                                  sinv.s_inv_point(P))
        d, ren = renamed_copy(tio.two_functor_to_dict(rho), rng)
        F = tio.two_functor_from_dict(d)
        validate_two_category(F.source)
        validate_two_category(F.target)
        validate_two_functor(F)
        return "rho-c2.json", tio.dumps(tio.two_functor_to_dict(F)), ren

    def jobs(self, path):
        return [["ss", "--functor", path, "--pmax", "3", "--qmax", "3",
                 "--fiber-coeffs", "1"]]

    def check(self, i, outs, ren):
        rep = _report(outs[i])
        e1 = [[p, q, self.E1_ROW0[p] if q == 0 else "0"]
              for p in range(3) for q in range(3)]
        e2 = [[p, q, "Z + Z" if (p, q) == (0, 0) else "0"]
              for p in range(3) for q in range(3)]
        return (_expect(rep["trusted"], self.TRUSTED, "trusted window")
                or _expect(rep["E1"], e1, "E1")
                or _expect(rep["E2"], e2, "E2")
                or _expect(rep["e2_vs_local"], [[p, 1, True]
                                                for p in range(3)],
                           "e2_vs_local"))


class GroupCompletion(Workload):
    """M2, the max monoid on {0, 1}: degreewise group-completion check of
    its self-action up to degree 5 at truncation 6."""

    name = "group-completion"
    INPUT_BYTES = 2099

    def make_input(self, rng):
        from twocat import io as tio
        from twocat import pgm
        d, ren = renamed_copy(tio.pgm_to_dict(pgm.fix_m2_pgm()), rng)
        P = pgm.validate_pgm(tio.pgm_from_dict(d))
        return "M2.json", tio.dumps(tio.pgm_to_dict(P)), ren

    def jobs(self, path):
        return [["gc-check", "--pgm", path, "--max-deg", "5",
                 "--trunc", "6"]]

    def check(self, i, outs, ren):
        rep = _report(outs[i])
        degrees = {"0": {"iso": True, "source": "Z + Z", "localized": "Z",
                         "target": "Z"}}
        for q in range(1, 6):
            degrees[str(q)] = {"iso": True, "source": "0",
                               "localized": "0", "target": "0"}
        return (_expect(rep["all_iso"], True, "all_iso")
                or _expect(rep["degrees"], degrees, "degrees")
                or _expect(sorted(rep["monoid"]["elements"]),
                           sorted([ren["0"], ren["1"]]), "elements")
                or _expect(rep["monoid"]["unit"], ren["0"], "unit"))


WORKLOADS = {w.name: w for w in (NerveHomology(), SpectralSequence(),
                                 GroupCompletion())}
