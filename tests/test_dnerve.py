"""The double nerve's own checks: it lists exactly the cells a brute-force
search finds nondegenerate, a face or an image that is no cell is named,
and the homology it gives is invariant under the three dualities
of a 2-category, as the oplax nerve's is (B(C^op), B(C^co) and B(C^coop)
are homotopy equivalent to B(C): Bullejos & Cegarra 2003).  That the two
nerves agree is acceptance criterion 10, and that the group-completion
check gives the oplax route's report is in ``test_sinv.py``."""

from itertools import product

import pytest

from twocat import dnerve, pgm, sinv
from twocat.core import (AxiomError, co_dual, coop_dual, identity_functor,
                         op_dual)
from twocat.fixtures import fix_c2, fix_g2, fix_g2sat, fix_i, fix_prod
from twocat.homology import homology_subquotient
from twocat.nerve import nerve


def brute_force_cells(D, n):
    """Every cell of degree n nondegenerate in both directions: each string
    of objects, each choice of q-simplex per factor, then the filter."""
    if n == 0:
        return list(D.objects)
    cells = []
    for p in range(1, n + 1):
        q = n - p
        for xs in product(D.objects, repeat=p + 1):
            homs = []
            for x, y in zip(xs, xs[1:]):
                chains = [(f,) for f in D.hom1(x, y)]
                for _ in range(q):
                    chains = [c + (a,) for c in chains for a in D.two_src
                              if D.two_src[a] == (D.two_tgt[c[-1]]
                                                  if len(c) > 1 else c[0])]
                homs.append(chains)
            for cell in product(*homs):
                if not any(D.is_id1(fac[0]) and all(map(D.is_id2, fac[1:]))
                           for fac in cell) and \
                        not any(all(D.is_id2(fac[j]) for fac in cell)
                                for j in range(1, q + 1)):
                    cells.append(cell)
    return cells


@pytest.mark.parametrize("make", [
    fix_g2, fix_i, lambda: fix_prod(fix_g2(), fix_c2())[0],
    lambda: sinv.s_inv_x(pgm.fix_m2_pgm(), pgm.self_action(
        pgm.fix_m2_pgm())).cat],
    ids=["G2", "I", "G2xC2", "S^-1 M2"])
def test_total_complex_lists_exactly_the_nondegenerate_cells(make):
    D = make()
    basis, _ = dnerve.total_complex(D, 4)
    for n, cells in enumerate(basis):
        assert len(set(cells)) == len(cells)
        assert sorted(cells) == sorted(brute_force_cells(D, n)), n


def test_double_nerve_names_a_face_that_is_no_cell(monkeypatch):
    # G2's one degree-2 cell (i; e1) is d^v_0 of the degree-3 cell
    # (i; e1, e1): dropped from the list, it is neither listed nor
    # degenerate
    cells = dnerve._cells
    monkeypatch.setattr(dnerve, "_cells", lambda D, factors, n:
                        cells(D, factors, n)[:-1] if n == 2
                        else cells(D, factors, n))
    with pytest.raises(AxiomError, match="face .* is no cell"):
        dnerve.homology(fix_g2(), [2])


def test_double_nerve_names_an_image_that_is_no_cell():
    # the identity of G2 carries (i; e1) to itself, which a record without
    # it does not list
    G2 = fix_g2()
    H, = dnerve.homology(G2, [2])
    assert len(H.basis) == 1
    with pytest.raises(AxiomError, match="image .* is no cell"):
        dnerve.induced(identity_functor(G2), H, H._replace(row={}))


@pytest.mark.parametrize("make", [
    fix_g2, fix_g2sat, fix_i, lambda: fix_prod(fix_g2(), fix_c2())[0]],
    ids=["G2", "G2sat", "I", "G2xC2"])
def test_duals_have_the_same_homology(make):
    C = make()
    want = None
    for D in (C, op_dual(C), co_dual(C), coop_dual(C)):
        double = [str(H.sq.group) for H in dnerve.homology(D, range(4))]
        oplax = [str(H.sq.group)
                 for H in homology_subquotient(nerve(D, 4), range(4))]
        want = want or double
        assert double == oplax == want
