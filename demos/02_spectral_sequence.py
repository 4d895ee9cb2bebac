"""The homology spectral sequence of an opfibration.

For an opfibration P: E -> B the bisimplicial set B(P) interpolates
between the nerve of E (its totalization) and the nerve of B with local
coefficients in the fiber homology (its E2 page).  This demo builds both
identifications for the product projection G2 x C2 -> C2 and prints the
pages with their trusted window.
"""

from twocat import homology as hm
from twocat import opfib as of
from twocat import specseq as ss
from twocat.fixtures import fix_c2, fix_g2, fix_prod
from twocat.nerve import nerve


def main():
    prod, _pr1, pr2 = fix_prod(fix_g2(), fix_c2())
    B = ss.build_B(pr2, 3, 3)
    assert ss.check_bisimplicial(B)
    sizes = {k: len(v) for k, v in sorted(B.levels.items())}
    print("bisimplicial levels:", sizes)

    pg = ss.pages(B)
    tp, tq = pg.trusted
    print(f"trusted window: p <= {tp}, q <= {tq}")
    for name, page in (("E1", pg.E1), ("E2", pg.E2)):
        print(name)
        for q in range(tq, -1, -1):
            row = "  ".join(f"{str(page[(p, q)]):>10}"
                            for p in range(tp + 1))
            print(f"  q={q}  {row}")

    X = nerve(prod, 3)
    print("totalization vs nerve of the total 2-category:")
    for n in range(3):
        tot = ss.totalization_homology(B, n)
        hx = hm.homology(X, n)
        print(f"  degree {n}: {tot} == {hx}")
        assert tot == hx

    cert = of.check_opfibration(pr2)
    print("E2 vs local-coefficient homology of the base:")
    for q in range(3):
        flags = ss.e2_vs_local(pg, cert, q)
        print(f"  q={q}: {flags}")
        assert all(flags)


if __name__ == "__main__":
    main()
