#!/usr/bin/env python3
"""Regenerate the frozen data files (the restriction conjugator T, the
default orbit samples and the extreme sample's separating functionals)
and report whether anything changed.

This is the one place T and the functionals are solved for and written
out, row per line with tab-separated rationals (Matrix.from_text reads
them back); heiscert only checks the shipped copies.  With --check, exit
nonzero instead of rewriting when a regenerated file differs from the
shipped copy.
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from heiscert.convexity import (ORBIT_LIFT,  # noqa: E402
                                OrbitSample, extreme_point_certificate,
                                sample_orbit)
from heiscert.heis import DATA_DIR, get_representation  # noqa: E402
from heiscert.linalg import Matrix  # noqa: E402
from heiscert.rationals import format_rational  # noqa: E402
from heiscert.restriction import (AMBIENT_DIM,  # noqa: E402
                                  FREE_COORDINATES, subspace_equations)


def derive_conjugator() -> Matrix:
    """The constant change of basis T with induced(g) = T theta(g) T^-1.

    T is pinned by matching orbits: the subspace coordinates of the
    14-dimensional orbit must equal T applied to the 10-dimensional
    orbit.  Componentwise this is a linear solve in the monomial
    coefficients of the two orbit polynomial tuples.
    """
    # The symbolic 14-dimensional orbit of the base point e6 + e10 + e14.
    base = [Fraction(int(i in (6, 10, 14))) for i in range(1, AMBIENT_DIM + 1)]
    lift14 = get_representation("rho14").table.apply(base)
    if not all(p.is_zero() for p in subspace_equations().apply(lift14)):
        raise ValueError("the orbit is not in the invariant subspace")

    polys = ORBIT_LIFT + tuple(lift14[f - 1] for f in FREE_COORDINATES)
    monomials = sorted({e for p in polys for e in p.terms})
    # T A = Y row by row is A^T T^T = Y^T: one rref of the K x 20
    # system [A^T | Y^T], one row per monomial.  Pivots exactly in the
    # first n columns mean A^T has full column rank and the system is
    # consistent; T^T is then the top n rows of the right half.
    n = len(ORBIT_LIFT)
    reduced, pivots = Matrix([[p.terms.get(e, Fraction(0)) for p in polys]
                              for e in monomials]).rref()
    if pivots != list(range(n)):
        raise ValueError("the orbit lifts do not determine T")
    return Matrix([[reduced[j, n + i] for j in range(n)] for i in range(n)])


def derive_functionals(sample: OrbitSample) -> Matrix:
    """One row per sample point: its a, b, c, then the functional that
    the exact LP finds separating it from the other points."""
    rows = []
    for index, point in enumerate(sample.parameters):
        extreme, functional = extreme_point_certificate(sample, index)
        if not extreme:
            raise ValueError(f"sample point {point} is not extreme")
        rows.append([*point, *functional])
    return Matrix(rows)


def to_text(m: Matrix) -> str:
    """Row-per-line, tab-separated rational entries."""
    return "".join("\t".join(map(format_rational, row)) + "\n"
                   for row in m.entries)


def regenerate() -> dict[str, str]:
    extreme = sample_orbit(20, 0, "extreme", nonzero=True)
    return {
        "restriction_T.tsv": to_text(derive_conjugator()),
        "hull_sample.csv": sample_orbit(10, 0, "hull").to_csv(),
        "extreme_sample.csv": extreme.to_csv(),
        "extreme_functionals.tsv": to_text(derive_functionals(extreme)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="diff against the shipped copies, do not write")
    args = parser.parse_args()

    changed = []
    for name, text in regenerate().items():
        path = DATA_DIR / name
        current = path.read_text() if path.exists() else None
        if current != text:
            changed.append(name)
            if not args.check:
                path.write_text(text)
    if args.check:
        if changed:
            print(f"stale: {', '.join(changed)}")
            return 1
        print("all frozen files match their derivations")
        return 0
    print(f"rewrote {len(changed)} file(s)" if changed
          else "all frozen files already current")
    return 0


if __name__ == "__main__":
    sys.exit(main())
