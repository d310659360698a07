#!/usr/bin/env python3
"""Regenerate the frozen data files (theta's entry table, the
restriction conjugator T and the extreme sample's separating
functionals) and report whether anything changed.

This is the one place theta's table is read off PAPER.md's displayed
matrix, and T and the functionals are solved for and written out, row
per line with tab-separated rationals (Matrix.from_text reads them
back); heiscert only checks the shipped copies.  With --check, exit
nonzero instead of rewriting when a regenerated file differs from the
shipped copy.
"""

import argparse
import re
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from heiscert.convexity import (EXTREME_SAMPLE,  # noqa: E402
                                ORBIT_LIFT, OrbitSample,
                                extreme_point_certificate, sample_orbit)
from heiscert.heis import (DATA_DIR, ENTRY_RING,  # noqa: E402
                           get_representation)
from heiscert.linalg import Matrix  # noqa: E402
from heiscert.poly import Poly  # noqa: E402
from heiscert.rationals import format_rational  # noqa: E402
from heiscert.restriction import (AMBIENT_DIM,  # noqa: E402
                                  FREE_COORDINATES, subspace_equations)


THETA_HEADER = """\
# 10x10 unit upper-triangular entry table in a, b, c.
# Format: row col polynomial (1-based); omitted entries are 0 off the
# diagonal and 1 on it.
"""


def read_entry(text: str) -> Poly:
    """One displayed matrix entry as a Poly in a, b, c: sums and
    differences of products, a product written as juxtaposition or "*",
    with "^" powers, parentheses and "/" by an integer."""
    tokens = re.findall(r"\d+|\S", text)[::-1]

    def peek() -> str:
        return tokens[-1] if tokens else ""

    def take() -> str:
        if not tokens:
            raise ValueError(f"{text!r} ends too soon")
        return tokens.pop()

    def expr() -> Poly:
        value = product()
        while peek() in ("+", "-"):
            value = value + product() if take() == "+" \
                else value - product()
        return value

    def product() -> Poly:
        value = power()
        while peek() not in ("", "+", "-", ")"):
            if peek() == "/":
                take()
                value = value * Fraction(1, int(take()))
            else:
                if peek() == "*":
                    take()
                value = value * power()
        return value

    def power() -> Poly:
        value = atom()
        if peek() == "^":
            take()
            value = value ** int(take())
        return value

    def atom() -> Poly:
        token = take()
        if token == "(":
            value = expr()
            if take() != ")":
                raise ValueError(f"unbalanced parenthesis in {text!r}")
            return value
        if token.isdigit():
            return ENTRY_RING.const(int(token))
        if token not in ENTRY_RING.names:
            raise ValueError(f"cannot read {token!r} in {text!r}")
        return ENTRY_RING.var(token)

    value = expr()
    if tokens:
        raise ValueError(f"cannot read {text!r}")
    return value


def derive_theta_table(paper: str) -> str:
    """theta.rep from the 10x10 matrix PAPER.md displays after
    "=\\bpmat": its cells split on "&", the "{\\color{red} ...}"
    wrapper dropped.  The row breaks were stripped from the LaTeX, so
    the cell that ends each row but the last, "x 0", is split in two:
    every later row starts with its 0 below the diagonal."""
    body = paper.split("=\\bpmat", 1)[1].split("\\end{pmatrix}", 1)[0]
    body = re.sub(r"\{\\color\{red\}([^{}]*)\}", r"\1", body)
    cells = []
    for cell in body.split("&"):
        if len(cells) % 10 == 9 and len(cells) < 99:
            cells += cell.rsplit(None, 1)
        else:
            cells.append(cell)
    if len(cells) != 100:
        raise ValueError(f"PAPER.md's theta has {len(cells)} entries, "
                         "not 100")
    lines = [f"{i // 10 + 1} {i % 10 + 1} {p}\n"
             for i, p in enumerate(map(read_entry, cells))
             if not (p.is_one() if i % 11 == 0 else p.is_zero())]
    return THETA_HEADER + "".join(lines)


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
    return {
        "theta.rep": derive_theta_table((ROOT / "PAPER.md").read_text()),
        "restriction_T.tsv": to_text(derive_conjugator()),
        "extreme_functionals.tsv": to_text(derive_functionals(
            sample_orbit(*EXTREME_SAMPLE))),
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
