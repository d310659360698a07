"""Exact rational linear programming: Phase-I simplex with Bland's rule.

Only feasibility of equality systems {Ax = b, x >= 0} is needed here (it
decides convex-combination membership).  Each column of [A | b] is
scaled once to integers by the lcm of its own denominators.  The simplex
is the revised one (Dantzig and Orchard-Hays, MTAC 8, 1954): only the
basis-inverse block and the rhs are pivoted, with the fraction-free step
of linalg (Edmonds' integer-preserving pivoting), and a structural
column is priced from them on demand.  The ratio test cross-multiplies
ints.  Bland's smallest-index rule guarantees termination.  On an
infeasible system the final multipliers give a Farkas functional y with
y.b > 0 and y.A <= 0, which is verified in integer arithmetic before
being returned so the caller gets a self-checking witness."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .linalg import _integer_copy, eliminate
from .rationals import to_fraction


@dataclass
class FeasibilityResult:
    feasible: bool
    # A feasible nonnegative solution when feasible.
    solution: Optional[list[Fraction]]
    # A verified Farkas certificate (y.A <= 0, y.b > 0) when infeasible.
    farkas: Optional[list[Fraction]]


def solve_equality_feasibility(matrix: Sequence[Sequence[Fraction]],
                               rhs: Sequence[Fraction]) -> FeasibilityResult:
    """Decide whether Ax = b has a solution with x >= 0."""
    m = len(matrix)
    if m == 0:
        return FeasibilityResult(True, [], None)
    n = len(matrix[0])
    if any(len(row) != n for row in matrix) or len(rhs) != m:
        raise ValueError("inconsistent system shape")

    # Column j of [A | b] is cleared by its own lcm c_j (c_b for b).  A
    # positive column scale flips no reduced cost and scales every ratio
    # of one ratio test alike, so Bland's rule picks the same bases.  A
    # row with b < 0 is negated so the artificial basis is feasible; the
    # flips are remembered to recover multipliers for the original rows.
    columns, scales = _integer_copy(
        [[to_fraction(x) for x in column] for column in (*zip(*matrix), rhs)])
    flipped = [v < 0 for v in columns[-1]]
    signed = [[-x if flip else x for x, flip in zip(column, flipped)]
              for column in columns]

    # Of the tableau [A' | I | b'] (A' the signed, cleared A) each row
    # keeps only its m artificial entries and its rhs.  Row m is the
    # Phase-I cost row: the sum of the rows, less 1 on each artificial.
    # Pivots combine whole rows, so row i stays U[i] times the starting
    # tableau, U[i] its artificial entries, and the cost row u times it
    # less d[m] on the artificials (1 at the start, p after each update
    # of the row), u[k] = cost[k] + d[m]; a structural entry is the dot
    # product of those multipliers with a column of A'.
    tableau = [[int(i == k) for k in range(m)] + [b]
               for i, b in enumerate(signed[-1])]
    tableau.append([0] * m + [sum(signed[-1])])
    basis = [n + i for i in range(m)]

    # Rows are scaled lazily (see linalg.eliminate): row i's exact row is
    # tableau[i] * prev // d[i], and any positive scale of a row cancels
    # from every read of it.  Pivots are positive, so every d[i] is too
    # and signs can be read off directly.
    d = [1] * (m + 1)
    prev = 1
    # In exact arithmetic Bland's rule never returns to a basis, so a
    # repeat can only come from an arithmetic defect: raise, not cycle.
    visited = {tuple(basis)}
    while True:
        cost = tableau[m]
        # Bland: entering column is the smallest index with positive
        # reduced cost (we are driving the artificial sum down to 0);
        # structural columns are priced only up to the first one.
        prices = [x + d[m] for x in cost[:m]]
        for entering, a in enumerate(signed[:n]):
            reduced = sum(map(mul, prices, a))
            if reduced > 0:
                column = [sum(map(mul, row, a)) for row in tableau[:m]]
                column.append(reduced)
                break
        else:
            entering = next((k for k in range(m) if cost[k] > 0), None)
            if entering is None:
                break
            column = [row[entering] for row in tableau]
            entering += n
        # Bland: among minimum-ratio rows pick the one whose basic
        # variable has the smallest index.  With both coefficients
        # positive, b_i / a_i < b_k / a_k is b_i a_k < b_k a_i on the
        # ints; a row's divisor cancels from its own ratio.
        row = None
        for i in range(m):
            coeff = column[i]
            if coeff > 0:
                b = tableau[i][m]
                if row is not None:
                    left, right = b * best_coeff, best_b * coeff
                    if left > right or (left == right
                                        and basis[i] > basis[row]):
                        continue
                row, best_b, best_coeff = i, b, coeff
        if row is None:
            raise RuntimeError("phase-I objective is bounded by construction")
        # The entering column rides along as a temporary last entry.
        for stored, x in zip(tableau, column):
            stored.append(x)
        prev = eliminate(tableau, d, row, m + 1,
                         (i for i in range(m + 1) if i != row), prev)
        for stored in tableau:
            stored.pop()
        basis[row] = entering
        if tuple(basis) in visited:
            raise RuntimeError("simplex revisited a basis")
        visited.add(tuple(basis))

    # The artificial sum is 0 iff every basic artificial sits at 0.
    if all(tableau[i][m] == 0 for i in range(m) if basis[i] >= n):
        # x' solves A'x' = b' = c_b b, so x_j = c_j x'_j / c_b.
        solution = [Fraction(0)] * n
        for row, var in zip(tableau, basis):
            if var < n:
                solution[var] = Fraction(scales[var] * row[m], scales[-1]
                                         * sum(map(mul, row, signed[var])))
        return FeasibilityResult(True, solution, None)

    # Multipliers: at optimality, y_i = (reduced cost of artificial i) + 1,
    # read off the cost row through its divisor d[m]; after the sign
    # flips y certifies y.A <= 0 and y.b > 0 for the original system.
    y = [Fraction(x + d[m], -d[m] if flip else d[m])
         for x, flip in zip(cost, flipped)]
    _verify_farkas(columns, y)
    return FeasibilityResult(False, None, y)


def _verify_farkas(columns, y) -> None:
    """Check y.b > 0 and y.A <= 0 in integer arithmetic, for columns the
    int columns of [A | b], each cleared by its own positive scale.

    y is scaled by the lcm of its denominators, so every integer dot
    product has the sign of the rational one and the check is no weaker.
    """
    (y,), _ = _integer_copy([y])
    dots = [sum(map(mul, y, column)) for column in columns]
    if dots[-1] <= 0:
        raise AssertionError("Farkas witness failed: y.b <= 0")
    if any(v > 0 for v in dots[:-1]):
        raise AssertionError("Farkas witness failed: y.A has a positive entry")


def convex_combination_weights(points: Sequence[Sequence[Fraction]],
                               target: Sequence[Fraction]) -> FeasibilityResult:
    """Is target a convex combination of the given points?

    Solves sum_j w_j * points[j] = target, sum_j w_j = 1, w >= 0.  The
    returned solution holds the weights; the Farkas functional, when
    infeasible, is a separating affine functional.
    """
    dim = len(target)
    if any(len(p) != dim for p in points):
        raise ValueError("point dimension mismatch")
    matrix = [[p[i] for p in points] for i in range(dim)]
    matrix.append([Fraction(1)] * len(points))
    return solve_equality_feasibility(matrix, [*target, Fraction(1)])
