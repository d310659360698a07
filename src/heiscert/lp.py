"""Exact rational linear programming: Phase-I simplex with Bland's rule.

Only feasibility of equality systems {Ax = b, x >= 0} is needed here (it
decides convex-combination membership).  Each row of the tableau is
scaled once to integers by the lcm of its own denominators and then
pivoted with the fraction-free step of linalg (Edmonds' integer-preserving
pivoting); a positive row scale cancels from every ratio and flips no
sign, so the pivots are those of a tableau over one common denominator.
The ratio test cross-multiplies ints.  Bland's smallest-index rule
guarantees termination.  On an infeasible system the final multipliers
give a Farkas functional y with y.b > 0 and y.A <= 0, which is verified
in integer arithmetic before being returned so the caller gets a
self-checking witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .linalg import _integer_copy, clear_denominators, eliminate
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
    rows = [[to_fraction(x) for x in row] + [to_fraction(v)]
            for row, v in zip(matrix, rhs)]

    # Tableau columns: n structural, then m artificial, then rhs; row m
    # is the Phase-I cost row.  Row i of [A | b] is cleared of
    # denominators by its own lcm r_i and then kept integral by
    # fraction-free pivots, so artificial column i carries r_i in row i.
    # A row with b < 0 is negated so the artificial basis is feasible;
    # the flips are remembered to recover multipliers for the original
    # rows.
    ints, scales = _integer_copy(rows)
    scale = lcm(*scales)
    flipped = [row[-1] < 0 for row in ints]
    tableau = []
    for i, (row, flip, r) in enumerate(zip(ints, flipped, scales)):
        row = [-x for x in row] if flip else row
        tableau.append(row[:-1] + [r if j == i else 0
                                   for j in range(m)] + row[-1:])
    basis = [n + i for i in range(m)]

    # Reduced costs of minimizing the sum of artificials (artificial
    # columns carry cost 1), brought to the common scale L = lcm r_i:
    # the sum of the rows, row i taken L / r_i times, less L on each
    # artificial column.
    factors = [scale // r for r in scales]
    cost = [sum(f * row[j] for f, row in zip(factors, tableau))
            for j in range(n + m + 1)]
    for i in range(m):
        cost[n + i] -= scale
    tableau.append(cost)

    # Rows are scaled lazily (see linalg.eliminate): row i's exact row is
    # tableau[i] * prev // d[i], and it stands for that row divided by its
    # basic entry, so any positive scale of the row, r_i included, cancels
    # from every read of one row.  The cost row stands for
    # tableau[m] / (L * d[m]).  Pivots are positive, so every d[i] is too
    # and signs can be read off directly.
    d = [1] * (m + 1)
    prev = 1
    # In exact arithmetic Bland's rule never returns to a basis, so a
    # repeat can only come from an arithmetic defect: raise, not cycle.
    visited = {tuple(basis)}
    while True:
        cost = tableau[m]
        # Bland: entering column is the smallest index with positive
        # reduced cost (we are driving the artificial sum down to 0).
        entering = next((j for j in range(n + m) if cost[j] > 0), None)
        if entering is None:
            break
        # Bland: among minimum-ratio rows pick the one whose basic
        # variable has the smallest index.  With both coefficients
        # positive, b_i / a_i < b_k / a_k is b_i a_k < b_k a_i on the
        # ints; a row's divisor cancels from its own ratio.
        row = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                b = tableau[i][-1]
                if row is not None:
                    left, right = b * best_coeff, best_b * coeff
                    if left > right or (left == right
                                        and basis[i] > basis[row]):
                        continue
                row, best_b, best_coeff = i, b, coeff
        if row is None:
            raise RuntimeError("phase-I objective is bounded by construction")
        prev = eliminate(tableau, d, row, entering,
                         (i for i in range(m + 1) if i != row), prev)
        basis[row] = entering
        if tuple(basis) in visited:
            raise RuntimeError("simplex revisited a basis")
        visited.add(tuple(basis))

    # The artificial sum is 0 iff every basic artificial sits at 0.
    if all(tableau[i][-1] == 0 for i in range(m) if basis[i] >= n):
        solution = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                solution[var] = Fraction(tableau[i][-1], tableau[i][var])
        return FeasibilityResult(True, solution, None)

    # Multipliers: at optimality, y_i = (reduced cost of artificial i) + 1,
    # read off the cost row brought to L through its divisor d[m];
    # after the sign flips y certifies y.A <= 0 and y.b > 0 for the
    # original system.
    y = [Fraction(cost[n + i], scale * d[m]) + 1 for i in range(m)]
    y = [-v if flip else v for v, flip in zip(y, flipped)]
    _verify_farkas(rows, y)
    return FeasibilityResult(False, None, y)


def _verify_farkas(rows, y) -> None:
    """Check y.b > 0 and y.A <= 0 in integer arithmetic, for rows the
    rational rows of [A | b].

    y is scaled by the lcm of its denominators and [A | b] by one common
    denominator.  Both scales are positive, so every integer dot product
    has the sign of the rational one and the check is no weaker.
    """
    (y,), _ = clear_denominators([y])
    rows, _ = clear_denominators(rows)
    dots = [sum(f * x for f, x in zip(y, col)) for col in zip(*rows)]
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
