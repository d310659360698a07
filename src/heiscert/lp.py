"""Exact rational linear programming: Phase-I simplex with Bland's rule.

Only feasibility of equality systems {Ax = b, x >= 0} is needed here (it
decides convex-combination membership).  The simplex reads the columns
of [A | b] as ints, each over a positive scale of its own (Cleared), so
that a caller that poses many systems over the same columns clears each
column once; an entry or scale that is not an int is refused.  It is
the textbook Phase-I tableau with Bland's smallest-index rule (Bland,
Math. Oper. Res. 2, 1977), which guarantees termination, pivoted by the
fraction-free step of linalg (Edmonds' integer-preserving pivoting);
the ratio test cross-multiplies ints.  On an infeasible system the
final multipliers give a Farkas functional y with y.b > 0 and
y.A <= 0.  convexity.verify_farkas is the one check of such a y, in
integer arithmetic: the simplex raises when its own y fails it, and a
caller holding a y found earlier (hull.extreme_points' shipped
functionals) runs it instead of the simplex, so a shipped run never
imports this module."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .convexity import Cleared, verify_farkas
from .linalg import eliminate


class FeasibilityResult(NamedTuple):
    feasible: bool
    # A feasible nonnegative solution when feasible.
    solution: Optional[list[Fraction]]
    # A verified Farkas certificate (y.A <= 0, y.b > 0) when infeasible.
    farkas: Optional[list[Fraction]]


def solve_equality_feasibility(columns: Sequence[Cleared]
                               ) -> FeasibilityResult:
    """Decide whether Ax = b has a solution with x >= 0, for columns the
    cleared columns of [A | b], b last.  The solution is in the units of
    A and b, not of their ints."""
    if any(type(x) is not int for ints, scale in columns
           for x in (*ints, scale)):
        raise TypeError("columns must be ints over int scales")
    if any(scale <= 0 for _, scale in columns):
        raise ValueError("column scales must be positive")
    *structural, (rhs, rhs_scale) = columns
    m = len(rhs)
    if m == 0:
        return FeasibilityResult(True, [], None)
    n = len(structural)
    if any(len(ints) != m for ints, _ in structural):
        raise ValueError("inconsistent system shape")

    # Column j of [A | b] is cleared by its own scale c_j (c_b for b).  A
    # positive column scale flips no reduced cost and scales every ratio
    # of one ratio test alike, so Bland's rule picks the same bases.  The
    # tableau is [A' | I | b'], A' and b' the cleared columns with each
    # row negated where b < 0, so the artificial basis is feasible; the
    # signs are kept to recover the multipliers of the original rows.
    # Row m is the Phase-I cost row: the sum of the rows, less 1 on each
    # artificial.
    signs = [-1 if v < 0 else 1 for v in rhs]
    tableau = [[sign * a[i] for a, _ in structural]
               + [int(i == k) for k in range(m)] + [sign * rhs[i]]
               for i, sign in enumerate(signs)]
    cost = [sum(column) for column in zip(*tableau)]
    for k in range(n, n + m):
        cost[k] -= 1
    tableau.append(cost)
    basis = [n + i for i in range(m)]

    # Rows are scaled lazily (see linalg.eliminate): row i of the Fraction
    # tableau is tableau[i] / d[i].  Pivots are positive, so every d[i]
    # is too and signs can be read off directly.
    d = [1] * (m + 1)
    prev = 1
    # In exact arithmetic Bland's rule never returns to a basis, so a
    # repeat can only come from an arithmetic defect: raise, not cycle.
    visited = {tuple(basis)}
    while True:
        # Bland: entering column is the smallest index with positive
        # reduced cost (we are driving the artificial sum down to 0).
        cost = tableau[m]
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
                b = tableau[i][n + m]
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
    if all(tableau[i][n + m] == 0 for i in range(m) if basis[i] >= n):
        # x' solves A'x' = b' = c_b b, so x_j = c_j x'_j / c_b, x'_j read
        # off row i, where j is basic, as its rhs over its entry in j.
        solution = [Fraction(0)] * n
        for row, var in zip(tableau, basis):
            if var < n:
                solution[var] = Fraction(structural[var][1] * row[n + m],
                                         rhs_scale * row[var])
        return FeasibilityResult(True, solution, None)

    # Multipliers: at optimality, y_i = (reduced cost of artificial i) + 1,
    # read off the cost row through its divisor d[m]; after the sign
    # flips y certifies y.A <= 0 and y.b > 0 for the original system.
    y = [Fraction(cost[n + i] + d[m], sign * d[m])
         for i, sign in enumerate(signs)]
    if not verify_farkas([ints for ints, _ in columns], y):
        raise AssertionError("Farkas witness failed")
    return FeasibilityResult(False, None, y)
