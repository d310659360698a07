"""Exact rational linear programming: Phase-I simplex with Bland's rule.

Only feasibility of equality systems {Ax = b, x >= 0} is needed here (it
decides convex-combination membership).  The simplex reads the columns
of [A | b] as ints, each over a positive scale of its own (Cleared), so
that a caller that poses many systems over the same columns clears each
column once; an entry or scale that is not an int is refused.  The
simplex is the revised one (Dantzig and Orchard-Hays, MTAC 8, 1954):
only the basis-inverse block and the rhs are pivoted, with the
fraction-free step of linalg (Edmonds' integer-preserving pivoting), and
a structural column is priced from them on demand.  The ratio test
cross-multiplies ints.
Bland's smallest-index rule guarantees termination.  On an infeasible
system the final multipliers give a Farkas functional y with y.b > 0
and y.A <= 0.  convexity.verify_farkas is the one check of such a y, in
integer arithmetic: the simplex raises when its own y fails it, and a
caller holding a y found earlier (hull.extreme_points' shipped
functionals) runs it instead of the simplex, so a shipped run never
imports this module."""

from __future__ import annotations

from fractions import Fraction
from operator import mul
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
    # of one ratio test alike, so Bland's rule picks the same bases.  A
    # row with b < 0 is negated so the artificial basis is feasible; the
    # signs of the rows are kept instead of a negated copy of every
    # column, so a column is read as given and signed only when it enters
    # the basis, and they recover the multipliers of the original rows.
    signs = [-1 if v < 0 else 1 for v in rhs]

    # Of the tableau [A' | I | b'] (A' the signed, cleared A) each row
    # keeps only its m artificial entries and its rhs.  Row m is the
    # Phase-I cost row: the sum of the rows, less 1 on each artificial.
    # Pivots combine whole rows, so row i stays U[i] times the starting
    # tableau, U[i] its artificial entries, and the cost row u times it
    # less d[m] on the artificials (1 at the start, p after each update
    # of the row), u[k] = cost[k] + d[m]; a structural entry is the dot
    # product of those multipliers with a column of A'.
    tableau = [[int(i == k) for k in range(m)] + [abs(b)]
               for i, b in enumerate(rhs)]
    tableau.append([0] * m + [sum(map(abs, rhs))])
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
        prices = [(x + d[m]) * sign for x, sign in zip(cost, signs)]
        for entering, (a, _) in enumerate(structural):
            reduced = sum(map(mul, prices, a))
            if reduced > 0:
                a = list(map(mul, signs, a))
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
                a, scale = structural[var]
                solution[var] = Fraction(scale * row[m], rhs_scale * sum(
                    map(mul, row, map(mul, signs, a))))
        return FeasibilityResult(True, solution, None)

    # Multipliers: at optimality, y_i = (reduced cost of artificial i) + 1,
    # read off the cost row through its divisor d[m]; after the sign
    # flips y certifies y.A <= 0 and y.b > 0 for the original system.
    y = [Fraction(x + d[m], sign * d[m]) for x, sign in zip(cost, signs)]
    if not verify_farkas([ints for ints, _ in columns], y):
        raise AssertionError("Farkas witness failed")
    return FeasibilityResult(False, None, y)
