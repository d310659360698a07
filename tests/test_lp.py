"""Exact simplex feasibility and its Farkas witnesses."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiscert import lp
from heiscert.convexity import OrbitSample, extreme_point_certificate
from heiscert.heis import DATA_DIR
from heiscert.linalg import clear_denominators
from heiscert.lp import solve_equality_feasibility
from test_heis import rational_lift


def F(x):
    return Fraction(x)


def _cleared(column):
    """The rational column as ints over the lcm of its denominators."""
    (ints,), scale = clear_denominators([column])
    return ints, scale


def solve(matrix, rhs):
    """The simplex on the system given by the rows of A and by b, each
    column of [A | b] cleared by its own lcm."""
    return solve_equality_feasibility(
        [_cleared(column) for column in (*zip(*matrix), rhs)])


def convex_combination_weights(points, target):
    """Is target a convex combination of points: the simplex on their
    affine columns (point, 1), the weights summing to 1 in the last
    row."""
    return solve_equality_feasibility(
        [_cleared([*p, 1]) for p in (*points, target)])


def test_standard_simplex_vertex_is_extreme():
    vertices = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    result = convex_combination_weights(vertices[1:], vertices[0])
    assert not result.feasible
    # the Farkas functional strictly separates the vertex
    y = result.farkas
    target_value = sum(a * b for a, b in zip(y, vertices[0] + [F(1)]))
    assert target_value > 0


def test_centroid_weights_are_uniform():
    vertices = [[F(0), F(0)], [F(1), F(0)], [F(0), F(1)]]
    centroid = [Fraction(1, 3), Fraction(1, 3)]
    result = convex_combination_weights(vertices, centroid)
    assert result.feasible
    assert result.solution == [Fraction(1, 3)] * 3


def test_weights_reconstruct_target():
    points = [[F(0)], [F(1)], [F(4)]]
    target = [F(2)]
    result = convex_combination_weights(points, target)
    assert result.feasible
    w = result.solution
    assert sum(w) == 1
    assert sum(wi * p[0] for wi, p in zip(w, points)) == 2


def test_infeasible_outside_hull():
    points = [[F(0)], [F(1)]]
    result = convex_combination_weights(points, [F(3)])
    assert not result.feasible
    assert result.farkas is not None


def test_zero_rhs_feasible():
    result = solve([[F(1), F(-1)]], [F(0)])
    assert result.feasible


def test_negative_rhs_handled_by_row_flip():
    result = solve([[F(-1), F(0)], [F(0), F(1)]], [F(-2), F(3)])
    assert result.feasible
    x = result.solution
    assert -x[0] == -2 and x[1] == 3


def test_inconsistent_system_produces_farkas():
    result = solve([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)])
    assert not result.feasible
    y = result.farkas
    assert y[0] + 2 * y[1] > 0  # y.b > 0
    assert y[0] + y[1] <= 0     # y.A columns


def test_cleared_rows_give_verified_farkas():
    # The Farkas check reads the cleared int columns, and a solution is
    # given in the units of A and b, not of their ints.
    result = solve([[F(1)]], [F(-1)])
    assert not result.feasible
    y = result.farkas
    assert y[0] * -1 > 0 and y[0] * 1 <= 0
    lp._verify_farkas([[1], [-1]], y)
    assert solve([[Fraction(1, 2)]], [F(1)]).solution == [F(2)]


entries = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# Mostly zeros, so many tableau rows sit out a pivot step.
sparse_entries = st.integers(min_value=0, max_value=2).flatmap(
    lambda k: entries if k == 0 else st.just(Fraction(0)))


@st.composite
def systems(draw):
    """Dense 3-column systems of up to 4 rows, or sparse ones of up to 8
    rows and 6 columns."""
    if draw(st.booleans()):
        n_rows, n_cols, entry = draw(st.integers(1, 4)), 3, entries
    else:
        n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 6))
        entry = sparse_entries
    matrix = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                           min_size=n_rows, max_size=n_rows))
    rhs = draw(st.lists(entry, min_size=n_rows, max_size=n_rows))
    return matrix, rhs


@settings(max_examples=100, deadline=None)
@given(systems())
def test_verdicts_carry_checked_witnesses(system):
    matrix, rhs = system
    result = solve(matrix, rhs)
    if result.feasible:
        x = result.solution
        assert all(v >= 0 for v in x)
        for row, b in zip(matrix, rhs):
            assert sum(r * v for r, v in zip(row, x)) == b
    else:
        y = result.farkas
        assert sum(f * b for f, b in zip(y, rhs)) > 0
        for j in range(len(matrix[0])):
            assert sum(y[i] * matrix[i][j] for i in range(len(matrix))) <= 0


def _fraction_phase_one(matrix, rhs, entered=None):
    """Reference oracle: the Phase-I tableau over Fraction, scaled by one
    common denominator L (artificial block L times the identity, rows
    with b < 0 negated), pivoted by Gauss-Jordan with Bland's rule:
    the smallest entering index with positive reduced cost, and the
    minimum ratio with ties to the smallest basic index.  Each entering
    index is appended to the list entered, when one is given."""
    m, n = len(matrix), len(matrix[0])
    rows = [[F(x) for x in row] + [F(b)] for row, b in zip(matrix, rhs)]
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    flipped = [row[-1] < 0 for row in rows]
    tableau = [[(-scale if flip else scale) * x for x in row[:-1]]
               + [F(scale if j == i else 0) for j in range(m)]
               + [(-scale if flip else scale) * row[-1]]
               for i, (row, flip) in enumerate(zip(rows, flipped))]
    cost = [sum(row[j] for row in tableau) for j in range(n + m + 1)]
    for i in range(m):
        cost[n + i] -= scale
    basis = [n + i for i in range(m)]
    while True:
        entering = next((j for j in range(n + m) if cost[j] > 0), None)
        if entering is None:
            break
        if entered is not None:
            entered.append(entering)
        candidates = [(tableau[i][-1] / tableau[i][entering], basis[i], i)
                      for i in range(m) if tableau[i][entering] > 0]
        r = min(candidates)[2]
        pivot = tableau[r][entering]
        tableau[r] = [x / pivot for x in tableau[r]]
        for row in tableau[:r] + tableau[r + 1:] + [cost]:
            f = row[entering]
            row[:] = [x - f * y for x, y in zip(row, tableau[r])]
        basis[r] = entering
    if all(tableau[i][-1] == 0 for i in range(m) if basis[i] >= n):
        solution = [F(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                solution[var] = tableau[i][-1]
        return True, solution, None
    y = [cost[n + i] / scale + 1 for i in range(m)]
    return False, None, [-v if flip else v for v, flip in zip(y, flipped)]


@st.composite
def mixed_scale_systems(draw):
    """Up to 5 rows and 5 columns: one row and one column with
    denominators up to 15000, the other entries integral, b of both
    signs.  Half the systems have b = A x for a drawn x >= 0, so they are
    feasible; the rest are mostly infeasible.  Half the systems repeat
    one row and its b, as the hull LP repeats its x10 = 1 row as
    sum w = 1."""
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    fine_row = draw(st.integers(0, n_rows - 1))
    fine_col = draw(st.integers(0, n_cols - 1))
    fine = st.fractions(min_value=-4, max_value=4, max_denominator=15000)
    coarse = st.integers(-4, 4).map(F)
    matrix = [[draw(fine if fine_row == i or fine_col == j else coarse)
               for j in range(n_cols)] for i in range(n_rows)]
    if draw(st.booleans()):
        x = draw(st.lists(st.fractions(min_value=0, max_value=3,
                                       max_denominator=7),
                          min_size=n_cols, max_size=n_cols))
        rhs = [sum(a * v for a, v in zip(row, x)) for row in matrix]
    else:
        rhs = [draw(fine if i == fine_row else coarse)
               for i in range(n_rows)]
    if draw(st.booleans()):
        repeated = draw(st.integers(0, n_rows - 1))
        matrix.append(list(matrix[repeated]))
        rhs.append(rhs[repeated])
    return matrix, rhs


@settings(max_examples=150, deadline=None)
@given(mixed_scale_systems())
def test_pivot_path_matches_fraction_tableau(system):
    """Per-column clearing, on-demand pricing and the integer ratio test
    pick the pivots of the common-denominator Fraction tableau, so the
    solution and the Farkas vector come out exactly equal, not just
    equally valid."""
    matrix, rhs = system
    result = solve(matrix, rhs)
    assert (result.feasible, result.solution, result.farkas) == \
        _fraction_phase_one(matrix, rhs)


def _hull_reference(sample, index):
    """The Fraction-tableau verdict on point index of sample against the
    others: A's columns the other lifts, a last row of ones (the weights
    sum to 1), b the point's lift and a 1."""
    lifts = [rational_lift(p) for p in sample.parameters]
    others = [lift for i, lift in enumerate(lifts) if i != index]
    matrix = [[lift[k] for lift in others] for k in range(len(lifts[index]))]
    matrix.append([F(1)] * len(others))
    return _fraction_phase_one(matrix, [*lifts[index], F(1)])


def _agrees_with_reference(sample, index):
    extreme, entry = extreme_point_certificate(sample, index)
    feasible, solution, farkas = _hull_reference(sample, index)
    return (extreme, entry) == ((False, {"weights": solution}) if feasible
                                else (True, farkas))


def test_hull_lp_on_shipped_sample_matches_fraction_tableau():
    """The hull LPs read each lift's column as cleared once per sample,
    and still give exactly the reference's Farkas functionals."""
    sample = OrbitSample.from_csv(
        (DATA_DIR / "extreme_sample.csv").read_text())
    assert len(sample) == 20
    assert all(_agrees_with_reference(sample, i) for i in range(20))


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(small, small, small), min_size=11, max_size=13,
                unique=True), st.data())
def test_hull_lp_on_drawn_samples_matches_fraction_tableau(parameters, data):
    sample = OrbitSample(parameters)
    index = data.draw(st.integers(0, len(sample) - 1))
    assert _agrees_with_reference(sample, index)


@pytest.mark.parametrize("columns", [
    [([Fraction(1, 2)], 1), ([1], 1)],
    [([1], 1), ([0.5], 1)],
    [([True], 1), ([1], 1)],
    [([1], 2.0), ([1], 1)],
], ids=["fraction", "float", "bool", "float-scale"])
def test_simplex_refuses_columns_that_are_not_ints(columns):
    with pytest.raises(TypeError):
        solve_equality_feasibility(columns)


def test_simplex_refuses_a_nonpositive_scale():
    with pytest.raises(ValueError):
        solve_equality_feasibility([([1], 0), ([1], 1)])


def test_artificial_column_reenters():
    # Bland's rule brings artificial column 2 (index n + 2 = 4) back
    # into the basis after it left; b < 0 flips row 0 and the columns
    # clear by 2 and by 3.
    matrix = [[F(1), F(0)], [F(1), F(1)], [Fraction(1, 2), F(0)]]
    rhs = [Fraction(-1, 3), F(2), F(0)]
    entered = []
    expected = _fraction_phase_one(matrix, rhs, entered)
    assert any(j >= len(matrix[0]) for j in entered)
    result = solve(matrix, rhs)
    assert (result.feasible, result.solution, result.farkas) == expected


def test_repeated_basis_raises_instead_of_cycling(monkeypatch):
    # A pivot step that changes nothing stands for an arithmetic defect:
    # the simplex then picks the same pivot again and must stop there.
    monkeypatch.setattr(lp, "eliminate",
                        lambda m, d, r, c, rows, prev: prev)
    with pytest.raises(RuntimeError, match="revisited a basis"):
        convex_combination_weights([[0], [1]], [3])


FORGED_FARKAS = {
    "yb_zero": ([F(1), F(-1)], [F(1), F(1)], "y.b <= 0"),
    "yb_negative": ([F(1), F(-1)], [F(-1), F(0)], "y.b <= 0"),
    # y.A = (0, 1/2 - 1/3): positive only through the fractional parts,
    # so numerators alone or floors would read it as 0, and so would a
    # per-row scale (rows times 2 and 3 give 1 - 1); the column scale 6
    # keeps it positive (3 - 2).
    "yA_fractional_positive": ([F(1), F(0)], [F(1), F(1)],
                               "positive entry"),
}


@pytest.mark.parametrize("rhs, y, message", FORGED_FARKAS.values(),
                         ids=FORGED_FARKAS)
def test_forged_farkas_witness_raises(rhs, y, message):
    matrix = [[F(1), Fraction(1, 2)], [F(-1), Fraction(-1, 3)]]
    columns = [_cleared(column)[0] for column in (*zip(*matrix), rhs)]
    with pytest.raises(AssertionError, match=message):
        lp._verify_farkas(columns, y)
