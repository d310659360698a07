"""Exact matrix operations: determinant, rank, kernel, Jordan partitions."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heiscert import convexity, heis, linalg, suites
from heiscert.convexity import ORBIT_LIFT
from heiscert.heis import (ENTRY_RING, GENERATORS, TABLE_DIMENSIONS,
                           EntryPlan, HeisElement, Representation,
                           generator_power, get_representation, heis_mul,
                           load_representation)
from heiscert.linalg import (Matrix, clear_denominators, integer_det,
                             integer_kernel, integer_product,
                             jordan_partition)
from heiscert.poly import Poly
from heiscert.rationals import to_fraction
from heiscert.restriction import derive_subspace_basis
from heiscert.sampler import RandomStream
from test_heis import rational_image, rational_lift
from test_poly import poly_from_terms

THETA = get_representation("theta")


def test_identity_multiplication():
    m = rational_image(THETA, (1, 2, 3))
    assert Matrix.identity(10) * m == m


def test_inverse_element_multiplies_to_identity():
    g = HeisElement.of(1, 0, 0)
    h = HeisElement.of(-1, 0, 0)
    assert heis_mul(g, h) == HeisElement.identity()
    assert rational_image(THETA, g) * rational_image(THETA, h) == \
        Matrix.identity(10)


def test_nilpotent_square_is_zero():
    j2 = Matrix([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
    assert (j2 * j2).is_zero()


def test_det_identity():
    assert Matrix.identity(10).det() == 1


def test_det_repeated_rows():
    row = [Fraction(1), Fraction(2), Fraction(3)]
    m = Matrix([row, row, [Fraction(0), Fraction(1), Fraction(5)]])
    assert m.det() == 0


def _cofactor_det(rows):
    """Independent determinant oracle: cofactor expansion along the first
    remaining row, memoized on the active column set."""
    n = len(rows)

    @lru_cache(maxsize=None)
    def expand(row, colmask):
        if row == n:
            return Fraction(1)
        total = Fraction(0)
        sign = Fraction(1)
        for col in range(n):
            bit = 1 << col
            if not colmask & bit:
                continue
            if rows[row][col] != 0:
                total += sign * rows[row][col] * expand(row + 1,
                                                        colmask & ~bit)
            sign = -sign
        return total

    return expand(0, (1 << n) - 1)


def test_det_matches_cofactor_oracle_on_frozen_sample():
    sample = convexity.sample_orbit(*convexity.HULL_SAMPLE)
    lifts = [rational_lift(p) for p in sample.parameters]
    mat = Matrix(lifts)
    expected = _cofactor_det(tuple(tuple(r) for r in lifts))
    assert mat.det() == expected
    assert expected != 0


def test_rank_basics():
    assert Matrix.identity(10).rank() == 10
    zero = Matrix([[Fraction(0)] * 4 for _ in range(3)])
    assert zero.rank() == 0


def test_rank_center_nilpotent_part():
    n = rational_image(THETA, (0, 0, 1)) - Matrix.identity(10)
    assert n.rank() == 3


def _kernel(m: Matrix) -> list[list[int]]:
    """integer_kernel of a rational matrix, on its rows cleared to one
    scale."""
    return integer_kernel(clear_denominators(m.entries)[0])


def _normalized(basis, free) -> list[tuple[Fraction, ...]]:
    """Each int kernel vector divided by its entry at its free column."""
    return [tuple(Fraction(x, vec[f]) for x in vec)
            for vec, f in zip(basis, free)]


def _rref_null_basis(reduced, pivots, width) -> list[tuple[Fraction, ...]]:
    """The null-space basis read off a reduced echelon form: one vector
    per free column f, 1 at f and minus column f of the RREF at the
    pivots."""
    basis = []
    for f in (j for j in range(width) if j not in pivots):
        vec = [Fraction(int(j == f)) for j in range(width)]
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(tuple(vec))
    return basis


def test_kernel_of_zero_matrix_is_standard_basis():
    zero = Matrix([[Fraction(0)] * 3 for _ in range(3)])
    assert _kernel(zero) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_kernel_of_identity_is_empty():
    assert _kernel(Matrix.identity(4)) == []


def test_kernel_of_six_dim_generator():
    rho6 = get_representation("rho6")
    n = rational_image(rho6, (1, 0, 0)) - Matrix.identity(6)
    basis = _kernel(n)
    assert len(basis) == 3
    for vec in basis:
        assert all(type(x) is int for x in vec)
        assert all(x == 0 for x in n.apply(vec))


def _rational_partition(m):
    """The Jordan partition of a unipotent rational matrix, from the
    ranks of its nilpotent part's powers multiplied out over Fraction."""
    return jordan_partition([m.rows] + _fraction_nilpotent_ranks(m))


def test_jordan_identity():
    ranks = THETA.nilpotent_ranks(HeisElement.identity())
    assert ranks == [10, 0]
    assert jordan_partition(ranks) == [1] * 10


def test_jordan_center_element():
    partition = jordan_partition(
        THETA.nilpotent_ranks(HeisElement.of(0, 0, 1)))
    assert partition == [3, 2, 1, 1, 1, 1, 1]


SINGLE_BLOCK = Matrix([[Fraction(1), Fraction(1), Fraction(0)],
                       [Fraction(0), Fraction(1), Fraction(1)],
                       [Fraction(0), Fraction(0), Fraction(1)]])


# The transpose is unipotent but lower-triangular: the partition is read
# off the rank sequence alone, not the shape.
@pytest.mark.parametrize("block", [SINGLE_BLOCK, SINGLE_BLOCK.transpose()],
                         ids=["upper", "lower"])
def test_jordan_single_block(block):
    assert _rational_partition(block) == [3]


def _rational(rows):
    return Matrix([[Fraction(x) for x in row] for row in rows])


# The second matrix's ranks of N, N^2 fall 2 -> 1 and then stall at 1.
# Only a loaded table reaches the rank route, and a table is unit upper
# triangular, so its N = T - I is nilpotent: the constructor refuses
# these.
@pytest.mark.parametrize("m", [
    _rational([[2, 0], [0, 1]]),
    _rational([[1, 1, 0], [0, 1, 0], [0, 0, 2]]),
], ids=["diagonal", "rank-stalls-at-1"])
def test_jordan_rejects_non_unipotent(m):
    with pytest.raises(ValueError):
        _fraction_nilpotent_ranks(m)
    with pytest.raises(ValueError):
        Representation("non-unipotent", m.rows, _lift(m))


def test_dimension_mismatch_raises():
    a = Matrix.identity(2)
    b = Matrix.identity(3)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        Matrix([[Fraction(1), Fraction(2)]]).det()


# -- property tests -------------------------------------------------------------

entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def square(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(Matrix)


def _fraction_rref(rows):
    """Reference oracle: textbook Gauss-Jordan over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][col] != 0),
                         None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][col]
        m[r] = [x / pivot for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return m, pivots


fractional = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@st.composite
def sparse_rows(draw, max_rows, max_cols, square=False, zero_rows=True):
    """Mostly-zero rational rows, so many rows have a zero in a pivot's
    column and sit out elimination steps; with zero_rows, whole zero
    rows are common too."""
    n_cols = draw(st.integers(min_value=1, max_value=max_cols))
    n_rows = n_cols if square else \
        draw(st.integers(min_value=1, max_value=max_rows))
    zero = Fraction(0)
    entry = st.integers(min_value=0, max_value=2).flatmap(
        lambda k: fractional if k == 0 else st.just(zero))
    row = st.lists(entry, min_size=n_cols, max_size=n_cols)
    if zero_rows:
        row = st.one_of(st.just([zero] * n_cols), row, row)
    return draw(st.lists(row, min_size=n_rows, max_size=n_rows))


dense_rows = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(st.lists(fractional, min_size=n, max_size=n),
                       min_size=1, max_size=6))


mixed_rows = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.one_of(st.just([0] * n), st.lists(
            st.one_of(st.integers(-9, 9), fractional), min_size=n,
            max_size=n)),
        min_size=1, max_size=5))


@settings(max_examples=200, deadline=None)
@given(mixed_rows)
def test_clear_denominators_is_entries_over_their_lcm(rows):
    """Rows of int and Fraction entries, mixed, a single row and all-zero
    rows included, come back as int rows over one scale that equal the
    entries, and that scale is the lcm of every denominator: each entry
    times it is integral, and for every prime p dividing it, some entry
    times scale / p is not."""
    ints, scale = clear_denominators(rows)
    assert all(type(x) is int for row in ints for x in row)
    assert [[Fraction(x, scale) for x in row] for row in ints] == rows
    flat = [Fraction(x) for row in rows for x in row]
    assert all((x * scale).denominator == 1 for x in flat)
    primes = [p for p in range(2, scale + 1)
              if scale % p == 0 and all(p % q for q in range(2, p))]
    for p in primes:
        assert any((x * scale / p).denominator != 1 for x in flat)


@settings(max_examples=250, deadline=None)
@given(st.one_of(dense_rows, sparse_rows(16, 10)))
def test_rref_matches_fraction_gauss_jordan(rows):
    assume(any(x.denominator > 1 for row in rows for x in row))
    # append a combination of rows so rank deficiency is common
    rows = rows + [[2 * x - y for x, y in zip(rows[0], rows[-1])]]
    m = Matrix(rows)
    reduced, pivots = m.rref()
    expected, expected_pivots = _fraction_rref(rows)
    assert pivots == expected_pivots
    assert [list(r) for r in reduced.entries] == expected
    assert m.rank() == len(expected_pivots)
    free = [j for j in range(m.cols) if j not in expected_pivots]
    kernel = _kernel(m)
    assert len(kernel) == m.cols - len(expected_pivots)
    assert _normalized(kernel, free) == \
        _rref_null_basis(expected, expected_pivots, m.cols)


@settings(max_examples=100, deadline=None)
@given(sparse_rows(8, 8, square=True, zero_rows=False))
def test_sparse_det_matches_cofactor_oracle(rows):
    assert Matrix(rows).det() == _cofactor_det(tuple(map(tuple, rows)))


@st.composite
def int_squares(draw):
    """Square int rows of size 1 to 6, about half zeros, so a pivot is
    often found below its row and rows swap; from size 3 the last row
    is sometimes 2 row0 - row1, so the rows are singular."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 2 and draw(st.booleans()):
        rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
    return rows


@settings(max_examples=200, deadline=None)
@given(int_squares(), st.integers(1, 7))
def test_integer_det_matches_fraction_det_and_cofactor_oracle(rows, den):
    """integer_det of int rows is the cofactor oracle's value, leaves
    the rows as given, and is den^n times Matrix.det of the rows over
    den."""
    given_rows = [list(row) for row in rows]
    det = integer_det(rows)
    assert type(det) is int and rows == given_rows
    assert det == _cofactor_det(tuple(map(tuple, rows)))
    scaled = Matrix([[Fraction(x, den) for x in row] for row in rows])
    assert det == scaled.det() * den ** len(rows)


def test_integer_det_signs_singular_and_shapes():
    # One swap, two swaps (a 3-cycle) and the anti-diagonal's one.
    assert integer_det([[0, 1], [1, 0]]) == -1
    assert integer_det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert integer_det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
    assert integer_det(((0, 4), (3, 0))) == -12
    assert integer_det([[1, 2], [2, 4]]) == integer_det([[0, 0], [0, 0]]) == 0
    for bad in ([[1, 2]], [[1], [2]], [[1, 2], [3]], []):
        with pytest.raises(ValueError, match="square"):
            integer_det(bad)
    with pytest.raises(ValueError, match="square"):
        Matrix([[Fraction(1, 2)], [Fraction(1)]]).det()


@settings(max_examples=60)
@given(square(3), square(3))
def test_det_is_multiplicative(x, y):
    assert (x * y).det() == x.det() * y.det()


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                       min_size=2, max_size=5).map(Matrix)))
def test_rank_nullity(m):
    assert m.rank() + len(_kernel(m)) == m.cols


@st.composite
def sparse_int_rows(draw):
    """Int rows of up to 12 by 12, at least 70% zeros; one drawn row and
    one drawn column are often cleared whole.  Often a singleton chain
    is planted on top: its row t is nonzero at chain column t and at
    some earlier chain columns only, so presolving the kernel drops the
    chain one column per round."""
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cells = draw(st.lists(
        st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1),
                  st.integers(-9, 9).filter(bool)),
        max_size=n_rows * n_cols * 3 // 10, unique_by=lambda t: t[:2]))
    rows = [[0] * n_cols for _ in range(n_rows)]
    for i, j, value in cells:
        rows[i][j] = value
    if draw(st.booleans()):
        rows[draw(st.integers(0, n_rows - 1))] = [0] * n_cols
    if draw(st.booleans()):
        dead = draw(st.integers(0, n_cols - 1))
        for row in rows:
            row[dead] = 0
    if draw(st.booleans()):
        chain = draw(st.permutations(range(n_cols)))[
            :draw(st.integers(1, n_cols))]
        nonzero = st.integers(-9, 9).filter(bool)
        for t, col in enumerate(chain):
            row = [0] * n_cols
            row[col] = draw(nonzero)
            for earlier in chain[:t]:
                if draw(st.booleans()):
                    row[earlier] = draw(nonzero)
            rows.insert(0, row)
    return rows


def _dense_echelon(m, reduce_above):
    """Reference: the fraction-free pass of linalg._echelon with every
    touched row rewritten densely, zero pairs included, and every pivot
    row brought to scale first.  Also returns, for each pivot row r with
    no nonzero below it in a forward pass, the (prev, d) that brought it
    to scale: _echelon leaves such a row as it was."""
    n_rows = len(m)
    d = [1] * n_rows
    pivots, swaps, prev = [], 0, 1
    kept = {}
    for col in range(len(m[0])):
        r = len(pivots)
        found = next((i for i in range(r, n_rows) if m[i][col]), None)
        if found is None:
            continue
        if found != r:
            m[r], m[found] = m[found], m[r]
            d[r], d[found] = d[found], d[r]
            swaps += 1
        if not reduce_above and not any(m[i][col]
                                        for i in range(r + 1, n_rows)):
            kept[r] = prev, d[r]
        m[r] = [x * prev // d[r] for x in m[r]]
        p = d[r] = m[r][col]
        for i in range(0 if reduce_above else r + 1, n_rows):
            f = m[i][col]
            if i != r and f:
                m[i] = [(x * p - f * y) // d[i] for x, y in zip(m[i], m[r])]
                d[i] = p
        prev = p
        pivots.append(col)
        if r + 1 == n_rows:
            break
    return (pivots, swaps, d), kept


@settings(max_examples=200, deadline=None)
@given(sparse_int_rows(), st.booleans())
def test_sparse_echelon_matches_dense_step(rows, reduce_above):
    """The same pivots, swaps and divisors as the dense step, and the
    same rows once each row the forward pass left is brought to scale."""
    m = [list(row) for row in rows]
    expected = [list(row) for row in rows]
    result, kept = _dense_echelon(expected, reduce_above)
    assert linalg._echelon(m, reduce_above) == result
    for r, (prev, scale) in kept.items():
        m[r] = [x * prev // scale for x in m[r]]
    assert m == expected


@st.composite
def permuted_triangular(draw):
    """An upper triangular rational matrix with a nonzero diagonal, its
    rows shuffled: each pivot of its forward pass has nothing below it
    to clear, so every step is skipped, and rows are swapped."""
    n = draw(st.integers(1, 7))
    nonzero = fractional.filter(bool)
    rows = [[draw(nonzero) if i == j else
             draw(fractional) if j > i else Fraction(0)
             for j in range(n)] for i in range(n)]
    return draw(st.permutations(rows))


@settings(max_examples=100, deadline=None)
@given(permuted_triangular())
def test_det_matches_cofactor_oracle_when_every_step_is_skipped(rows):
    steps = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "eliminate", lambda *args: steps.append(args))
        assert Matrix(rows).det() == _cofactor_det(tuple(map(tuple, rows)))
        assert Matrix(rows).rank() == len(rows)
    assert steps == []


@settings(max_examples=200, deadline=None)
@given(sparse_int_rows())
def test_sparse_integer_kernel_is_a_null_space_basis(rows):
    argument = [list(row) for row in rows]
    basis = integer_kernel(argument)
    assert argument == rows
    for vec in basis:
        assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in rows)
    reduced, pivots = Matrix(rows).rref()
    free = [j for j in range(len(rows[0])) if j not in pivots]
    assert len(basis) == len(free)
    assert _normalized(basis, free) == \
        _rref_null_basis(reduced.entries, pivots, len(rows[0]))


@pytest.mark.parametrize("rows, expected", [
    # Three rounds: column 0, then 1, then 2 is forced.
    ([[0, -1, 3, 0], [2, 1, 0, 0], [1, 0, 0, 0]], [[0, 0, 0, 1]]),
    # Every column forced.
    ([[1, 2], [0, 3]], []),
    # Every row dies once column 0 is forced.
    ([[1, 0, 0], [1, 0, 0]], [[0, 1, 0], [0, 0, 1]]),
])
def test_integer_kernel_presolve_cases(rows, expected):
    argument = [list(row) for row in rows]
    assert integer_kernel(argument) == expected
    assert argument == rows


def _fraction_nilpotent_ranks(m):
    """Reference oracle: ranks of the powers of N = m - I multiplied out
    over Fraction, starting from the identity."""
    n = m.rows
    nilpotent = m - Matrix.identity(n)
    ranks = [n]
    power = Matrix.identity(n)
    while ranks[-1] > 0:
        power = power * nilpotent
        ranks.append(power.rank())
        if ranks[-1] == ranks[-2]:
            raise ValueError("matrix is not unipotent")
    return ranks[1:]


def _blocks_from_ranks(ranks):
    """Reference: with r_k = rank(N^k), the blocks of size exactly k
    number (r_(k-1) - r_k) - (r_k - r_(k+1))."""
    r = list(ranks) + [0]
    sizes = []
    for k in range(1, len(r) - 1):
        sizes += [k] * ((r[k - 1] - r[k]) - (r[k] - r[k + 1]))
    return sorted(sizes, reverse=True)


def test_claim_integer_route_matches_fraction_oracle():
    """jordan.unique_odd_largest ranks the int blocks of theta's power
    plan; its ranks and partitions equal the Fraction powers' for
    sampled, central and identity elements."""
    stream = RandomStream(13).split("integer-route")
    triples = [stream.next_triple(nonzero=True) for _ in range(30)]
    triples += [(0, 0, c) for c in (1, -2, Fraction(3, 5))] + [(0, 0, 0)]
    for triple in triples:
        g = HeisElement.of(*triple)
        oracle = _fraction_nilpotent_ranks(rational_image(THETA, g))
        assert THETA.nilpotent_ranks(g) == [10] + oracle
        _, witnesses = suites._jordan_unique_odd(parameters=[triple])
        expected = _blocks_from_ranks([10] + oracle)
        assert witnesses["partition_histogram"] == {str(expected): 1}
    assert expected == [1] * 10


def test_partition_conjugate_matches_rank_sequence():
    stream = RandomStream(5).split("jordan-props")
    for _ in range(25):
        g = HeisElement.of(*stream.next_triple(nonzero=True))
        ranks = THETA.nilpotent_ranks(g)
        partition = jordan_partition(ranks)
        assert sum(partition) == 10
        assert ranks == \
            [10] + _fraction_nilpotent_ranks(rational_image(THETA, g))
        diffs = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
        conjugate = [sum(1 for p in partition if p >= k)
                     for k in range(1, max(partition) + 1)]
        assert conjugate == diffs


@st.composite
def non_unipotent(draw):
    """P U P^-1 for an upper-triangular U with a diagonal entry other
    than 1 and an invertible integer P, so the rows of the result carry
    unrelated denominators."""
    n = draw(st.integers(min_value=1, max_value=6))
    diag = draw(st.lists(fractional, min_size=n, max_size=n))
    assume(any(x != 1 for x in diag))
    upper = st.one_of(st.just(Fraction(0)), fractional)
    u = Matrix([[diag[i] if i == j else draw(upper) if j > i else Fraction(0)
                 for j in range(n)] for i in range(n)])
    p = Matrix([[Fraction(draw(st.integers(min_value=-3, max_value=3)))
                 for _ in range(n)] for _ in range(n)])
    assume(p.det() != 0)
    # The rref of [P | I] is [I | P^-1].
    reduced, _ = Matrix([row + tuple(Fraction(int(i == j)) for j in range(n))
                         for i, row in enumerate(p.entries)]).rref()
    return p * u * Matrix([row[n:] for row in reduced.entries])


component = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                      fractional)
# Each generator's powers, and elements with zero components.
table_elements = st.one_of(
    st.builds(generator_power, st.sampled_from(list(GENERATORS.values())),
              component),
    st.builds(HeisElement.of, component, component, component))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(list(TABLE_DIMENSIONS)), table_elements)
def test_nilpotent_ranks_match_fraction_powers(name, g):
    rep = get_representation(name)
    assert rep.nilpotent_ranks(g) == \
        [rep.dimension] + _fraction_nilpotent_ranks(rational_image(rep, g))


@settings(max_examples=60, deadline=None)
@given(non_unipotent())
def test_non_unipotent_rejected_like_fraction_powers(m):
    """The Fraction powers refuse a non-unipotent matrix, and so does
    the table constructor, the only way into the rank route."""
    with pytest.raises(ValueError):
        _fraction_nilpotent_ranks(m)
    with pytest.raises(ValueError):
        Representation("non-unipotent", m.rows, _lift(m))


def test_nilpotent_ranks_evaluate_once_and_rank_each_power_once(monkeypatch):
    """The first call compiles the plan, ranking each power's Poly block
    in one echelon pass.  An element then takes one integer_values call,
    on the plan's minors; only if one vanishes does it take a second, on
    the power plan, and one int echelon pass for each block whose minor
    vanishes, in order, until a rank is 0.  A block whose minor is
    nonzero takes its compiled rank, and past the plan's last power the
    rank is 0, both without a pass."""
    theta = load_representation("theta", 10)
    evaluated, passes = [], []
    values, echelon = EntryPlan.integer_values, heis._echelon

    def recorded_values(plan, g):
        evaluated.append(plan)
        return values(plan, g)

    def recorded_echelon(m, reduce_above):
        passes.append((len(m), len(m[0]),
                       {type(x) for row in m for x in row}))
        return echelon(m, reduce_above)

    monkeypatch.setattr(EntryPlan, "integer_values", recorded_values)
    monkeypatch.setattr(heis, "_echelon", recorded_echelon)
    blocks = [(9, 9), (7, 6), (4, 3), (1, 1)]
    assert theta.nilpotent_ranks(HeisElement.of(1, 2, 3)) == \
        [10, 7, 4, 2, 1, 0]
    plan = theta.power_plan
    assert evaluated == [plan.minors]
    assert passes == [(*shape, {Poly}) for shape in blocks]
    for g, ranks, ranked in [(HeisElement.of(2, -1, 5),
                              [10, 7, 4, 2, 1, 0], 0),
                             (HeisElement.of(1, 0, 0),
                              [10, 6, 3, 2, 1, 0], 3),
                             (HeisElement.of(0, 0, 1), [10, 3, 1, 0], 3),
                             (HeisElement.identity(), [10, 0], 1)]:
        evaluated.clear()
        passes.clear()
        assert theta.nilpotent_ranks(g) == ranks
        assert evaluated == [plan.minors] + [plan.entries] * (ranked > 0)
        assert passes == [(*shape, {int}) for shape in blocks[:ranked]]


@st.composite
def unipotent_tables(draw):
    """A unit upper-triangular entry table of up to 7 x 7, its strict
    upper part drawn sparse or dense from small polynomials in a, b, c
    with no constant term, so the table is I at the identity."""
    n = draw(st.integers(min_value=1, max_value=7))
    one, zero = ENTRY_RING.one(), ENTRY_RING.zero()
    monomial = st.tuples(*[st.integers(0, 2)] * 3).filter(any)
    cell = st.one_of(st.just(zero), st.dictionaries(
        monomial, fractional, max_size=3).map(
            lambda terms: poly_from_terms(ENTRY_RING, terms)))
    return Matrix([[one if i == j else draw(cell) if j > i else zero
                    for j in range(n)] for i in range(n)])


@settings(max_examples=120, deadline=None)
@given(unipotent_tables(), table_elements)
def test_nilpotent_ranks_match_rank_of_powers(table, g):
    """The route on drawn tables, whose powers may vanish at g before
    the plan's last power or only past it."""
    rep = Representation("drawn", table.rows, table)
    assert rep.nilpotent_ranks(g) == \
        [table.rows] + _fraction_nilpotent_ranks(rational_image(rep, g))


def test_to_fraction_passes_a_fraction_through():
    f = Fraction(3, 7)
    assert to_fraction(f) is f
    assert to_fraction(3) == Fraction(3)
    assert type(to_fraction(3)) is Fraction


coordinate = st.one_of(
    fractional,
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
    st.fractions(max_value=0, max_denominator=97))
points = st.tuples(coordinate, coordinate, coordinate)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["theta", "rho6", "rho14", "orbit"]), points)
def test_table_specialization_matches_entrywise_eval(name, point):
    g = HeisElement.of(*point)
    if name == "orbit":
        values, d = convexity.ORBIT_LIFT_PLAN.integer_values(g)
        assert [Fraction(x, d) for x in values] == rational_lift(point)
        return
    rep = get_representation(name)
    rows, d = rep.integer_image(g)
    assert Matrix([[Fraction(x, d) for x in row] for row in rows]) == \
        rational_image(rep, point)


integer_coordinate = st.one_of(
    st.just(Fraction(0)),
    st.integers(-50, 50).map(Fraction),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["theta", "rho6", "rho14", "orbit"]),
       st.tuples(integer_coordinate, integer_coordinate, integer_coordinate))
def test_integer_image_over_d_matches_entrywise_eval(name, point):
    g = HeisElement.of(*point)
    if name == "orbit":
        polys = ORBIT_LIFT
        values, d = EntryPlan(ORBIT_LIFT).integer_values(g)
    else:
        rep = get_representation(name)
        polys = [p for row in rep.table.entries for p in row]
        rows, d = rep.integer_image(g)
        assert [len(row) for row in rows] == [rep.dimension] * rep.dimension
        values = [x for row in rows for x in row]
    assert type(d) is int and d > 0
    assert all(type(x) is int for x in values)
    assignment = dict(zip(ENTRY_RING.names, point))
    assert [Fraction(x, d) for x in values] == \
        [p.eval(assignment) for p in polys]


# Components with denominators 1 to 7, zero and negatives among them.
plan_coordinate = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["entries", "minors"]),
       st.tuples(plan_coordinate, plan_coordinate, plan_coordinate))
def test_power_plan_values_over_d_match_entrywise_eval(part, point):
    """theta's power-plan entries and its compiled minors at a rational
    g are ints over one d > 0 equal to each polynomial's Poly.eval."""
    theta = get_representation("theta")
    theta.nilpotent_ranks(HeisElement.identity())
    plan = getattr(theta.power_plan, part)
    values, d = plan.integer_values(HeisElement.of(*point))
    assert type(d) is int and d > 0
    assert all(type(x) is int for x in values)
    assignment = dict(zip(ENTRY_RING.names, point))
    assert [Fraction(x, d) for x in values] == \
        [p.eval(assignment) for p in plan.polys]


small_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), entries, max_size=3).map(
        lambda terms: poly_from_terms(ENTRY_RING, terms))
scalars = st.one_of(st.integers(-5, 5), entries)


def _lift(matrix):
    return Matrix([[ENTRY_RING.const(x) for x in row]
                   for row in matrix.entries])


@st.composite
def mixed_operands(draw):
    """A rational n x k matrix, a Poly k x m matrix, a rational m x n
    matrix, a rational m-vector and a rational scalar."""
    n, k, m = (draw(st.integers(1, 3)) for _ in range(3))

    def grid(rows, cols, cell):
        return Matrix(draw(st.lists(st.lists(cell, min_size=cols,
                                             max_size=cols),
                                    min_size=rows, max_size=rows)))

    vector = draw(st.lists(scalars, min_size=m, max_size=m))
    return (grid(n, k, scalars), grid(k, m, small_polys),
            grid(m, n, scalars), vector, draw(scalars))


@settings(max_examples=80, deadline=None)
@given(mixed_operands())
def test_rational_operands_meet_poly_as_if_lifted(operands):
    left, poly, right, vector, scalar = operands
    assert left * poly == _lift(left) * poly
    assert poly * right == poly * _lift(right)
    assert poly.apply(vector) == \
        poly.apply([ENTRY_RING.const(x) for x in vector])
    p = poly[0, 0]
    for k in (scalar, 0, Fraction(0)):
        assert p * k == k * p == p * ENTRY_RING.const(k)
    with pytest.raises(TypeError):
        p * True


# -- sparse product kernel ------------------------------------------------------

def _dense_product(left, right):
    """Reference: the textbook triple loop, every pair multiplied."""
    out = []
    for row in left:
        out_row = []
        for j in range(len(right[0])):
            acc = row[0] * right[0][j]
            for k in range(1, len(row)):
                acc = acc + row[k] * right[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


KINDS = {"int": (st.integers(-5, 5), 0),
         "fraction": (entries, Fraction(0)),
         "poly": (small_polys, ENTRY_RING.zero())}


KIND_PAIRS = [("int", "int"), ("fraction", "fraction"), ("poly", "poly"),
              ("fraction", "poly"), ("poly", "fraction"), ("int", "poly"),
              ("int", "fraction"), ("fraction", "int")]


@st.composite
def product_operands(draw, kind_pairs=KIND_PAIRS):
    """Two matrices and a vector of entry kinds drawn from kind_pairs and
    of drawn shapes (1 x n and n x 1 included), each cell nonzero-drawn
    with a drawn density, plus whole zero rows and columns."""
    left_kind, right_kind = draw(st.sampled_from(kind_pairs))
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    density = draw(st.integers(0, 100))

    def cells(kind, count):
        value, zero = KINDS[kind]
        return [draw(value) if draw(st.integers(0, 99)) < density else zero
                for _ in range(count)]

    def grid(kind, rows, cols):
        zero = KINDS[kind][1]
        zero_rows = draw(st.sets(st.integers(0, rows - 1)))
        zero_cols = draw(st.sets(st.integers(0, cols - 1)))
        return [[zero if i in zero_rows or j in zero_cols else x
                 for j, x in enumerate(cells(kind, cols))]
                for i in range(rows)]

    return (left_kind, right_kind, grid(left_kind, n, k),
            grid(right_kind, k, m), cells(right_kind, k))


def _types(rows):
    return [[type(x) for x in row] for row in rows]


@settings(max_examples=200, deadline=None)
@given(product_operands())
def test_sparse_kernel_matches_dense_reference(operands):
    """Products and apply(), for all eight kind pairs, equal the dense
    triple loop in value and in entry type: each operand holds one kind,
    so every pair product, and the shared zero, has the dense sum's type.
    Only int and Fraction mixed inside one operand can change a type,
    never a value: [Fraction(0), 1] times [5, 2] is Fraction(2) dense but
    int 2 sparse.  No run path multiplies such an operand."""
    _, _, left, right, vector = operands
    product = (Matrix(left) * Matrix(right)).entries
    applied = Matrix(left).apply(vector)
    expected = _dense_product(left, right)
    expected_apply = [row[0] for row in
                      _dense_product(left, [[v] for v in vector])]
    assert [list(row) for row in product] == expected
    assert applied == expected_apply
    assert _types(product) == _types(expected)
    assert _types([applied]) == _types([expected_apply])


@settings(max_examples=200, deadline=None)
@given(product_operands([("int", "int")]), st.booleans())
def test_integer_product_matches_matrix_product(operands, as_zip):
    """integer_product of int rows, with whole zero rows and columns and
    the right operand given as rows or as a zip of its columns, is the
    Matrix product, each entry an int."""
    _, _, left, right, _ = operands
    product = integer_product(left, zip(*zip(*right)) if as_zip else right)
    assert product == [list(row) for row in
                       (Matrix(left) * Matrix(right)).entries]
    assert all(type(x) is int for row in product for x in row)


@pytest.mark.parametrize("left, right", [
    ([[1, 2, 3]], [[1], [2]]), ([[1, 2]], [[1], [2], [3]])],
    ids=["left-wider", "right-taller"])
def test_integer_product_refuses_a_shape_mismatch(left, right):
    """A width that is not the right operand's row count raises, as the
    Matrix product does, instead of dropping the unmatched entries."""
    with pytest.raises(ValueError):
        Matrix(left) * Matrix(right)
    with pytest.raises(ValueError):
        integer_product(left, right)


def test_symbolic_basis_image_multiplies_only_nonzero_pairs(monkeypatch):
    """rho14 at the symbolic element times the 14x10 subspace basis makes
    one Poly product per (nonzero, nonzero) pair plus the two that build
    the shared zero, not one per pair of entries."""
    rho = get_representation("rho14")(HeisElement.symbolic(ENTRY_RING))
    basis = derive_subspace_basis()
    pairs = sum(1 for row in rho.entries for x, b in zip(row, basis.entries)
                if x for y in b if y)
    calls = 0
    original = Poly.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    product = rho * basis
    monkeypatch.undo()
    assert calls <= pairs + 2
    assert [list(row) for row in product.entries] == \
        _dense_product(rho.entries, basis.entries)
