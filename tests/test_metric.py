"""Cross ratio and Hilbert metric: exact values and metric axioms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiscert.heis import HeisElement, get_representation
from heiscert.linalg import Matrix
from heiscert.metric import (Halfspace, _chord, box, cross_ratio,
                             hilbert_log_argument, load_polytope)
from heiscert.rationals import format_rational, to_fraction
from heiscert.sampler import RandomStream
from test_heis import rational_image, rational_lift

THETA = get_representation("theta")


def line_point(t: Fraction) -> tuple:
    return (Fraction(1), Fraction(t))


def test_cross_ratio_of_equally_spaced_points():
    pts = [line_point(t) for t in (0, 1, 2, 3)]
    assert cross_ratio(*pts) == Fraction(4, 3)


def test_harmonic_quadruple():
    pts = [(1, Fraction(0)), (0, Fraction(1)), (1, Fraction(1)),
           (1, Fraction(-1))]
    assert cross_ratio(*pts) == -1


def test_cross_ratio_rejects_non_collinear():
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    with pytest.raises(ValueError):
        cross_ratio(*pts)


def test_cross_ratio_rejects_coincident():
    pts = [line_point(0), line_point(0), line_point(1), line_point(2)]
    with pytest.raises(ValueError):
        cross_ratio(*pts)


def test_cross_ratio_invariant_under_group_matrices():
    p = rational_lift(HeisElement.identity())
    q = rational_lift(HeisElement.of(1, 1, 1))
    points = [[x + Fraction(t) * y for x, y in zip(p, q)]
              for t in (0, 1, 2, 3)]
    base = cross_ratio(*points)
    stream = RandomStream(31).split("cross-ratio")
    for _ in range(25):
        mat = rational_image(THETA, stream.next_triple())
        assert cross_ratio(*(mat.apply(v) for v in points)) == base


def test_interval_log_argument():
    interval = box([Fraction(-1)], [Fraction(1)])
    assert hilbert_log_argument(interval, [Fraction(0)],
                                [Fraction(1, 2)]) == 3


def test_equal_points_give_unit_ratio():
    interval = box([Fraction(-1)], [Fraction(1)])
    assert hilbert_log_argument(interval, [Fraction(1, 3)],
                                [Fraction(1, 3)]) == 1


def test_boundary_points_and_consistency_with_cross_ratio():
    interval = box([Fraction(-1)], [Fraction(1)])
    x, y = [Fraction(0)], [Fraction(1, 2)]
    s_low, s_high = _fraction_chord(interval, x, y)
    u = [a + s_low * (b - a) for a, b in zip(x, y)]
    v = [a + s_high * (b - a) for a, b in zip(x, y)]
    assert (u, v) == ([Fraction(-1)], [Fraction(1)])
    quad = [line_point(u[0]), line_point(v[0]), line_point(y[0]),
            line_point(x[0])]
    assert cross_ratio(*quad) == hilbert_log_argument(interval, x, y)


def test_exterior_point_rejected():
    interval = box([Fraction(-1)], [Fraction(1)])
    with pytest.raises(ValueError):
        hilbert_log_argument(interval, [Fraction(2)], [Fraction(0)])


def test_unbounded_chord_rejected():
    half = [Halfspace([1], 1)]
    with pytest.raises(ValueError):
        hilbert_log_argument(half, [Fraction(0)], [Fraction(1, 2)])


@pytest.mark.parametrize("x, y", [
    ([0], [Fraction(1, 2)]),
    ([0, 0, 5], [Fraction(1, 2), 0, -7]),
    ([0, 0], [Fraction(1, 2)]),
], ids=["both-short", "both-long", "y-short"])
def test_dimension_mismatch_rejected(x, y):
    # The chord pairs coordinates with face coefficients, so a point of
    # another dimension would silently lose or ignore coordinates.
    square = box([Fraction(-1)] * 2, [Fraction(1)] * 2)
    with pytest.raises(ValueError, match="dimension"):
        hilbert_log_argument(square, x, y)


def test_halfspace_constructor_refuses_floats():
    with pytest.raises(TypeError):
        Halfspace((0.5,), 1)
    with pytest.raises(TypeError):
        Halfspace((1,), 0.5)


def test_halfspace_row_stays_out_of_eq_hash_and_repr():
    face = Halfspace([Fraction(1, 2), Fraction(-2, 3)], Fraction(5, 4))
    assert face.row == (6, -8, 15)
    twin = Halfspace([Fraction(1, 2), Fraction(-2, 3)], Fraction(5, 4))
    object.__setattr__(twin, "row", (0, 0, 0))
    assert face == twin
    assert hash(face) == hash(twin) == hash((face.coeffs, face.bound))
    assert repr(face) == ("Halfspace(coeffs=(Fraction(1, 2), "
                          "Fraction(-2, 3)), bound=Fraction(5, 4))")


def test_polytope_file_parsing():
    faces = load_polytope("1\t1\n-1\t1\n")
    assert faces == [Halfspace([1], 1), Halfspace([-1], 1)]
    with pytest.raises(ValueError):
        load_polytope("")
    with pytest.raises(ValueError):
        load_polytope("1 2 3\n1 2\n")


inner = st.integers(min_value=1, max_value=9)
bounds = st.tuples(st.integers(min_value=-5, max_value=-1),
                   st.integers(min_value=1, max_value=5))


@st.composite
def box_with_points(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    lows, highs = [], []
    for _ in range(dim):
        lo, hi = draw(bounds)
        lows.append(Fraction(lo))
        highs.append(Fraction(hi))

    def interior():
        return [lo + Fraction(draw(inner), 10) * (hi - lo)
                for lo, hi in zip(lows, highs)]

    return box(lows, highs), interior(), interior(), interior()


@settings(max_examples=60)
@given(box_with_points())
def test_metric_axioms_on_random_boxes(instance):
    faces, x, y, z = instance
    r_xy = hilbert_log_argument(faces, x, y)
    assert r_xy >= 1
    assert (r_xy == 1) == (x == y)
    assert r_xy == hilbert_log_argument(faces, y, x)
    r_xz = hilbert_log_argument(faces, x, z)
    r_yz = hilbert_log_argument(faces, y, z)
    assert r_xz <= r_xy * r_yz


def _fraction_chord(polytope, x, y):
    """_chord's int pairs (num, den), den > 0, as Fractions."""
    limits = []
    for limit in _chord(polytope, x, y):
        if limit is not None:
            num, den = limit
            assert den > 0
            limit = Fraction(num, den)
        limits.append(limit)
    return tuple(limits)


def _reference_chord(polytope, x, y):
    """Reference oracle: the chord parameters in plain Fraction arithmetic,
    after the same interior checks, face by face and x before y."""
    def value(face, point):
        return sum(c * v for c, v in zip(face.coeffs, point))

    for face in polytope:
        if not value(face, x) < face.bound:
            raise ValueError("x is not interior to the polytope")
        if not value(face, y) < face.bound:
            raise ValueError("y is not interior to the polytope")
    direction = [b - a for a, b in zip(x, y)]
    s_low = s_high = None
    for face in polytope:
        rate = value(face, direction)
        if rate == 0:
            continue
        limit = (face.bound - value(face, x)) / rate
        if rate > 0:
            s_high = limit if s_high is None else min(s_high, limit)
        else:
            s_low = limit if s_low is None else max(s_low, limit)
    return s_low, s_high


small = st.fractions(min_value=-3, max_value=3, max_denominator=5)
# Mostly zeros, so many faces are parallel to an axis-aligned chord.
coefficient = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), small)


# About one face in eight puts x or y outside it or on it.
slacks = st.sampled_from([1] * 7 + [-1]).flatmap(
    lambda sign: st.fractions(min_value=0, max_value=4, max_denominator=7)
    .filter(lambda s: s > 0 or sign < 0).map(lambda s: sign * s))


@st.composite
def polytope_with_chord(draw):
    """x (sometimes the origin) and y (sometimes x moved along one axis,
    or x itself), then faces with rational coefficients whose bounds lie
    a drawn slack past the larger of a.x and a.y (sometimes a negative
    one, so a point falls outside), optionally closed by a box around
    x."""
    dim = draw(st.integers(min_value=1, max_value=3))
    # The origin makes a.x vanish on every face, rate or not.
    x = draw(st.one_of(st.just([Fraction(0)] * dim),
                       st.lists(small, min_size=dim, max_size=dim)))
    offset = st.fractions(min_value=-2, max_value=2,
                          max_denominator=9).filter(bool)
    kind = draw(st.sampled_from(["free", "free", "axis", "equal"]))
    if kind == "free":
        y = [v + draw(offset) for v in x]
    elif kind == "axis":
        k = draw(st.integers(min_value=0, max_value=dim - 1))
        y = list(x)
        y[k] += draw(offset)
    else:
        y = list(x)
    faces = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        coeffs = draw(st.lists(coefficient, min_size=dim, max_size=dim))
        bound = max(sum(c * v for c, v in zip(coeffs, p)) for p in (x, y))
        faces.append(Halfspace(coeffs, bound + draw(slacks)))
    if draw(st.booleans()):
        faces += box([v - 3 for v in x], [v + 3 for v in x])
    return draw(st.permutations(faces)), x, y


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=200, deadline=None)
@given(polytope_with_chord())
def test_int_chord_matches_fraction_reference(instance):
    faces, x, y = instance
    for p, q in ((x, y), (y, x)):
        expected = _outcome(_reference_chord, faces, p, q)
        assert _outcome(_fraction_chord, faces, p, q) == expected
        argument = _outcome(hilbert_log_argument, faces, p, q)
        if expected[0] == "ValueError":
            assert argument == expected
        elif p == q:
            assert argument == 1
        elif None in expected:
            assert argument == ("ValueError",
                                "polytope is unbounded along the chord")
        else:
            s_low, s_high = expected
            assert s_low < 0 < 1 < s_high
            assert argument == ((1 - s_low) * s_high) \
                / ((-s_low) * (s_high - 1))


def _reference_cross_ratio(p1, p2, p3, p4):
    """Reference oracle: the cross ratio in Fraction arithmetic, its
    pivot columns read off a Fraction rref."""
    lifts = [tuple(to_fraction(x) for x in p) for p in (p1, p2, p3, p4)]
    if len({len(v) for v in lifts}) != 1:
        raise ValueError("points live in different dimensions")
    _, pivots = Matrix(lifts).rref()
    if len(pivots) != 2:
        raise ValueError("cross ratio needs four collinear points "
                         "spanning a line")
    c1, c2 = pivots
    plane = [(v[c1], v[c2]) for v in lifts]

    def d(i, j):
        (x1, y1), (x2, y2) = plane[i], plane[j]
        return x1 * y2 - x2 * y1

    if d(0, 1) == 0 or d(0, 2) == 0 or d(0, 3) == 0 or d(1, 2) == 0 \
            or d(1, 3) == 0 or d(2, 3) == 0:
        raise ValueError("cross ratio needs pairwise distinct points")
    return (d(0, 2) * d(1, 3)) / (d(1, 2) * d(0, 3))


nonzero_scale = small.filter(bool)


@st.composite
def entry(draw, value):
    """value as an int (when integral), a Fraction or a "p/q" string,
    the string sometimes unreduced."""
    kind = draw(st.sampled_from(["int", "fraction", "str", "unreduced"]))
    if kind == "int" and value.denominator == 1:
        return int(value)
    if kind == "str":
        return format_rational(value)
    if kind == "unreduced":
        k = draw(st.integers(min_value=2, max_value=4))
        return f"{value.numerator * k}/{value.denominator * k}"
    return value


@st.composite
def four_points(draw):
    """Four points a p + b q of the line through p and q, each scaled
    by a nonzero, possibly negative rational.  The dimension is 1 to 4;
    from 2 on p and q are independent, and leading columns are sometimes
    zero, so the pivots lie further right and the first coordinate is
    0 (points at infinity).  Sometimes one point is moved off the line,
    repeated, or given another dimension.  Dimension 0 is left out:
    there the reference's Matrix refuses the empty rows with a message
    of its own."""
    dim = draw(st.sampled_from([1, 2, 2, 3, 3, 4, 4]))
    p, q = (draw(st.lists(coefficient, min_size=dim, max_size=dim))
            for _ in range(2))
    if dim > 1:
        # Zero columns before `lead`, and p, q independent: p is nonzero
        # at lead, where q is zero, and q is nonzero at j > lead.
        lead = draw(st.integers(min_value=0, max_value=dim - 2))
        j = draw(st.integers(min_value=lead + 1, max_value=dim - 1))
        p[:lead] = q[:lead] = [Fraction(0)] * lead
        p[lead], q[lead] = draw(nonzero_scale), Fraction(0)
        q[j] = draw(nonzero_scale)
    weights = st.tuples(st.integers(min_value=-3, max_value=3),
                        st.integers(min_value=-3, max_value=3))
    points = [[a * x + b * y for x, y in zip(p, q)]
              for a, b in draw(st.lists(weights, min_size=4, max_size=4))]
    kind = draw(st.sampled_from(["line"] * 5 + ["off", "repeat", "dim"]))
    k = draw(st.integers(min_value=0, max_value=3))
    if kind == "off":
        points[k] = draw(st.lists(small, min_size=dim, max_size=dim))
    elif kind == "repeat":
        points[k] = list(points[(k + 1) % 4])
    elif kind == "dim":
        points[k] = points[k] + [Fraction(1)] if dim < 4 else points[k][1:]
    scales = draw(st.lists(nonzero_scale, min_size=4, max_size=4))
    points = [[x * scale for x in point]
              for point, scale in zip(points, scales)]
    return [[draw(entry(x)) for x in point] for point in points]


@settings(max_examples=300, deadline=None)
@given(four_points())
def test_int_cross_ratio_matches_fraction_reference(points):
    assert _outcome(cross_ratio, *points) == \
        _outcome(_reference_cross_ratio, *points)
