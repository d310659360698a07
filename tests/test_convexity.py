"""Orbit map, limit behaviour, hull dimension, convexity and extreme points."""

import csv
import io
import shutil
from fractions import Fraction
from math import gcd

import pytest

from heiscert import convexity, lp, suites
from heiscert.certs import FAIL, PASS
from heiscert.convexity import (DEFAULT_RAY_TS, DEFAULT_RAYS, ORBIT_FORMULA,
                                ORBIT_LIFT, OrbitSample,
                                extreme_point_certificate,
                                limit_point_certificate, nonneg_certificate,
                                orbit_lift,
                                proper_convexity_certificate, sample_orbit)
from heiscert.heis import DATA_DIR, ENTRY_RING, EntryPlan, HeisElement, \
    get_representation, heis_mul, symbolic_pair
from heiscert.linalg import Matrix, clear_denominators
from heiscert.poly import PolyRing
from heiscert.rationals import format_rational, parse_rational
from heiscert.sampler import RandomStream
from test_certs import SEED0_CERTIFICATE_SHA256, _pin
from test_heis import rational_image, rational_lift

THETA = get_representation("theta")
# The homogeneous lift of the affine origin, e10.
ORIGIN = [Fraction(0)] * 9 + [Fraction(1)]


def _int_lift(g: HeisElement) -> list[Fraction]:
    """The orbit lift from the plan's int values R over d, as R / d."""
    values, d = convexity.ORBIT_LIFT_PLAN.integer_values(g)
    return [Fraction(x, d) for x in values]


def _lift_matrix(parameters) -> Matrix:
    """The Fraction lifts of the parameters, one row each."""
    return Matrix([rational_lift(p) for p in parameters])


def test_orbit_of_identity_is_origin():
    assert _int_lift(HeisElement.identity()) == ORIGIN


def test_orbit_point_explicit_value():
    point = _int_lift(HeisElement.of(1, 1, 1))
    expected = [Fraction(13, 12), 1, 1, Fraction(1, 6), Fraction(1, 2), 1,
                Fraction(1, 6), Fraction(1, 2), 1, 1]
    assert point == expected


def test_orbit_equals_matrix_column_sampled():
    stream = RandomStream(17).split("orbit-vs-matrix")
    for _ in range(100):
        g = HeisElement.of(*stream.next_triple())
        assert rational_image(THETA, g).apply(ORIGIN) == _int_lift(g)


def test_orbit_equals_matrix_column_symbolic():
    g = HeisElement.symbolic(ENTRY_RING)
    column = THETA(g).apply([ENTRY_RING.const(x) for x in ORIGIN])
    assert column == list(ORBIT_FORMULA) + [ENTRY_RING.one()]


def equivariant(g, h, law=heis_mul) -> bool:
    """Fraction reference: theta(g) maps the orbit lift of h to that of
    g*h under the given group law, at rational g and h."""
    return rational_image(THETA, g).apply(rational_lift(h)) == \
        rational_lift(law(g, h))


def test_equivariance_identity_element():
    assert equivariant(HeisElement.identity(), HeisElement.of(2, 3, 4))


def test_equivariance_generator_pair():
    g, h = HeisElement.of(1, 0, 0), HeisElement.of(0, 1, 0)
    assert tuple(heis_mul(g, h)) == (1, 1, 1)
    assert equivariant(g, h)


def test_equivariance_symbolic():
    g, h = symbolic_pair()
    assert THETA(g).apply(orbit_lift(h)) == orbit_lift(heis_mul(g, h))


def _law_without_ab(g, h):
    """The group law with its a*b' term dropped."""
    return HeisElement(g.a + h.a, g.b + h.b, g.c + h.c)


def _equivariance_pairs(seed):
    return suites._equivariance_sample(
        RandomStream(seed).split("orbit.equivariance"), 25)["pairs"]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("broken_law", [False, True])
def test_int_equivariance_agrees_with_certificate_per_pair(
        monkeypatch, seed, broken_law):
    """The claim's int loop (theta's int image times the orbit plan's int
    lift, cross-multiplied against the target's) lists exactly the pairs
    that the Fraction reference refuses, under the group law and under
    one without its a*b' term."""
    law = _law_without_ab if broken_law else heis_mul
    monkeypatch.setattr(suites, "heis_mul", law)
    pairs = _equivariance_pairs(seed)
    _, witnesses = suites._equivariance(pairs)
    refused = [{"g": list(g), "h": list(h)} for g, h in pairs
               if not equivariant(HeisElement.of(*g), HeisElement.of(*h),
                                  law)]
    assert witnesses["failures"] == refused
    assert bool(refused) == broken_law


@pytest.mark.parametrize("seed", [0, 3])
def test_int_equivariance_fails_pairs_that_meet_the_ab_term(monkeypatch,
                                                            seed):
    """With the target's group law missing a*b', the failures are exactly
    the pairs with a_g * b_h != 0, and the symbolic identity, which reads
    the same law, fails too."""
    monkeypatch.setattr(suites, "heis_mul", _law_without_ab)
    pairs = _equivariance_pairs(seed)
    ok, witnesses = suites._equivariance(pairs)
    assert not ok and witnesses["symbolic_identity"] is False
    failures = [{"g": list(g), "h": list(h)}
                for g, h in pairs if g[0] * h[1] != 0]
    assert failures and witnesses["failures"] == failures


# -- limit point ---------------------------------------------------------------

def test_shipped_rays_pass():
    ok, witnesses = limit_point_certificate()
    assert ok
    for report in witnesses["rays"]:
        ratios = report["ratios"]
        assert ratios[-1] < Fraction(1, 1000)
        assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))


def test_ray_degrees_are_symbolic_witnesses():
    _, witnesses = limit_point_certificate()
    for report in witnesses["rays"]:
        lead = report["leading_degree"]
        for d in report["other_degrees"]:
            assert d == "-inf" or d < lead


def test_constant_ray_rejected():
    ring = PolyRing("t")
    flat = (ring.const(1), ring.const(0), ring.const(0))
    with pytest.raises(ValueError):
        limit_point_certificate([flat], DEFAULT_RAY_TS)


def test_unsorted_t_values_rejected():
    with pytest.raises(ValueError):
        limit_point_certificate(DEFAULT_RAYS, [Fraction(10), Fraction(5)])


def test_t_zero_rejected():
    with pytest.raises(ValueError, match="t values must be positive"):
        limit_point_certificate(DEFAULT_RAYS, [Fraction(0), Fraction(10)])


def test_empty_t_schedule_rejected():
    with pytest.raises(ValueError, match="t values must be positive"):
        limit_point_certificate(DEFAULT_RAYS, [])


def test_nonpositive_first_coordinate_fails_naming_ray_and_t(monkeypatch):
    """On the ray (t - 10, 0, 0), x1 = (t - 10)^4/24 is 0 at t = 10: the
    ray FAILs naming t = 10 rather than dividing by zero.  With
    x1 = (a^4 + b^4)/24 - c^2 in the orbit plan, x1 = -25 t^2 on the ray
    (0, 0, 5t): the claim FAILs instead of crashing, and the ray's report
    names t = 10 with no ratio before it, while the other shipped rays
    still pass."""
    ring = PolyRing("t")
    t = ring.var("t")
    ok, witnesses = limit_point_certificate([(t - 10, ring.zero(),
                                              ring.zero())])
    (report,) = witnesses["rays"]
    assert not ok and report["passes"] is False
    assert report["first_coordinate_not_positive_at"] == Fraction(10)
    assert report["ratios"] == []

    a, b, c = ENTRY_RING.vars("a", "b", "c")
    first = (a ** 4 + b ** 4) * Fraction(1, 24) - c ** 2
    monkeypatch.setattr(convexity, "ORBIT_LIFT_PLAN",
                        EntryPlan((first, *ORBIT_LIFT[1:])))
    ray = DEFAULT_RAYS[1]
    ok, witnesses = limit_point_certificate([ray])
    (report,) = witnesses["rays"]
    assert not ok and report["passes"] is False
    assert report["ray"] == [str(p) for p in ray] == ["0", "0", "5*t"]
    assert report["first_coordinate_not_positive_at"] == Fraction(10)
    assert report["ratios"] == []
    certificate = suites.CLAIMS_BY_ID["orbit.limit_point"].run(
        suites.RunConfig(seed=0))
    assert certificate.verdict == FAIL
    assert "error" not in certificate.witnesses
    assert [r["passes"] for r in certificate.witnesses["rays"]] == \
        [True, False, True]


def test_ray_with_equal_first_ratios_fails():
    """On the ray ((t - 55)^2, 0, 0), a = 2025 at both t = 10 and
    t = 100, so the first two ratios are equal: not strictly falling,
    though the degrees pass and the last ratio is below 1/1000."""
    ring = PolyRing("t")
    t = ring.var("t")
    ray = ((t - 55) ** 2, ring.zero(), ring.zero())
    ok, witnesses = limit_point_certificate([ray], (10, 100, 4000))
    (report,) = witnesses["rays"]
    assert not ok and report["passes"] is False
    assert all(d == "-inf" or d < report["leading_degree"]
               for d in report["other_degrees"])
    first, second, last = report["ratios"]
    assert first == second and last < Fraction(1, 1000)


def test_coordinate_tying_the_first_degree_fails(monkeypatch):
    """With x2 = (a^4 + a^3)/10^9 in the orbit plan, x2 ties x1's degree
    4 on the ray (5t, 0, 0), while the ratios fall 0.08, 0.008, 0.0008:
    the ray FAILs on its degrees alone."""
    a, _, _ = ENTRY_RING.vars("a", "b", "c")
    second = (a ** 4 + a ** 3) * Fraction(1, 10 ** 9)
    monkeypatch.setattr(convexity, "ORBIT_LIFT_PLAN", EntryPlan(
        (ORBIT_LIFT[0], second, *ORBIT_LIFT[2:])))
    ray = DEFAULT_RAYS[0]
    ok, witnesses = limit_point_certificate([ray])
    (report,) = witnesses["rays"]
    assert not ok and report["passes"] is False
    assert report["ray"] == ["5*t", "0", "0"]
    assert report["leading_degree"] == report["other_degrees"][0] == 4
    assert report["ratios"] == [Fraction(8, 100), Fraction(8, 1000),
                                Fraction(8, 10000)]


def test_slow_ray_fails_domination_bound():
    # x1 = t^4/24 vs x4 = t^3/6 leaves ratio 4/t = 1/250 at t = 1000,
    # which misses the 1/1000 bound: the scaling on shipped rays matters.
    # At t = 4000 the ratio is the bound itself, which still fails.
    ring = PolyRing("t")
    t = ring.var("t")
    slow = (t, ring.zero(), ring.zero())
    for t_values, last in ((DEFAULT_RAY_TS, Fraction(1, 250)),
                           ((10, 100, 4000), Fraction(1, 1000))):
        ok, witnesses = limit_point_certificate([slow], t_values)
        assert not ok
        assert witnesses["rays"][0]["ratios"][-1] == last


# -- hull dimension -------------------------------------------------------------

def test_frozen_hull_sample_has_nonzero_determinant():
    sample = sample_orbit(*convexity.HULL_SAMPLE)
    assert _lift_matrix(sample.parameters).det() != 0


def test_repeated_point_matrix_is_singular():
    lift = rational_lift(HeisElement.identity())
    assert Matrix([lift] * 10).det() == 0


@pytest.mark.parametrize("first, again", [
    ((Fraction(2, 2), 0, 0), (1, 0, 0)),
    (("1/2", 0, 0), (Fraction(1, 2), 0, 0))])
def test_orbit_sample_refuses_one_point_written_two_ways(first, again):
    with pytest.raises(ValueError, match="must be distinct"):
        OrbitSample([first, (0, 1, 0), again])


def test_center_only_sample_is_degenerate():
    params = [(Fraction(0), Fraction(0), Fraction(k)) for k in range(1, 11)]
    assert _lift_matrix(OrbitSample(params).parameters).det() == 0


def test_lift_det_matches_fraction_lift_matrix():
    """suites._lift_det, det of the int lift rows over the product of
    their denominators, equals the determinant of the Fraction lifts on
    the frozen sample, the central one and fresh draws at seed 3 (a
    Fraction, which certificates write as "p/q"), and still refuses
    nine points and a repeated point."""
    drawn = suites._hull_dimension_sample(
        RandomStream(3).split("hull.dimension"), 20)
    frozen = drawn["frozen"]
    center = suites._degenerate_center_inputs()["parameters"]
    for raw in [frozen, center, *drawn["fresh"]]:
        det = suites._lift_det(raw)
        assert type(det) is Fraction
        assert det == _lift_matrix(OrbitSample(raw).parameters).det()
    assert suites._lift_det(center) == 0 != suites._lift_det(frozen)
    for bad in (frozen[:9], frozen[:9] + frozen[:1]):
        with pytest.raises(ValueError):
            suites._lift_det(bad)


def test_fresh_seeded_samples_stay_nondegenerate():
    for seed in range(1, 21):
        assert _lift_matrix(
            sample_orbit(10, seed, "hull").parameters).det() != 0


def test_hull_dimension_invariant_under_group_images():
    sample = sample_orbit(*convexity.HULL_SAMPLE)
    stream = RandomStream(23).split("hull-invariance")
    for index in range(3):
        g = HeisElement.of(*stream.next_triple())
        params = list(sample.parameters)
        params[index] = tuple(heis_mul(g, HeisElement.of(*params[index])))
        moved = OrbitSample(params)
        assert _lift_matrix(moved.parameters).det() != 0


# -- proper convexity ------------------------------------------------------------

def test_proper_convexity_certificate():
    ok, witnesses = proper_convexity_certificate()
    assert ok
    assert witnesses["halfspace"] == "x1 >= 0"


def test_mutated_first_coordinate_fails():
    a = ENTRY_RING.var("a")
    ok, _ = nonneg_certificate(a ** 3)
    assert not ok


def test_first_coordinate_nonnegative_numerically():
    stream = RandomStream(29).split("convexity-spot")
    first = ORBIT_FORMULA[0]
    for _ in range(1000):
        a, b, c = stream.next_triple()
        assert first.eval({"a": a, "b": b, "c": c}) >= 0


# -- extreme points ---------------------------------------------------------------

def test_simplex_vertex_is_extreme():
    params = [(Fraction(k), Fraction(0), Fraction(0)) for k in range(11)]
    sample = OrbitSample(params)
    ok, functional = extreme_point_certificate(sample, 0)
    assert ok
    assert isinstance(functional, list) and len(functional) == 11


def test_simplex_centroid_is_not_extreme():
    from test_lp import convex_combination_weights
    vertices = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)],
                [Fraction(0), Fraction(1)]]
    centroid = [Fraction(1, 3), Fraction(1, 3)]
    result = convex_combination_weights(vertices, centroid)
    assert result.feasible
    assert result.solution == [Fraction(1, 3)] * 3


def test_all_shipped_points_are_extreme():
    sample = sample_orbit(*convexity.EXTREME_SAMPLE)
    assert len(sample) == 20
    for index in range(len(sample)):
        ok, _ = extreme_point_certificate(sample, index)
        assert ok


def _dot(y, lift) -> Fraction:
    # A functional acts on the LP column (lift, 1): the lift's
    # coordinates plus the weights' sum row.
    return sum(a * b for a, b in zip(y, [*lift, 1]))


def test_extreme_points_fail_body_lists_weights_for_an_inner_point(
        monkeypatch):
    """With the int lift of one shipped point replaced by the midpoint
    of two others' lifts, hull.extreme_points fails on its int columns;
    that point's entry is {"weights": w}, a convex combination of the
    other lifts giving it, and every other entry is a functional that
    separates its point from the rest."""
    parameters = suites._extreme_points_inputs()["parameters"]
    inner = 5
    inner_g = HeisElement.of(*parameters[inner])
    lifts = [rational_lift(p) for p in parameters]
    midpoint = [(x + y) / 2 for x, y in zip(*lifts[:2])]
    lifts[inner] = midpoint
    (ints,), scale = clear_denominators([midpoint])
    plan = convexity.ORBIT_LIFT_PLAN
    values = plan.integer_values
    monkeypatch.setattr(plan, "integer_values",
                        lambda g: (ints, scale) if g == inner_g else values(g))
    column, column_scale = OrbitSample(parameters).columns[inner]
    assert [Fraction(x, column_scale) for x in column] == [*midpoint, 1]

    ok, witnesses = suites._extreme_points(parameters)
    assert not ok and witnesses["all_extreme"] is False
    entries = witnesses["separating_functionals"]
    assert isinstance(entries, list) and len(entries) == len(parameters)
    w = entries[inner]["weights"]
    assert list(entries[inner]) == ["weights"]
    others = [lift for i, lift in enumerate(lifts) if i != inner]
    assert len(w) == len(others)
    assert all(x >= 0 for x in w) and sum(w) == 1
    assert [sum(wi * lift[k] for wi, lift in zip(w, others))
            for k in range(len(midpoint))] == midpoint
    for i, y in enumerate(entries):
        if i == inner:
            continue
        assert isinstance(y, list)
        assert _dot(y, lifts[i]) > 0
        assert all(_dot(y, lift) <= 0
                   for j, lift in enumerate(lifts) if j != i)


def _no_simplex(*args):
    raise AssertionError("the simplex ran")


def _extreme_points_seed0() -> str:
    """The pin of a seed-0 hull.extreme_points certificate."""
    certificate = suites.CLAIMS_BY_ID["hull.extreme_points"].run(
        suites.RunConfig(seed=0))
    assert certificate.verdict == PASS
    return _pin(certificate.to_json())


def test_shipped_functionals_certify_the_shipped_sample_without_the_lp(
        monkeypatch):
    """Every shipped functional separates its point from the rest of the
    shipped sample, so hull.extreme_points solves no LP and its
    certificate is the pinned one."""
    monkeypatch.setattr(lp, "solve_equality_feasibility", _no_simplex)
    assert _extreme_points_seed0() == \
        SEED0_CERTIFICATE_SHA256["hull.extreme_points"]


@pytest.mark.parametrize("factor", [-1, 0], ids=["negated", "zeroed"])
def test_a_functional_that_does_not_separate_goes_to_the_lp(
        factor, monkeypatch, tmp_path):
    """With one shipped functional negated or zeroed, that point alone
    goes to the LP, which finds the pinned functional again: a shipped
    functional that does not separate never reaches a certificate."""
    data = tmp_path / "data"
    shutil.copytree(DATA_DIR, data)
    path = data / "extreme_functionals.tsv"
    bad = 7
    rows = Matrix.from_text(path.read_text()).entries
    rows = [(*row[:3], *(x * factor for x in row[3:])) if i == bad else row
            for i, row in enumerate(rows)]
    path.write_text("".join("\t".join(map(format_rational, row)) + "\n"
                            for row in rows))
    monkeypatch.setattr(suites, "DATA_DIR", data)
    solved = []
    certificate = convexity.extreme_point_certificate
    monkeypatch.setattr(convexity, "extreme_point_certificate",
                        lambda sample, i: solved.append(i)
                        or certificate(sample, i))
    assert _extreme_points_seed0() == \
        SEED0_CERTIFICATE_SHA256["hull.extreme_points"]
    assert solved == [bad]


def test_shipped_functionals_are_found_by_point_not_by_position(
        monkeypatch):
    """With the shipped parameters reversed, each entry is still its own
    point's shipped row, and no LP runs."""
    monkeypatch.setattr(lp, "solve_equality_feasibility", _no_simplex)
    parameters = suites._extreme_points_inputs()["parameters"][::-1]
    ok, witnesses = suites._extreme_points(parameters)
    shipped = {row[:3]: list(row[3:]) for row in Matrix.from_text(
        (DATA_DIR / "extreme_functionals.tsv").read_text()).entries}
    assert ok and witnesses["separating_functionals"] == \
        [shipped[p] for p in parameters]


def test_too_small_sample_rejected():
    with pytest.raises(ValueError):
        extreme_point_certificate(sample_orbit(*convexity.HULL_SAMPLE), 0)


# -- orbit sample plumbing ---------------------------------------------------------

def test_lifts_are_computed_once_and_immutable(monkeypatch):
    """A sample's LP columns (lift, 1) take one integer_values call per
    point, once per sample, are immutable, and are each reduced by the
    gcd of their ints and scale."""
    sample = OrbitSample([(1, 2, 3), (0, -1, Fraction(1, 2))])
    plan = convexity.ORBIT_LIFT_PLAN
    values = plan.integer_values
    calls = []
    monkeypatch.setattr(plan, "integer_values",
                        lambda g: calls.append(g) or values(g))
    first = sample.columns
    with pytest.raises(TypeError):
        first[0][0][0] = -7
    with pytest.raises(TypeError):
        first[0] = first[1]
    assert sample.columns is first
    assert calls == [HeisElement.of(*p) for p in sample.parameters]
    assert [[Fraction(x, scale) for x in ints] for ints, scale in first] == \
        [[*rational_lift(p), 1] for p in sample.parameters]
    assert [gcd(scale, *ints) for ints, scale in first] == [1, 1]


def test_sample_csv_round_trip():
    sample = sample_orbit(*convexity.HULL_SAMPLE)
    header, *rows = csv.reader(io.StringIO(sample.to_csv()))
    assert header == ["a", "b", "c"]
    assert [tuple(map(parse_rational, row)) for row in rows] == \
        sample.parameters


@pytest.mark.parametrize("sample", [
    sample_orbit(*convexity.HULL_SAMPLE),
    sample_orbit(*convexity.EXTREME_SAMPLE),
    sample_orbit(30, 7, "drawn", nonzero=True)],
    ids=["hull", "extreme", "drawn"])
def test_sample_csv_is_what_csv_writer_writes(sample):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["a", "b", "c"])
    writer.writerows([format_rational(x) for x in p]
                     for p in sample.parameters)
    assert sample.to_csv() == buf.getvalue()


def test_sampling_is_deterministic():
    assert sample_orbit(10, 4, "hull").parameters == \
        sample_orbit(10, 4, "hull").parameters


def test_duplicate_parameters_rejected():
    with pytest.raises(ValueError):
        OrbitSample([(Fraction(1), Fraction(0), Fraction(0))] * 2)
