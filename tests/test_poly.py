"""Exact polynomial arithmetic: examples, ring axioms, serialization."""

from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heiscert.heis import ENTRY_RING, PAIR_RING
from heiscert.poly import MAX_EXPONENT, Poly, PolyRing
from heiscert.rationals import parse_rational
from heiscert.convexity import nonneg_certificate

RING = PolyRing("a", "b", "c")
PAIR = PolyRing("a", "b", "c", "a'", "b'", "c'")
A, B, C = RING.vars("a", "b", "c")


def poly_from_terms(ring: PolyRing, terms: dict) -> Poly:
    """The polynomial of ring with the given Fraction or int
    coefficients, zero ones dropped, built through Poly.from_numerators
    over the lcm of their denominators."""
    coeffs = {e: Fraction(c) for e, c in terms.items() if c}
    den = lcm(*(c.denominator for c in coeffs.values()))
    return Poly.from_numerators(
        ring, {e: c.numerator * (den // c.denominator)
               for e, c in coeffs.items()}, den)


def test_additive_identity():
    assert (A + B) + RING.zero() == A + B


def test_difference_of_squares():
    assert (A + B) * (A - B) == A * A - B * B


def test_composed_center_coordinate():
    # (a*b' + c)*1 + c' expanded term by term
    a, bp, c, cp = PAIR.var("a"), PAIR.var("b'"), PAIR.var("c"), PAIR.var("c'")
    result = (a * bp + c) * PAIR.one() + cp
    expected = poly_from_terms(PAIR, {
        (1, 0, 0, 0, 1, 0): Fraction(1),
        (0, 0, 1, 0, 0, 0): Fraction(1),
        (0, 0, 0, 0, 0, 1): Fraction(1),
    })
    assert result == expected


def test_eval_orbit_head_coordinate():
    p = (A ** 4 + B ** 4) * Fraction(1, 24) + C ** 2
    assert p.eval({"a": 1, "b": 1, "c": 1}) == Fraction(13, 12)


def test_eval_at_zero_gives_constant_term():
    p = A * B + RING.const(Fraction(7, 3)) + C ** 2
    assert p.eval({"a": 0, "b": 0, "c": 0}) == Fraction(7, 3)


def test_eval_cubic_example():
    p = B ** 3 * Fraction(1, 6) + 2 * A * C
    assert p.eval({"a": 2, "b": 0, "c": 3}) == 12


def test_eval_missing_variable_raises():
    with pytest.raises(KeyError):
        (A + B).eval({"a": 1})


@pytest.mark.parametrize("value", [0.1, True], ids=["float", "bool"])
def test_eval_refuses_inexact_and_bool_values(value):
    with pytest.raises(TypeError):
        A.eval({"a": value})
    with pytest.raises(TypeError):
        RING.const(value)


def test_parse_reduces_rational_coefficients():
    assert RING.parse("2/4*a") == Fraction(1, 2) * A


# A zero denominator and decimal or exponent literals are malformed, not
# silently read as some other rational.
@pytest.mark.parametrize("text", ["1/0*a", "1.5*a", "1e3*a"],
                         ids=["zero-denominator", "decimal", "exponent"])
def test_parse_rejects_malformed_coefficients(text):
    with pytest.raises(ValueError):
        RING.parse(text)


# Spellings int() or Fraction would read but format_rational never
# writes: an underscore separator, a non-ASCII digit, a signed
# denominator and spaces around the slash.
@pytest.mark.parametrize("text", ["1_000", "\u0663", "1/-2", " 3 / 4 "],
                         ids=["underscore", "arabic-indic-digit",
                              "signed-denominator", "spaced-slash"])
def test_parse_reads_only_the_written_format(text):
    with pytest.raises(ValueError):
        parse_rational(text)
    with pytest.raises(ValueError):
        RING.parse(f"{text}*a")


def test_product_by_one_is_the_polynomial_itself():
    p = Fraction(1, 2) * A ** 2 + B * C
    assert p * 1 is p and 1 * p is p and p * Fraction(1) is p
    assert p * 2 == A ** 2 + 2 * B * C
    with pytest.raises(TypeError):
        p * True


def test_degree_in():
    n_ring = PolyRing("n")
    n = n_ring.var("n")
    assert (n ** 4 * Fraction(1, 24)).degree_in("n") == 4
    assert n_ring.zero().degree_in("n") == -1
    assert n_ring.zero().total_degree() == -1
    assert (2 * n ** 2 + n ** 2 * Fraction(1, 2)).degree_in("n") == 2


def test_power_past_exponent_bound_overflows():
    assert (A ** MAX_EXPONENT).degree_in("a") == MAX_EXPONENT
    with pytest.raises(OverflowError):
        RING.var("a") ** (MAX_EXPONENT + 1)


def test_parse_checks_exponent_bound():
    top = f"a^{MAX_EXPONENT}"
    assert RING.parse(top).degree_in("a") == MAX_EXPONENT
    assert RING.parse(f"a*a^{MAX_EXPONENT - 1}").degree_in("a") \
        == MAX_EXPONENT
    for text in (f"a^{MAX_EXPONENT + 1}", f"a*{top}", f"b + 2*a*{top}"):
        with pytest.raises(OverflowError):
            RING.parse(text)


def test_parse_zero_and_repeated_factors():
    assert RING.parse("0") == RING.zero()
    assert RING.parse("0*a") == RING.zero()
    assert RING.parse("a*a^2") == A ** 3
    assert RING.parse("2*a*b*3/4*a - b*c + c*b") \
        == Fraction(3, 2) * A ** 2 * B


@pytest.mark.parametrize("text", ["", "a^", "a^2^3", "a**2", "a + ", "x"],
                         ids=["empty", "no-exponent", "double-exponent",
                              "empty-factor", "dangling-sign",
                              "unknown-variable"])
def test_parse_rejects_malformed_terms(text):
    with pytest.raises(ValueError):
        RING.parse(text)


@pytest.mark.parametrize("value", [0, 3, -7, Fraction(3, 2)])
def test_constant_hashes_as_its_value(value):
    const = RING.const(value)
    assert const == value and hash(const) == hash(value)
    assert {value: "x"}.get(const) == "x"
    assert {const: "x"}.get(value) == "x"


def test_nonconstant_hashes_by_ring_and_terms():
    p = 2 * A * B + 1
    assert hash(p) == hash((RING, frozenset(p.terms.items())))
    assert {p: "x"}.get(RING.parse("1 + 2*a*b")) == "x"


def test_ring_mismatch_rejected():
    other = PolyRing("x", "y")
    with pytest.raises(ValueError):
        A + other.var("x")


def test_nonneg_certificate_even_powers():
    p = (A ** 4 + B ** 4) * Fraction(1, 24) + C ** 2
    ok, _ = nonneg_certificate(p)
    assert ok


def test_nonneg_certificate_zero_poly():
    ok, witnesses = nonneg_certificate(RING.zero())
    assert ok
    assert witnesses["terms"] == []


def test_nonneg_certificate_odd_monomial():
    ok, _ = nonneg_certificate(A * B)
    assert not ok


# -- rational canonical form ---------------------------------------------------

def test_fraction_canonical_form():
    x = Fraction(-6, -4)
    assert (x.numerator, x.denominator) == (3, 2)
    assert Fraction(x) == x  # renormalizing changes nothing


def test_fraction_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 0)


# -- property tests -------------------------------------------------------------

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(
    lambda f: f != 0)


@st.composite
def polys(draw, ring=RING):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    exponents = st.tuples(*(st.integers(min_value=0, max_value=3)
                            for _ in ring.names))
    terms = {}
    for _ in range(n_terms):
        terms[draw(exponents)] = draw(coeffs)
    return poly_from_terms(ring, terms)


assignments = st.fixed_dictionaries({
    "a": st.fractions(min_value=-3, max_value=3, max_denominator=2),
    "b": st.fractions(min_value=-3, max_value=3, max_denominator=2),
    "c": st.fractions(min_value=-3, max_value=3, max_denominator=2),
})


@settings(max_examples=80)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


def _reference_sum(*term_maps) -> dict:
    out: dict = {}
    for terms in term_maps:
        for e, c in terms.items():
            out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def _reference_product(left: dict, right: dict) -> dict:
    return _reference_sum(*({tuple(x + y for x, y in zip(e1, e2)): c1 * c2}
                            for e1, c1 in left.items()
                            for e2, c2 in right.items()))


@settings(max_examples=150)
@given(polys(), polys(), st.booleans())
def test_sum_and_product_match_a_fraction_dict_reference(p, q, cancel):
    """+ and * against plain dicts of Fraction, with terms that cancel
    down to the zero polynomial; every stored coefficient stays a nonzero
    Fraction, since certificates write coefficients as "p/q" text."""
    if cancel:
        q = poly_from_terms(
            RING, {**q.terms, **{e: -c for e, c in p.terms.items()}})
    cases = [(p + q, _reference_sum(p.terms, q.terms)),
             (p * q, _reference_product(p.terms, q.terms)),
             (p * q + (-p) * q, {}),
             (p + (-p), {})]
    for got, want in cases:
        assert got.terms == want
        assert all(type(c) is Fraction and c != 0
                   for c in got.terms.values())
    assert (p * q + (-p) * q).is_zero() and p + (-p) == RING.zero()


@settings(max_examples=80)
@given(polys(), polys(), assignments)
def test_eval_is_ring_homomorphism(p, q, point):
    assert (p * q).eval(point) == p.eval(point) * q.eval(point)
    assert (p + q).eval(point) == p.eval(point) + q.eval(point)


@settings(max_examples=120)
@given(polys())
def test_string_round_trip(p):
    assert RING.parse(str(p)) == p


@settings(max_examples=60)
@given(polys())
def test_graded_lex_string_is_deterministic(p):
    again = poly_from_terms(RING,
                            dict(reversed(list(p.terms.items()))))
    assert str(again) == str(p)


def test_power_and_substitute():
    p = (A + B) ** 2
    assert p == A ** 2 + 2 * A * B + B ** 2
    target = PolyRing("t")
    t = target.var("t")
    q = p.substitute({"a": t, "b": target.const(1)}, target)
    assert q == t ** 2 + 2 * t + 1


# -- int numerators over one denominator ------------------------------------------

def _assert_canonical(p: Poly) -> None:
    nums, den = p.numerators, p.denominator
    assert type(den) is int and den > 0
    assert all(type(c) is int and c != 0 for c in nums.values())
    assert gcd(den, *nums.values()) == 1
    if not nums:
        assert den == 1


@settings(max_examples=120)
@given(polys(), polys(), coeffs, st.integers(min_value=-4, max_value=4),
       st.integers(min_value=0, max_value=3))
def test_every_result_is_canonical(p, q, ratio, k, n):
    """den > 0, gcd(den, numerators) = 1, no zero numerator and den 1
    for the zero polynomial, after every operation; cancelling sums and
    scalings by 0 included."""
    for result in (p, p + q, p - q, p - p, p * q, p * (-p), p * ratio,
                   ratio * p, p * k, k * p, p * 0, -p, p ** n,
                   p + ratio, p * ratio * (1 / ratio)):
        _assert_canonical(result)


@settings(max_examples=120)
@given(polys(), polys())
def test_one_polynomial_by_every_route_is_one_value(p, q):
    """The same polynomial reached by different routes has one stored
    form, so it compares equal, hashes equal and prints the same."""
    third = Fraction(1, 3)
    routes = [
        RING.parse(str(p)),
        # Integral coefficients given as Fraction(k, 1) or as k.
        poly_from_terms(RING, {e: Fraction(c.numerator)
                               if c.denominator == 1 else c
                               for e, c in p.terms.items()}),
        poly_from_terms(RING, {e: c.numerator if c.denominator == 1 else c
                               for e, c in p.terms.items()}),
        (p * Fraction(1, 2)) * 2,
        # Sums whose denominators cancel.
        poly_from_terms(RING, {e: c + third
                               for e, c in p.terms.items()})
        + poly_from_terms(RING, {e: -third for e in p.terms}),
        (p + q * Fraction(1, 6)) - q * Fraction(1, 6),
    ]
    for route in routes:
        _assert_canonical(route)
        assert route == p and hash(route) == hash(p) and str(route) == str(p)
        assert (route.numerators, route.denominator) \
            == (p.numerators, p.denominator)


@settings(max_examples=100)
@given(st.sampled_from([RING, PAIR, PolyRing("n")]).flatmap(polys))
@example(RING.one())
def test_product_by_the_one_polynomial_is_the_other_factor(p):
    """p times the constant-one polynomial of its ring, on either side
    and from an equal ring built anew, is p itself; a ring mismatch
    still raises, and a constant other than 1 multiplies in full.  For
    p the constant 1 itself, one * p is the left factor, equal to p but
    not p, so there only equality is asserted."""
    one = p.ring.one()
    assert p * one is p
    for left in (one, PolyRing(*p.ring.names).one()):
        assert left * p is p or (p.is_one() and left * p == p)
    assert p * one == poly_from_terms(p.ring, p.terms)
    assert p * p.ring.const(2) == p * 2
    assert p * p.ring.const(Fraction(1, 2)) == p * Fraction(1, 2)
    with pytest.raises(ValueError, match="ring mismatch"):
        p * PolyRing("z").one()


# -- exact division ---------------------------------------------------------------

# A drawn polynomial and a nonzero one, both in ENTRY_RING or both in
# PAIR_RING.
poly_pairs = st.sampled_from([ENTRY_RING, PAIR_RING]).flatmap(
    lambda ring: st.tuples(polys(ring), polys(ring).filter(bool)))


@settings(max_examples=150)
@given(poly_pairs)
def test_exact_division_undoes_a_product(pair):
    p, q = pair
    quotient = (p * q) // q
    _assert_canonical(quotient)
    assert quotient == p


@settings(max_examples=80)
@given(polys(), st.one_of(st.integers(min_value=-6, max_value=6), coeffs)
       .filter(bool))
def test_division_by_a_rational_scales(p, c):
    quotient = p // c
    _assert_canonical(quotient)
    assert quotient * c == p
    assert quotient == p * (1 / Fraction(c))


@settings(max_examples=80)
@given(poly_pairs.filter(lambda pair: pair[1].total_degree() > 0))
def test_division_by_a_non_divisor_raises(pair):
    """q divides p q + 1 only if it divides 1, so a nonconstant q never
    does."""
    p, q = pair
    with pytest.raises(ValueError):
        (p * q + 1) // q


def test_division_examples():
    assert (A ** 2 - B ** 2) // (A - B) == A + B
    assert (A * Fraction(2, 3) * B) // (B * 4) == A * Fraction(1, 6)
    assert RING.zero() // (A + C) == RING.zero()
    assert (A + B) // Fraction(-1, 2) == -2 * A - 2 * B
    for numerator, divisor in [(A, B), (A + 1, A), (A * B, A ** 2),
                               (A ** 2 + B ** 2, A + B)]:
        with pytest.raises(ValueError):
            numerator // divisor


def test_division_in_a_ring_without_variables():
    ring = PolyRing()
    assert ring.const(2) // ring.const(4) == ring.const(Fraction(1, 2))


@pytest.mark.parametrize("zero", [0, Fraction(0), RING.zero()])
def test_division_by_zero_raises(zero):
    with pytest.raises(ZeroDivisionError):
        (A + B) // zero


@contextmanager
def _counting_fractions():
    """Count every Fraction built while the block runs."""
    original = Fraction.__dict__["__new__"]
    built = [0]

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    try:
        yield built
    finally:
        Fraction.__new__ = original


def test_poly_arithmetic_builds_no_fraction():
    """Sums, differences, products, int scalings and powers of
    polynomials with denominators run on their int numerators alone."""
    p = (A ** 4 + B ** 4) * Fraction(1, 24) + C ** 2
    q = A * Fraction(2, 3) - B * C * Fraction(1, 2) + 5
    with _counting_fractions() as built:
        results = [p + q, p - q, q - q, p * q, -q, q * 3, 2 * q, q * 0,
                   q ** 3, (p * q) * q + p, p * q == q * p]
    assert built[0] == 0
    assert results[2].is_zero() and results[-1]
    # The counter does see a Fraction that is built: the coefficient view.
    with _counting_fractions() as built:
        q.terms
    assert built[0] == len(q.numerators)
