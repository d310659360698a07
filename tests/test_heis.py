"""Group law, entry tables, homomorphism and injectivity verification."""

from fractions import Fraction

import pytest

from heiscert.convexity import ORBIT_LIFT, ORBIT_LIFT_PLAN, orbit_lift
from heiscert.heis import (ENTRY_RING, GENERATORS, EntryPlan, HeisElement,
                           Representation, generator_power,
                           get_representation, heis_mul,
                           load_representation, one_parameter_power,
                           symbolic_pair, verify_homomorphism,
                           verify_injectivity_generators)
from heiscert.linalg import Matrix
from heiscert.poly import Poly, PolyRing
from heiscert.restriction import GROWTH_RING
from heiscert.sampler import RandomStream
from test_poly import poly_from_terms

THETA = get_representation("theta")
RHO6 = get_representation("rho6")
RHO14 = get_representation("rho14")
ALL_REPS = (THETA, RHO6, RHO14)


def rational_image(rep: Representation, g) -> Matrix:
    """rep's matrix at the rational point g, each entry its table
    entry's Poly.eval: the Fraction oracle for the int route, sharing no
    code with EntryPlan."""
    point = dict(zip(ENTRY_RING.names, g))
    return Matrix([[p.eval(point) for p in row]
                   for row in rep.table.entries])


def rational_lift(g) -> list[Fraction]:
    """The orbit lift at the rational point g, entry by entry with
    Poly.eval on ORBIT_LIFT."""
    point = dict(zip(ENTRY_RING.names, g))
    return [p.eval(point) for p in ORBIT_LIFT]


def inverse(g: HeisElement) -> HeisElement:
    """g^-1, read off the group law: (a, b, c)^-1 = (-a, -b, ab - c)."""
    return HeisElement(-g.a, -g.b, -g.c + g.a * g.b)


def test_identity_is_neutral():
    g = HeisElement.of(3, -1, Fraction(1, 2))
    assert heis_mul(HeisElement.identity(), g) == g
    assert heis_mul(g, HeisElement.identity()) == g


def test_element_is_immutable_and_hashes_by_value():
    g = HeisElement.of(3, -1, Fraction(1, 2))
    with pytest.raises(AttributeError):
        g.a = Fraction(0)
    twin = HeisElement.of(Fraction(6, 2), -1, Fraction(1, 2))
    assert g == twin
    assert hash(g) == hash(twin)


@pytest.mark.parametrize("value", [0.1, True], ids=["float", "bool"])
def test_element_refuses_inexact_and_bool_components(value):
    with pytest.raises(TypeError):
        HeisElement.of(value, 0, 0)


def test_group_law_examples():
    assert heis_mul(HeisElement.of(1, 0, 0), HeisElement.of(0, 1, 0)) == \
        HeisElement.of(1, 1, 1)
    assert heis_mul(HeisElement.of(1, 2, 3), HeisElement.of(4, 5, 6)) == \
        HeisElement.of(5, 7, 14)


def test_group_law_matches_3x3_matrices():
    from heiscert.cone import heis_3x3
    stream = RandomStream(11).split("law-oracle")
    for _ in range(20):
        g = HeisElement.of(*stream.next_triple())
        h = HeisElement.of(*stream.next_triple())
        assert Matrix(heis_3x3(g)) * Matrix(heis_3x3(h)) == \
            Matrix(heis_3x3(heis_mul(g, h)))


def test_associativity_symbolic_nine_variables():
    ring = PolyRing("a", "b", "c", "a'", "b'", "c'", "a''", "b''", "c''")
    g = HeisElement.symbolic(ring, ("a", "b", "c"))
    h = HeisElement.symbolic(ring, ("a'", "b'", "c'"))
    k = HeisElement.symbolic(ring, ("a''", "b''", "c''"))
    assert heis_mul(heis_mul(g, h), k) == heis_mul(g, heis_mul(h, k))


def test_inverse_symbolic():
    g = HeisElement.symbolic(ENTRY_RING)
    assert heis_mul(g, inverse(g)) == HeisElement.identity()
    assert heis_mul(inverse(g), g) == HeisElement.identity()


def test_theta_row_at_first_generator():
    rows, d = THETA.integer_image(HeisElement.of(1, 0, 0))
    assert [Fraction(x, d) for x in rows[0]] == \
        [Fraction(x) for x in (1, 2, 0, 1, Fraction(1, 2), Fraction(1, 6), 0,
                               2, 0, Fraction(1, 24))]


def test_rho6_row_at_central_generator():
    rows, d = RHO6.integer_image(HeisElement.of(0, 0, 1))
    assert [Fraction(x, d) for x in rows[0]] == [1, 0, 0, 2, 0, 1]


def test_tables_specialize_to_identity():
    """Each table's int image is d I at the identity, and each table is
    itself, as is the orbit lift, at the generic element (a, b, c)."""
    for rep in ALL_REPS:
        n = rep.dimension
        rows, d = rep.integer_image(HeisElement.identity())
        assert rows == [[d * (i == j) for j in range(n)] for i in range(n)]
        assert rep(HeisElement.symbolic()) == rep.table
    assert orbit_lift(HeisElement.symbolic()) == list(ORBIT_LIFT)


def test_homomorphism_certificates():
    for rep in ALL_REPS:
        ok, _ = verify_homomorphism(rep)
        assert ok


def _mutated_theta() -> Representation:
    a, b = ENTRY_RING.vars("a", "b")
    entries = [list(row) for row in THETA.table.entries]
    entries[0][9] = (a ** 4 + b ** 4) * Fraction(1, 24)  # drops the c^2 term
    return Representation("theta_mutated", 10, Matrix(entries))


def test_mutated_table_fails_homomorphism():
    ok, witnesses = verify_homomorphism(_mutated_theta())
    assert not ok
    # theta's (1, 10) entry lost its c^2 term, so the first mismatch is
    # there: the product's entry minus the composed one.
    assert witnesses["first_nonzero_entry"] == {
        "row": 1, "col": 10,
        "value": "a^2*b'^2 + 2*a*c*b' + 2*a*b'*c' + 2*c*c'"}


def test_injectivity_witness_positions():
    ok, witnesses = verify_injectivity_generators(THETA)
    assert ok
    positions = witnesses["positions"]
    assert [5, 6] in positions["a"]
    assert [9, 10] in positions["b"]
    assert [3, 10] in positions["c"]

    ok6, witnesses6 = verify_injectivity_generators(RHO6)
    assert ok6
    positions6 = witnesses6["positions"]
    assert [4, 5] in positions6["a"]
    assert [5, 6] in positions6["b"]
    assert [4, 6] in positions6["c"]


def test_trivial_representation_fails_injectivity():
    trivial = Representation("trivial", 1, Matrix([[ENTRY_RING.one()]]))
    ok, _ = verify_injectivity_generators(trivial)
    assert not ok


def test_table_outside_entry_ring_rejected():
    other = PolyRing("x")
    table = Matrix([[ENTRY_RING.one(), other.var("x")],
                    [ENTRY_RING.zero(), ENTRY_RING.one()]])
    with pytest.raises(ValueError, match="not in"):
        Representation("foreign", 2, table)


def test_inverse_matrices_for_sampled_elements():
    stream = RandomStream(3).split("inverses")
    for rep in ALL_REPS:
        for _ in range(50):
            g = HeisElement.of(*stream.next_triple())
            assert rational_image(rep, g) * rational_image(
                rep, inverse(g)) == Matrix.identity(rep.dimension)


def test_commutator_relations_in_every_representation():
    a, b, c = GENERATORS["A"], GENERATORS["B"], GENERATORS["C"]
    for rep in ALL_REPS:
        ma, mb, mc = (rational_image(rep, g) for g in (a, b, c))
        ia, ib, ic = (rational_image(rep, inverse(g)) for g in (a, b, c))
        identity = Matrix.identity(rep.dimension)
        commutator = ma * mb * ia * ib
        assert commutator == mc
        assert ma * mc * ia * ic == identity
        assert mb * mc * ib * ic == identity


def _at(power: Matrix, n: int) -> Matrix:
    """The one-parameter power specialized at n."""
    return Matrix([[p.eval({"n": n}) for p in row] for row in power.entries])


def test_one_parameter_power_at_zero_is_identity():
    ring = PolyRing("n")
    for rep in ALL_REPS:
        power = one_parameter_power(rep, "A", ring)
        assert _at(power, 0) == Matrix.identity(rep.dimension)


def test_rho14_quartic_entry():
    ring = PolyRing("n")
    power = one_parameter_power(RHO14, "A", ring)
    n = ring.var("n")
    assert power[0, 9] == n ** 4 * Fraction(1, 24)


def test_theta_power_plan_holds_the_all_element_jordan_facts():
    """theta's N = T - I has nonzero powers on supports 9x9, 7x6, 4x3
    and 1x1; N^4 is the one entry a^4 + 6a^2b^2 + b^4 at (1,10), and
    N^5 = 0.  The plan holds each power's entries on its support, and
    every entry off it is zero; over Q(a, b, c) the blocks have ranks 7,
    4, 2 and 1, each witnessed by a minor, the last pivot of its
    echelon pass.  A loaded table compiles the plan on its first rank
    call, and later calls share it."""
    theta = load_representation("theta", 10)
    assert theta.power_plan is None
    theta.nilpotent_ranks(HeisElement.of(1, 2, 3))
    plan = theta.power_plan
    theta.nilpotent_ranks(HeisElement.of(0, 0, 1))
    assert theta.power_plan is plan
    assert [(len(rows), len(cols)) for rows, cols in plan.supports] == \
        [(9, 9), (7, 6), (4, 3), (1, 1)]
    assert plan.supports[-1] == ((0,), (9,))
    assert str(plan.entries.polys[-1]) == "a^4 + 6*a^2*b^2 + b^4"
    assert plan.ranks == (7, 4, 2, 1)
    assert [str(p) for p in plan.minors.polys] == \
        ["2*a^5*b^2", "6*a^5*b^3", "3*a^4*b^2", "a^4 + 6*a^2*b^2 + b^4"]
    nilpotent = theta.table - Matrix.identity(10)
    power = nilpotent
    polys = []
    for rows, cols in plan.supports:
        polys += [power[i, j] for i in rows for j in cols]
        assert all(power[i, j].is_zero() for i in range(10)
                   for j in range(10) if i not in rows or j not in cols)
        power = power * nilpotent
    assert list(plan.entries.polys) == polys
    assert power.is_zero()


def test_one_parameter_power_matches_iterated_products():
    ring = PolyRing("n")
    for rep in ALL_REPS:
        for gen_name in ("A", "B", "C"):
            symbolic = one_parameter_power(rep, gen_name, ring)
            iterated = Matrix.identity(rep.dimension)
            gen_matrix = rational_image(rep, GENERATORS[gen_name])
            for k in range(1, 7):
                iterated = iterated * gen_matrix
                assert _at(symbolic, k) == iterated


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_generator_power_matches_iterated_products(name, count):
    g = GENERATORS[name]
    iterated = HeisElement.identity()
    for _ in range(count):
        iterated = heis_mul(iterated, g)
    assert generator_power(g, count) == iterated
    # g^(count/3) cubed is g^count.
    root = generator_power(g, Fraction(count, 3))
    assert heis_mul(heis_mul(root, root), root) == iterated


def test_unknown_generator_rejected():
    with pytest.raises(KeyError):
        one_parameter_power(THETA, "Z", PolyRing("n"))


def _symbolic_elements():
    g, h = symbolic_pair()
    n, zero = GROWTH_RING.var("n"), GROWTH_RING.zero()
    return {
        "symbolic": HeisElement.symbolic(),
        "pair_g": g,
        "pair_h": h,
        "pair_gh": heis_mul(g, h),
        "growth_A": HeisElement(n, zero, zero),
        "growth_B": HeisElement(zero, n, zero),
        "growth_C": HeisElement(zero, zero, n),
        # Rational components are lifted into the ring of the others.
        "growth_mixed": HeisElement.of(n, Fraction(-2, 3), 5),
    }


@pytest.mark.parametrize("name", sorted(_symbolic_elements()))
def test_symbolic_specialize_matches_substitute(name):
    """Shared monomials give each entry what Poly.substitute gives it."""
    g = _symbolic_elements()[name]
    ring = next(x.ring for x in g if isinstance(x, Poly))
    mapping = dict(zip(ENTRY_RING.names, g))
    tables = [[p for row in rep.table.entries for p in row]
              for rep in ALL_REPS]
    for polys in tables + [list(ORBIT_LIFT)]:
        expected = [p.substitute(mapping, ring) for p in polys]
        assert EntryPlan(polys).specialize(g) == expected
    # All three tables in one plan share their monomials.
    flat = [p for polys in tables for p in polys]
    assert EntryPlan(flat).specialize(g) == \
        [p.substitute(mapping, ring) for p in flat]


def test_symbolic_specialize_with_denominators_matches_substitute():
    """Components with denominators, a rational one lifted into the ring
    among them, give each entry what Poly.substitute gives it."""
    a, b, c = ENTRY_RING.vars("a", "b", "c")
    g, h = symbolic_pair()
    half = Fraction(1, 2)
    elements = [
        HeisElement(a * half, b, c * Fraction(1, 3)),
        HeisElement.of(a * half, Fraction(-2, 3), c - Fraction(5, 7)),
        heis_mul(g, HeisElement(h.a * half, h.b, h.c * half + h.a)),
    ]
    polys = [p for rep in ALL_REPS for row in rep.table.entries
             for p in row] + list(ORBIT_LIFT)
    plan = EntryPlan(polys)
    for element in elements:
        ring = element.a.ring
        mapping = dict(zip(ENTRY_RING.names, element))
        got = plan.specialize(element)
        for p, value in zip(polys, got):
            assert value == p.substitute(mapping, ring)


def _reference_entry(left_row, right_column, composed) -> Poly:
    """sum_k left_row[k] * right_column[k] - composed, added up as
    dicts of Fraction coefficients."""
    total: dict = {}
    for x, y in zip(left_row, right_column):
        for e1, c1 in x.terms.items():
            for e2, c2 in y.terms.items():
                e = tuple(i + j for i, j in zip(e1, e2))
                total[e] = total.get(e, Fraction(0)) + c1 * c2
    for e, c in composed.terms.items():
        total[e] = total.get(e, Fraction(0)) - c
    return poly_from_terms(composed.ring, total)


def test_fractional_tamper_fails_homomorphism_with_reference_text():
    """A table entry tampered by + a^2/3 fails the check, and the FAIL
    text is the one the Fraction reference difference prints."""
    a = ENTRY_RING.var("a")
    entries = [list(row) for row in THETA.table.entries]
    entries[0][9] = entries[0][9] + a ** 2 * Fraction(1, 3)
    tampered = Representation("theta_tampered", 10, Matrix(entries))
    ok, witnesses = verify_homomorphism(tampered)
    assert not ok
    first = witnesses["first_nonzero_entry"]
    i, j = first["row"] - 1, first["col"] - 1
    g, h = symbolic_pair()
    left, right = tampered(g), tampered(h)
    reference = _reference_entry(left.row(i), right.column(j),
                                 tampered(heis_mul(g, h))[i, j])
    assert (i, j) == (0, 9) and not reference.is_zero()
    assert first["value"] == str(reference) == "-2/3*a*a'"


def test_symbolic_specialize_needs_one_ring():
    g = HeisElement(ENTRY_RING.var("a"), GROWTH_RING.var("n"), Fraction(0))
    with pytest.raises(ValueError, match="one ring"):
        EntryPlan([ENTRY_RING.var("a")]).specialize(g)


def test_symbolic_element_is_refused_by_the_int_route():
    """integer_values reads int numerators and denominators, which a
    Poly component does not have, so it raises rather than return
    Polys."""
    g = HeisElement.of(GROWTH_RING.var("n"), 0, 1)
    for plan in (THETA.plan, ORBIT_LIFT_PLAN):
        with pytest.raises(AttributeError):
            plan.integer_values(g)


def test_rational_element_is_refused_by_the_symbolic_route():
    """A rational element's values are ints over one denominator, so
    the symbolic route refuses it and names integer_image; an element
    mixing rational and Poly components still specializes."""
    g = HeisElement.of(1, Fraction(-2, 3), 5)
    for evaluate in (*ALL_REPS, orbit_lift):
        with pytest.raises(TypeError, match="integer_image"):
            evaluate(g)
    n = GROWTH_RING.var("n")
    mixed = HeisElement.of(n, Fraction(-2, 3), 5)
    mapping = dict(zip(ENTRY_RING.names, mixed))
    assert orbit_lift(mixed) == [p.substitute(mapping, GROWTH_RING)
                                 for p in ORBIT_LIFT]
    for rep in ALL_REPS:
        assert rep(mixed) == Matrix([[p.substitute(mapping, GROWTH_RING)
                                      for p in row]
                                     for row in rep.table.entries])
