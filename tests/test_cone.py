"""Quadratic-form cone: exact PSD decisions, the symmetric-square match,
fixed boundary forms and flats."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiscert import cone, heis
from heiscert.cone import (SymForm, act_on_form, attraction_gaps,
                           congruence_image, flat_segment_certificate,
                           form_coordinates, form_from_coordinates, heis_3x3,
                           parabolic_fixed_form, pd_preservation_certificate,
                           sym_square_match_certificate)
from heiscert.heis import ENTRY_RING, GENERATORS, HeisElement, \
    Representation, get_representation
from heiscert.linalg import Matrix
from heiscert.sampler import RandomStream
from heiscert.suites import _random_pd_form
from test_heis import rational_image

RHO6 = get_representation("rho6")


def random_symmetric(stream) -> SymForm:
    vals = [Fraction(stream.next_int(-4, 4), stream.next_int(1, 3))
            for _ in range(6)]
    return form_from_coordinates(vals)


def rank_one(vector) -> SymForm:
    return SymForm([[x * y for y in vector] for x in vector])


def principal_minor(form: SymForm, indices: tuple[int, ...]) -> Fraction:
    return Matrix([[form.m[i][j] for j in indices] for i in indices]).det()


def psd_by_charpoly(form: SymForm) -> bool:
    """Independent PSD test: a real-rooted cubic has all roots >= 0 iff
    its elementary symmetric functions are all >= 0."""
    trace = sum(form.m[i][i] for i in range(3))
    e2 = sum(principal_minor(form, s) for s in ((0, 1), (0, 2), (1, 2)))
    return trace >= 0 and e2 >= 0 and form.matrix().det() >= 0


def pd_by_charpoly(form: SymForm) -> bool:
    trace = sum(form.m[i][i] for i in range(3))
    e2 = sum(principal_minor(form, s) for s in ((0, 1), (0, 2), (1, 2)))
    return trace >= 0 and e2 >= 0 and form.matrix().det() > 0


def test_psd_decision_matches_charpoly_oracle():
    stream = RandomStream(41).split("psd-oracle")
    psd_seen = 0
    for _ in range(500):
        form = random_symmetric(stream)
        assert form.is_positive_semidefinite() == psd_by_charpoly(form)
        assert form.is_positive_definite() == pd_by_charpoly(form)
        psd_seen += form.is_positive_semidefinite()
    assert psd_seen > 0  # the sample hits both sides of the boundary


form_entry = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def symmetric_forms(draw):
    """Rational symmetric forms biased toward the PD boundary: Gram forms
    R^T R (PD when R is invertible, singular when not) shifted along the
    diagonal, so zero and negative first minors, singular forms and forms
    whose 3x3 minor alone fails all come up, beside plain drawn forms."""
    kind = draw(st.sampled_from(["gram", "shifted", "plain"]))
    if kind == "plain":
        return form_from_coordinates(draw(st.lists(form_entry, min_size=6,
                                                   max_size=6)))
    cell = st.one_of(st.just(Fraction(0)), form_entry)
    r = Matrix(draw(st.lists(st.lists(cell, min_size=3, max_size=3),
                             min_size=3, max_size=3)))
    gram = (r.transpose() * r).entries
    shift = Fraction(0) if kind == "gram" else draw(form_entry)
    corner = draw(st.integers(0, 2))
    return SymForm([[x - shift if i == j == corner else x
                     for j, x in enumerate(row)]
                    for i, row in enumerate(gram)])


@settings(max_examples=400, deadline=None)
@given(symmetric_forms())
def test_positive_definite_is_leading_minors_positive(form):
    expected = all(principal_minor(form, tuple(range(k))) > 0
                   for k in (1, 2, 3))
    assert form.is_positive_definite() == expected


@settings(max_examples=200, deadline=None)
@given(symmetric_forms(), st.lists(st.integers(1, 7), min_size=3,
                                   max_size=3))
def test_positive_definite_reads_leading_minors_of_scaled_rows(form, scales):
    """_positive_definite on int rows symmetric up to positive row
    scales, against the form's Fraction leading minors; the rows are
    left as they were."""
    rows = [[s * x for x in row]
            for s, row in zip(scales, form.cleared[0])]
    before = [list(row) for row in rows]
    expected = all(principal_minor(form, tuple(range(k))) > 0
                   for k in (1, 2, 3))
    assert cone._positive_definite(rows) == expected
    assert rows == before


small_ints = st.integers(-5, 5)
small_fractions = st.builds(Fraction, small_ints, st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([small_ints, small_fractions]).flatmap(
           lambda entry: st.lists(st.lists(entry, min_size=3, max_size=3),
                                  min_size=3, max_size=3)),
       st.sampled_from([None, (0, 1), (0, 2), (1, 2)]))
def test_det3_matches_bareiss_det(rows, repeat):
    """det3 against Matrix.det on int or Fraction rows, singular ones
    included by repeating a row; Fraction rows give a Fraction."""
    if repeat is not None:
        i, j = repeat
        rows[j] = list(rows[i])
    det = cone.det3(rows)
    assert det == Matrix(rows).det()
    if repeat is not None:
        assert det == 0
    if any(type(x) is Fraction for row in rows for x in row):
        assert type(det) is Fraction


def test_psd_boundary_cases():
    assert SymForm([[0, 0, 0], [0, 0, 0], [0, 0, -1]]) \
        .is_positive_semidefinite() is False
    assert rank_one([1, 2, 3]).is_positive_semidefinite()
    assert not rank_one([1, 2, 3]).is_positive_definite()
    assert SymForm.identity().is_positive_definite()
    # Leading minors (1, 1, 0): only the 3x3 minor fails.
    assert not SymForm([[1, 0, 1], [0, 1, 0], [1, 0, 1]]) \
        .is_positive_definite()
    # Leading minors (2, 1, 1/2).
    assert SymForm([[2, 1, 0], [1, 1, Fraction(1, 2)],
                    [0, Fraction(1, 2), 1]]).is_positive_definite()


def test_form_coordinates_round_trip():
    assert form_coordinates(SymForm([[0] * 3] * 3)) == [Fraction(0)] * 6
    identity_coords = form_coordinates(SymForm.identity())
    assert identity_coords == [1, 0, 1, 0, 0, 1]
    stream = RandomStream(43).split("round-trip")
    for _ in range(25):
        form = random_symmetric(stream)
        assert form_from_coordinates(form_coordinates(form)) == form


def action_reference(g: HeisElement, form: SymForm) -> SymForm:
    """The 6x6 action as a Fraction matrix times a Fraction vector."""
    return form_from_coordinates(
        rational_image(RHO6, g).apply(form_coordinates(form)))


def congruence_reference(g: HeisElement, form: SymForm) -> SymForm:
    """g S g^T as a product of Fraction matrices."""
    h = Matrix(heis_3x3(g))
    return SymForm((h * form.matrix() * h.transpose()).entries)


def action_form(g: HeisElement, form: SymForm) -> SymForm:
    """act_on_form's int coordinates over its denominator, as a form."""
    coords, scale = act_on_form(g, form)
    assert all(type(x) is int for x in coords) and scale > 0
    return form_from_coordinates([Fraction(x, scale) for x in coords])


def congruence_form(g: HeisElement, form: SymForm) -> SymForm:
    """congruence_image's int matrix over its denominator, as a form."""
    matrix, scale = congruence_image(g, form)
    assert all(type(x) is int for row in matrix for x in row) and scale > 0
    return SymForm([[Fraction(x, scale) for x in row] for row in matrix])


def test_action_agrees_with_congruence():
    """Both integer routes against their Fraction references, at the
    identity, at elements with mixed denominators and at sampled ones,
    on the zero form, forms with non-unit denominators and sampled ones:
    the denominators d s and e^2 s each matter once a denominator is."""
    stream = RandomStream(47).split("action")
    elements = [HeisElement.identity(), HeisElement.of(1, 0, 0),
                HeisElement.of("1/2", "-2/3", "5/7"),
                HeisElement.of(3, "1/4", "-7/6")] + \
        [HeisElement.of(*stream.next_triple()) for _ in range(20)]
    forms = [SymForm([[0] * 3] * 3), SymForm.identity(),
             SymForm([[Fraction(1, 2), Fraction(1, 3), 0],
                      [Fraction(1, 3), Fraction(5, 6), Fraction(-1, 4)],
                      [0, Fraction(-1, 4), Fraction(7, 5)]]),
             rank_one([Fraction(2, 3), 0, Fraction(-1, 5)])] + \
        [random_symmetric(stream) for _ in range(10)]
    for g in elements:
        for form in forms:
            image = action_form(g, form)
            assert image == action_reference(g, form)
            assert congruence_form(g, form) == \
                congruence_reference(g, form) == image
    assert action_form(HeisElement.identity(), forms[2]) == forms[2]


def random_pd_form_reference(stream: RandomStream) -> SymForm:
    """The Fraction-matrix sampler that suites._random_pd_form replaced."""
    while True:
        r = Matrix([[Fraction(stream.next_int(-3, 3)) for _ in range(3)]
                    for _ in range(3)])
        if r.det() != 0:
            return SymForm((r.transpose() * r).entries)


@pytest.mark.parametrize("seed", [3, 2**63 + 11])
def test_pd_sampler_matches_fraction_reference(seed):
    """At seeds other than the pinned 0 the integer sampler draws the
    forms and consumes the stream as the Fraction one did, and every
    entry is a Fraction (certs.jsonable writes int 2 as 2, Fraction 2
    as "2")."""
    new, old = (RandomStream(seed).split("cone.pd_preserved")
                for _ in range(2))
    for _ in range(100):
        rows = _random_pd_form(new)
        assert tuple(map(tuple, rows)) == random_pd_form_reference(old).m
        assert all(type(x) is Fraction for row in rows for x in row)
    assert new.next_u64() == old.next_u64()


def test_sym_square_match():
    ok, witnesses = sym_square_match_certificate(RHO6)
    assert ok
    assert witnesses["monomial_ordering"] == \
        ["x1x1", "x1x2", "x2x2", "x1x3", "x2x3", "x3x3"]
    assert witnesses["diagonal_rescaling"] == [Fraction(1)] * 6


def test_mutated_table_fails_sym_square_match():
    entries = [list(row) for row in RHO6.table.entries]
    entries[0][2], entries[2][5] = entries[2][5], entries[0][2]
    mutated = Representation("rho6_mutated", 6, Matrix(entries))
    ok, witnesses = sym_square_match_certificate(mutated)
    assert not ok
    assert [0, 2] in witnesses["mismatched_entries"]
    assert [2, 5] in witnesses["mismatched_entries"]


def _image(g, form) -> SymForm:
    coords, scale = act_on_form(g, form)
    return form_from_coordinates([Fraction(x, scale) for x in coords])


def test_pd_preservation():
    assert pd_preservation_certificate(HeisElement.identity(),
                                       SymForm.identity())
    g = HeisElement.of(1, 1, 1)
    assert pd_preservation_certificate(g, SymForm.identity())
    assert _image(g, SymForm.identity()).is_positive_definite()


def test_pd_preservation_spot_checks():
    stream = RandomStream(53).split("pd-spot")
    for _ in range(200):
        r = Matrix([[Fraction(stream.next_int(-3, 3)) for _ in range(3)]
                    for _ in range(3)])
        if r.det() == 0:
            continue
        form = SymForm((r.transpose() * r).entries)
        g = HeisElement.of(*stream.next_triple())
        assert pd_preservation_certificate(g, form)


def test_pd_preservation_fails_against_transposed_congruence(monkeypatch):
    """With the 3x3 rows that congruence_image clears transposed, g^T S g
    differs from the table's g S g^T, so the cross-multiplied comparison
    must fail: the table's image is still positive definite."""
    original = cone.heis_3x3

    def transposed(g):
        return [list(column) for column in zip(*original(g))]

    monkeypatch.setattr(cone, "heis_3x3", transposed)
    g = HeisElement.of(1, 1, 1)
    assert not pd_preservation_certificate(g, SymForm.identity())
    assert _image(g, SymForm.identity()).is_positive_definite()


def test_pd_preservation_rejects_indefinite_input():
    indefinite = SymForm([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        pd_preservation_certificate(HeisElement.identity(), indefinite)


def test_fixed_forms_are_rank_one_eigenvectors():
    for name in ("A", "B", "C"):
        form = parabolic_fixed_form(name)
        assert form.matrix().rank() == 1
        assert form.is_positive_semidefinite()
        coords = form_coordinates(form)
        assert rational_image(RHO6, GENERATORS[name]).apply(coords) == coords


def test_fixed_forms_match_fraction_powers():
    """The int route gives the form that the top nonzero power of
    rho6(g) - I, multiplied out over Fraction, makes of the identity
    form, over its largest-magnitude coordinate."""
    for name in ("A", "B", "C"):
        n = rational_image(RHO6, GENERATORS[name]) - Matrix.identity(6)
        power = n
        while not (power * n).is_zero():
            power = power * n
        image = power.apply(form_coordinates(SymForm.identity()))
        pivot = max(image, key=abs)
        assert form_coordinates(parabolic_fixed_form(name)) == \
            [x / pivot for x in image]


def test_fixed_form_refuses_a_top_power_that_is_not_rank_one(monkeypatch):
    """On the identity table every N is 0, so the top power has rank 0."""
    one, zero = ENTRY_RING.one(), ENTRY_RING.zero()
    identity = Matrix([[one if i == j else zero for j in range(6)]
                       for i in range(6)])
    monkeypatch.setitem(heis._CACHE, "rho6",
                        Representation("rho6", 6, identity))
    with pytest.raises(ValueError, match="rank 1"):
        parabolic_fixed_form("A")


def test_fixed_forms_of_first_two_generators_differ():
    fa = parabolic_fixed_form("A")
    fb = parabolic_fixed_form("B")
    assert fa != fb
    # the central generator shares its attractor with the first one
    assert parabolic_fixed_form("C") == fa


def test_attraction_gaps_decrease():
    for name in ("A", "B", "C"):
        g1, g2, g3 = attraction_gaps(name, parabolic_fixed_form(name))
        assert g1 > g2 > g3


def test_flat_between_coordinate_squares():
    f1 = rank_one([1, 0, 0])
    f2 = rank_one([0, 1, 0])
    ok, witnesses = flat_segment_certificate(f1, f2)
    assert ok
    assert all(s["det"] == 0 and s["psd"]
               for s in witnesses["segment_samples"])


def test_flat_between_fixed_forms():
    ok, _ = flat_segment_certificate(parabolic_fixed_form("A"),
                                     parabolic_fixed_form("B"))
    assert ok


def test_flat_fails_at_a_bad_endpoint():
    # The identity is not degenerate, so the t = 0 sample is the witness.
    ok, witnesses = flat_segment_certificate(
        SymForm.identity(), SymForm([[1, 2, 0], [2, 4, 0], [0, 0, 0]]))
    assert ok is False
    first = witnesses["segment_samples"][0]
    assert first["t"] == 0 and first["det"] == 1


def test_flat_rejects_proportional_inputs():
    f = rank_one([1, 2, 0])
    with pytest.raises(ValueError):
        flat_segment_certificate(
            f, SymForm([[Fraction(3, 2) * x for x in row] for row in f.m]))


def test_flat_rejects_zero_endpoint():
    # The zero form is PSD with det 0, but the segment from it to f is a
    # ray, not a flat.
    zero = SymForm([[0] * 3] * 3)
    f = rank_one([1, 2, 0])
    for ends in ((zero, f), (f, zero)):
        with pytest.raises(ValueError):
            flat_segment_certificate(*ends)


def test_symform_validation():
    with pytest.raises(ValueError):
        SymForm([[1, 2, 3], [0, 1, 2], [3, 2, 1]])
    with pytest.raises(ValueError):
        SymForm([[1, 0], [0, 1]])
