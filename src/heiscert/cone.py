"""The 6-dimensional picture: quadratic forms, the semidefinite cone and
its boundary flats.

The 6x6 representation acts on symmetric 3x3 forms by congruence
S -> g S g^T, which visibly preserves positive definiteness.  The module
certifies that the shipped entry table is that symmetric-square action
in the monomial basis FORM_MONOMIALS with unit rescaling, exact PD/PSD
decisions, the attracting rank-1 boundary fixed form of each generator,
and straight segments inside the boundary (flats) witnessing that the
cone is not strictly convex.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .heis import ENTRY_RING, GENERATORS, HeisElement, Representation, \
    get_representation
from .linalg import Matrix, _echelon, _integer_copy
from .rationals import to_fraction

# Monomial basis ordering under which the shipped 6x6 table acts on form
# coordinates: quadratic monomials in the three linear coordinates.
FORM_MONOMIALS = ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2))


class SymForm:
    """A symmetric 3x3 rational matrix, i.e. a quadratic form."""

    __slots__ = ("m",)

    def __init__(self, entries: Sequence[Sequence[Fraction]]):
        m = [[to_fraction(x) for x in row] for row in entries]
        if len(m) != 3 or any(len(r) != 3 for r in m):
            raise ValueError("forms are 3x3")
        for i in range(3):
            for j in range(i):
                if m[i][j] != m[j][i]:
                    raise ValueError("form matrix is not symmetric")
        self.m = tuple(tuple(r) for r in m)

    @staticmethod
    def identity() -> "SymForm":
        return SymForm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def matrix(self) -> Matrix:
        return Matrix(self.m)

    def __eq__(self, other):
        return isinstance(other, SymForm) and self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __repr__(self):
        return f"SymForm({self.m})"

    def scale(self, factor: Fraction) -> "SymForm":
        f = to_fraction(factor)
        return SymForm([[f * x for x in row] for row in self.m])

    def add(self, other: "SymForm") -> "SymForm":
        return SymForm([[x + y for x, y in zip(r1, r2)]
                        for r1, r2 in zip(self.m, other.m)])

    def is_positive_definite(self) -> bool:
        """Sylvester: all leading principal minors positive.

        Read off one fraction-free pass over the row-scaled integer copy.
        Without row exchanges the pivots of that pass are the leading
        principal minors of the copy (Bareiss, Math. Comp. 22, 1968),
        and the positive row scales keep their signs.  A zero leading
        minor forces an exchange or a missing pivot, so the form is PD
        iff there is no exchange, there are 3 pivots and all are
        positive.
        """
        m, _ = _integer_copy(self.m)
        pivots, swaps, d = _echelon(m, reduce_above=False)
        return swaps == 0 and len(pivots) == 3 and all(p > 0 for p in d)

    def is_positive_semidefinite(self) -> bool:
        """All principal minors (not only leading ones) nonnegative."""
        index_sets = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
        return all(Matrix([[self.m[i][j] for j in s] for i in s]).det() >= 0
                   for s in index_sets)


def form_coordinates(form: SymForm) -> list[Fraction]:
    """Coordinates of a form in the monomial ordering FORM_MONOMIALS."""
    return [form.m[i][j] for i, j in FORM_MONOMIALS]


def form_from_coordinates(coords: Sequence[Fraction]) -> SymForm:
    m = [[0] * 3 for _ in range(3)]
    for (i, j), value in zip(FORM_MONOMIALS, coords):
        m[i][j] = m[j][i] = value
    return SymForm(m)


def act_on_form(g: HeisElement, form: SymForm) -> SymForm:
    """The 6x6 representation applied through form coordinates."""
    rho6 = get_representation("rho6")
    image = rho6(g).apply(form_coordinates(form))
    return form_from_coordinates(image)


def heis_3x3(g: HeisElement) -> Matrix:
    """The defining 3x3 unit upper-triangular matrix of g; its entries
    are Poly when g's components are."""
    zero = g.a * 0
    one = zero + 1
    return Matrix([[one, g.a, g.c], [zero, one, g.b], [zero, zero, one]])


def congruence_image(g: HeisElement, form: SymForm) -> SymForm:
    """g S g^T: the geometric description of the same action."""
    m = heis_3x3(g)
    return SymForm((m * form.matrix() * m.transpose()).entries)


# -- matching the entry table against the symmetric-square action ------------

def _sym_square_matrix() -> Matrix:
    """Matrix of the congruence action on form coordinates in the
    ordering FORM_MONOMIALS, for the symbolic element (a, b, c)."""
    h = heis_3x3(HeisElement.symbolic(ENTRY_RING))
    columns = []
    for i, j in FORM_MONOMIALS:
        # The symmetrized basis form E_ij has a 1 at (i, j) and at (j, i).
        basis_form = Matrix([[int({k, l} == {i, j}) for l in range(3)]
                             for k in range(3)])
        image = h * basis_form * h.transpose()
        columns.append([image[k, l] for k, l in FORM_MONOMIALS])
    return Matrix(columns).transpose()


def sym_square_match_certificate(rep: Representation = None
                                 ) -> tuple[bool, dict]:
    """The shipped 6x6 table equals the symmetric-square congruence
    action in the monomial basis FORM_MONOMIALS with unit rescaling;
    on a mismatch the differing entries are listed."""
    rep = rep or get_representation("rho6")
    expected = _sym_square_matrix()
    mismatches = [[i, j] for i in range(6) for j in range(6)
                  if expected[i, j] != rep.table[i, j]]
    witnesses = {"monomial_ordering": ["".join(f"x{k+1}" for k in pair)
                                       for pair in FORM_MONOMIALS],
                 "diagonal_rescaling": [Fraction(1)] * 6}
    if mismatches:
        witnesses["mismatched_entries"] = mismatches
    return not mismatches, witnesses


# -- cone preservation and boundary structure ---------------------------------

def pd_preservation_certificate(g: HeisElement, form: SymForm
                                ) -> tuple[bool, dict]:
    """The action of g keeps a positive-definite form positive definite;
    the image is recorded and cross-checked against the congruence g S g^T."""
    if not form.is_positive_definite():
        raise ValueError("input form must be positive definite")
    image = act_on_form(g, form)
    consistent = image == congruence_image(g, form)
    ok = image.is_positive_definite() and consistent
    return ok, {"image_form": [list(r) for r in image.m],
                "matches_congruence": consistent}


def parabolic_fixed_form(generator: str) -> SymForm:
    """The attracting boundary fixed form of a generator.

    With N the nilpotent part of the 6x6 image, the top nonzero power of
    N has rank 1 and sends every positive-definite form to the same ray;
    that ray is the limit of the iterated action.  Normalized by
    _canonical, so the largest-magnitude coordinate is 1.
    """
    rho6 = get_representation("rho6")
    mat = rho6(GENERATORS[generator])
    n = mat - Matrix.identity(6)
    power = n
    while True:
        next_power = power * n
        if next_power.is_zero():
            break
        power = next_power
    if power.rank() != 1:
        raise ValueError("top nilpotent power does not have rank 1")
    image = power.apply(form_coordinates(SymForm.identity()))
    if all(x == 0 for x in image):
        raise ValueError("identity form is annihilated by the top power")
    form = form_from_coordinates(_canonical(image))
    fixed = act_on_form(GENERATORS[generator], form) == form
    if not fixed or form.matrix().rank() != 1 \
            or not form.is_positive_semidefinite():
        raise ValueError("attractor is not a fixed rank-1 semidefinite form")
    return form


def attraction_gaps(generator: str) -> list[Fraction]:
    """Projective gap between the iterated image of the identity form and
    the fixed form, after 4, 8 and 16 steps."""
    fixed = parabolic_fixed_form(generator)
    fixed_coords = _canonical(form_coordinates(fixed))
    gaps = []
    g = GENERATORS[generator]
    for count in (4, 8, 16):
        # g spans a one-parameter subgroup (see heis.one_parameter_power),
        # so g^count is g's components times count.
        power = HeisElement(g.a * count, g.b * count, g.c * count)
        coords = _canonical(form_coordinates(
            act_on_form(power, SymForm.identity())))
        gaps.append(max(abs(x - y) for x, y in zip(coords, fixed_coords)))
    return gaps


def _canonical(coords: Sequence[Fraction]) -> list[Fraction]:
    # Normalize by the largest-magnitude entry; unlike first-nonzero
    # scaling this stays bounded when the leading coordinate dies off.
    pivot = max(coords, key=abs)
    return [x / pivot for x in coords]


def flat_segment_certificate(f1: SymForm, f2: SymForm
                             ) -> tuple[bool, dict]:
    """The segment between two degenerate semidefinite forms stays in the
    cone's boundary: every sampled mixture is PSD with determinant zero.
    The endpoints must be linearly independent, so neither may be zero."""
    for f in (f1, f2):
        if not f.is_positive_semidefinite() or f.matrix().det() != 0:
            raise ValueError("inputs must be semidefinite with det 0")
    if Matrix([form_coordinates(f1), form_coordinates(f2)]).rank() < 2:
        raise ValueError("flat check needs linearly independent endpoints")
    samples = []
    ok = True
    for t in (Fraction(0), Fraction(1, 4), Fraction(1, 2),
              Fraction(3, 4), Fraction(1)):
        mix = f1.scale(1 - t).add(f2.scale(t))
        psd = mix.is_positive_semidefinite()
        det = mix.matrix().det()
        ok = ok and psd and det == 0
        samples.append({"t": t, "psd": psd, "det": det})
    return ok, {"segment_samples": samples}
