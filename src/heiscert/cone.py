"""The 6-dimensional picture: quadratic forms, the semidefinite cone and
its boundary flats.

The 6x6 representation acts on symmetric 3x3 forms by congruence
S -> g S g^T, which visibly preserves positive definiteness.  At a rational
g both give the image's six int coordinates over a denominator as dot
products written out (the table's on rho6's compiled plan values, the
congruence's as H S H^T on the cleared rows of the 3x3 matrix alone, whose
0 and 1 are ints so that only a, b and c carry denominators), compared
cross-multiplied; PD is decided on ints.  SymForm clears its six distinct
entries once and reads its PD and PSD minors straight off those int rows,
the 3x3 one by det3's cofactor expansion, with no elimination pass.  The
module certifies that the shipped table is that
symmetric-square action in the monomial basis FORM_MONOMIALS with unit
rescaling, exact PD/PSD decisions, each generator's attracting rank-1 fixed
form, and boundary flats, so the cone is not strictly convex.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .heis import ENTRY_RING, GENERATORS, HeisElement, Representation, \
    generator_power, get_representation
from .linalg import Matrix, _echelon, clear_denominators, integer_product
from .poly import Poly
from .rationals import to_fraction

# Monomial basis ordering under which the shipped 6x6 table acts on form
# coordinates: quadratic monomials in the three linear coordinates.
FORM_MONOMIALS = ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2))


class SymForm:
    """A symmetric 3x3 rational matrix, i.e. a quadratic form.  cleared
    holds m as int rows over the lcm of its denominators, made once from
    the six distinct entries for the int checks; symmetry is checked on
    their (numerator, denominator) pairs."""

    __slots__ = ("m", "cleared")

    def __init__(self, entries: Sequence[Sequence[Fraction]]):
        m = tuple([tuple([to_fraction(x) for x in row]) for row in entries])
        if len(m) != 3 or any(len(r) != 3 for r in m):
            raise ValueError("forms are 3x3")
        (a, b, c), (d, e, f), (g, h, i) = (
            [x.as_integer_ratio() for x in row] for row in m)
        if b != d or c != g or f != h:
            raise ValueError("form matrix is not symmetric")
        s = lcm(a[1], b[1], c[1], e[1], f[1], i[1])
        p, q, t, u, v, w = [n * (s // k) for n, k in (a, b, c, e, f, i)]
        self.cleared = [[p, q, t], [q, u, v], [t, v, w]], s
        self.m = m

    @staticmethod
    def identity() -> "SymForm":
        return SymForm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def matrix(self) -> Matrix:
        return Matrix(self.m)

    def __eq__(self, other):
        return isinstance(other, SymForm) and self.m == other.m

    def __repr__(self):
        return f"SymForm({self.m})"

    def is_positive_definite(self) -> bool:
        """Decided on the cleared int rows (_positive_definite)."""
        return _positive_definite(self.cleared[0])

    def is_positive_semidefinite(self) -> bool:
        """All principal minors (not only leading ones) nonnegative, read
        off the cleared int rows: a k x k minor of them is the form's
        minor times scale^k > 0, so its sign is the form's."""
        m = self.cleared[0]
        return all(m[i][i] >= 0 for i in range(3)) \
            and all(m[i][i] * m[j][j] - m[i][j] ** 2 >= 0
                    for i, j in ((0, 1), (0, 2), (1, 2))) \
            and det3(m) >= 0


def _positive_definite(m: list[list[int]]) -> bool:
    """Sylvester for the 3x3 int matrix m, symmetric up to positive row
    scales: its three leading principal minors, read straight off m
    (left unmodified), are positive.  Scaling row i by s_i > 0 multiplies
    the k x k leading minor by s_1 ... s_k, keeping its sign."""
    (a, b, _), (d, e, _), _ = m
    return a > 0 and a * e - b * d > 0 and det3(m) > 0


def det3(m: Sequence[Sequence]) -> Fraction | int:
    """Determinant of the 3x3 rows m by cofactor expansion along the first
    row; int rows give an int, Fraction rows a Fraction."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def form_coordinates(form: SymForm) -> list[Fraction]:
    """Coordinates of a form in the monomial ordering FORM_MONOMIALS."""
    return [form.m[i][j] for i, j in FORM_MONOMIALS]


def form_from_coordinates(coords: Sequence[Fraction]) -> SymForm:
    return SymForm(_symmetric(coords))


def _symmetric(coords: Sequence) -> tuple[tuple, ...]:
    """The symmetric 3x3 rows of the FORM_MONOMIALS coordinates coords."""
    p, q, u, t, v, w = coords
    return (p, q, t), (q, u, v), (t, v, w)


def act_on_form(g: HeisElement, form: SymForm) -> tuple[list[int], int]:
    """The 6x6 table at the rational g on form coordinates, on ints: the
    dot products of the rows of rho6's plan values R over d with the
    coordinates, unpacked from the form's rows cleared to scale s, over
    d s > 0."""
    r, d = get_representation("rho6").plan.integer_values(g)
    # The coordinates are the form's distinct entries, so its one scale
    # clears them.
    ((x0, x1, x3), (_, x2, x4), (_, _, x5)), s = form.cleared
    return [r[k] * x0 + r[k + 1] * x1 + r[k + 2] * x2 + r[k + 3] * x3
            + r[k + 4] * x4 + r[k + 5] * x5 for k in range(0, 36, 6)], d * s


def heis_3x3(g: HeisElement) -> list[list]:
    """The rows of g's defining 3x3 unit upper-triangular matrix; its
    entries are Poly when g's components are, and its 0 and 1 are then
    those of g's ring; at a rational g they are the ints 0 and 1."""
    if isinstance(g.a, Poly):
        zero = g.a * 0
        one = zero + 1
    else:
        zero, one = 0, 1
    return [[one, g.a, g.c], [zero, one, g.b], [zero, zero, one]]


def congruence_image(g: HeisElement, form: SymForm) -> tuple[list[int], int]:
    """g S g^T at the rational g from the 3x3 matrix alone, never the 6x6
    table, on ints: the FORM_MONOMIALS coordinates of H S H^T over e^2 s,
    for S = s form and H over e, heis_3x3(g) cleared by clear_denominators
    (e is the lcm of a, b, c's denominators, the only ones that are not
    the int 1).  No entry of H is assumed 0 or 1."""
    h, e = clear_denominators(heis_3x3(g))
    ((p, q, t), (_, u, v), (_, _, w)), s = form.cleared
    hs = [(x * p + y * q + z * t, x * q + y * u + z * v,
           x * t + y * v + z * w) for x, y, z in h]
    return [hs[i][0] * h[j][0] + hs[i][1] * h[j][1] + hs[i][2] * h[j][2]
            for i, j in FORM_MONOMIALS], e * e * s


# -- matching the entry table against the symmetric-square action ------------

def _sym_square_matrix() -> Matrix:
    """Matrix of the congruence action on form coordinates in the
    ordering FORM_MONOMIALS, for the symbolic element (a, b, c)."""
    h = Matrix(heis_3x3(HeisElement.symbolic(ENTRY_RING)))
    columns = []
    for i, j in FORM_MONOMIALS:
        # The symmetrized basis form E_ij has a 1 at (i, j) and at (j, i).
        basis_form = Matrix([[int({k, l} == {i, j}) for l in range(3)]
                             for k in range(3)])
        image = h * basis_form * h.transpose()
        columns.append([image[k, l] for k, l in FORM_MONOMIALS])
    return Matrix(columns).transpose()


def sym_square_match_certificate(rep: Representation) -> tuple[bool, dict]:
    """The 6x6 table of rep equals the symmetric-square congruence
    action in the monomial basis FORM_MONOMIALS with unit rescaling;
    on a mismatch the differing entries are listed."""
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

def pd_preservation_certificate(g: HeisElement, form: SymForm) -> bool:
    """The action of g keeps a positive-definite form positive definite,
    and its int image (act_on_form) agrees, cross-multiplied on ints,
    with g S g^T (congruence_image): the six pairs are compared in turn
    up to the first that differs, and the image's leading minors are read
    off its six coordinates (_symmetric), over a positive scale."""
    if not form.is_positive_definite():
        raise ValueError("input form must be positive definite")
    coords, scale = act_on_form(g, form)
    congruence, congruence_scale = congruence_image(g, form)
    for x, y in zip(coords, congruence):
        if x * congruence_scale != y * scale:
            return False
    return _positive_definite(_symmetric(coords))


def parabolic_fixed_form(generator: str) -> SymForm:
    """The attracting boundary fixed form of a generator.

    With N the nilpotent part of the 6x6 image, the top nonzero power of
    N has rank 1 and sends every positive-definite form to the same ray;
    that ray is the limit of the iterated action.  On ints: for the
    image R / d (integer_image), R - d I is d N, and a positive scale
    moves neither a rank nor a ray.  Normalized by _canonical, so the
    largest-magnitude coordinate is 1.  The cone suite, not this
    function, checks that it is rank 1 and PSD.
    """
    rows, d = get_representation("rho6").integer_image(GENERATORS[generator])
    n = [[x - d * (i == j) for j, x in enumerate(row)]
         for i, row in enumerate(rows)]
    power = n
    while True:
        next_power = integer_product(power, n)
        if not any(map(any, next_power)):
            break
        power = next_power
    # The top power times the identity form's coordinates, as one row.
    (image,) = integer_product([[int(i == j) for i, j in FORM_MONOMIALS]],
                               zip(*power))
    if len(_echelon(power, reduce_above=False)[0]) != 1:
        raise ValueError("top nilpotent power does not have rank 1")
    if all(x == 0 for x in image):
        raise ValueError("identity form is annihilated by the top power")
    form = form_from_coordinates(_canonical(image))
    coords, scale = act_on_form(GENERATORS[generator], form)
    if any(x != scale * y for x, y in zip(coords, form_coordinates(form))):
        raise ValueError("attractor is not fixed by the generator")
    return form


def attraction_gaps(generator: str, fixed: SymForm) -> list[Fraction]:
    """Projective gap between the iterated image of the identity form and
    the fixed form from parabolic_fixed_form, after 4, 8 and 16 steps."""
    fixed_coords = _canonical(form_coordinates(fixed))
    gaps = []
    g = GENERATORS[generator]
    for count in (4, 8, 16):
        power = generator_power(g, count)
        coords = _canonical(act_on_form(power, SymForm.identity())[0])
        gaps.append(max(abs(x - y) for x, y in zip(coords, fixed_coords)))
    return gaps


def _canonical(coords: Sequence) -> list[Fraction]:
    # Normalize by the largest-magnitude entry, which cancels any common
    # scale; unlike first-nonzero scaling this stays bounded when the
    # leading coordinate dies off.
    pivot = max(coords, key=abs)
    return [Fraction(x, pivot) for x in coords]


def flat_segment_certificate(f1: SymForm, f2: SymForm
                             ) -> tuple[bool, dict]:
    """The segment between two degenerate semidefinite forms stays in the
    cone's boundary: every sampled mixture is PSD with determinant zero.
    The samples at t = 0 and t = 1 are the endpoints, so an endpoint that
    is not such a form fails there.  The endpoints must be linearly
    independent, so neither may be zero."""
    if Matrix([form_coordinates(f1), form_coordinates(f2)]).rank() < 2:
        raise ValueError("flat check needs linearly independent endpoints")
    samples = []
    ok = True
    for t in (Fraction(0), Fraction(1, 4), Fraction(1, 2),
              Fraction(3, 4), Fraction(1)):
        mix = SymForm([[(1 - t) * x + t * y for x, y in zip(r1, r2)]
                       for r1, r2 in zip(f1.m, f2.m)])
        psd = mix.is_positive_semidefinite()
        det = det3(mix.m)
        ok = ok and psd and det == 0
        samples.append({"t": t, "psd": psd, "det": det})
    return ok, {"segment_samples": samples}
