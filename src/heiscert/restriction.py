"""The invariant 10-dimensional subspace of the 14x14 representation.

Four linear equations (x6 = x10 = x14, x5 = x13, x3 = 2*x12, 1-based)
cut out a subspace that the 14x14 action preserves; in the right basis
the induced 10x10 action is conjugate, by a constant matrix T, to the
10-dimensional representation.  The equations are stated once, in the
table EQUATIONS; the equation matrix, the free coordinates and the
subspace basis are all read from it.  These rational matrices multiply
the symbolic ones directly, with no lift into the polynomial ring.  T
is a frozen witness file, written by scripts/rederive_witnesses.py
(the one place its linear solve runs) and only checked here.  If the
int solve of the intertwiner space admits a vector that the symbolic
recheck refuses, the certificate FAILs with its checks and a null
dimension.  The same module certifies the quadratic versus quartic
entry growth of generator powers that motivates the 14-dimensional
construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .heis import DATA_DIR, GENERATORS, HeisElement, get_representation, \
    heis_mul, one_parameter_power, symbolic_pair
from .linalg import Matrix, clear_denominators, integer_kernel, \
    integer_product
from .poly import PolyRing

AMBIENT_DIM = 14
SUBSPACE_DIM = 10

T_WITNESS = "restriction_T.tsv"


# Each (p, n, f) is the equation x_p = f * x_n (1-based): x_n is
# determined by the free coordinate x_p.  The shipped T depends on the
# increasing order of the free coordinates, (1, ..., 9, 11).
EQUATIONS = ((6, 10, 1), (6, 14, 1), (5, 13, 1), (3, 12, 2))
FREE_COORDINATES = tuple(i for i in range(1, AMBIENT_DIM + 1)
                         if i not in {n for _, n, _ in EQUATIONS})


def subspace_equations() -> Matrix:
    """The four defining linear functionals as rows of a 4x14 matrix."""
    rows = []
    for positive, negative, factor in EQUATIONS:
        row = [Fraction(0)] * AMBIENT_DIM
        row[positive - 1] = Fraction(1)
        row[negative - 1] = Fraction(-factor)
        rows.append(row)
    return Matrix(rows)


@lru_cache(maxsize=None)
def derive_subspace_basis() -> Matrix:
    """A 14x10 basis of the solution space, one column per free
    coordinate, dependent coordinates filled from the equations.  Built
    once; Matrix is immutable, so callers share it."""
    columns = []
    for free in FREE_COORDINATES:
        vec = [Fraction(0)] * AMBIENT_DIM
        vec[free - 1] = Fraction(1)
        for positive, negative, factor in EQUATIONS:
            if positive == free:
                vec[negative - 1] = Fraction(1, factor)
        columns.append(vec)
    return Matrix(columns).transpose()


def induced_matrix(g: HeisElement) -> Matrix:
    """The 10x10 matrix of the symbolic g acting in the subspace basis.

    Because the basis matrix restricted to the free coordinate rows is
    the identity, the induced matrix is just those rows of
    rho14(g) * basis; the dropped rows are rechecked separately by the
    invariance certificate.
    """
    return _free_rows(get_representation("rho14")(g) * derive_subspace_basis())


def _free_rows(image: Matrix) -> Matrix:
    return Matrix([image.row(f - 1) for f in FREE_COORDINATES])


@lru_cache(maxsize=None)
def _symbolic_image() -> Matrix:
    """The rho14 table times the basis, computed once for the certificate
    and the intertwiner solve."""
    return get_representation("rho14").table * derive_subspace_basis()


def restriction_certificate() -> tuple[bool, dict]:
    """Full restriction verdict: equations have rank 4 and are preserved,
    the induced action is multiplicative, and it is conjugate to the
    10-dimensional representation by the shipped witness T."""
    equations = subspace_equations()
    basis = derive_subspace_basis()
    conjugator = Matrix.from_text((DATA_DIR / T_WITNESS).read_text())

    checks = {}
    checks["equations_rank_4"] = equations.rank() == 4
    checks["basis_rank_10"] = basis.rank() == SUBSPACE_DIM
    checks["basis_solves_equations"] = (equations * basis).is_zero()

    image = _symbolic_image()
    checks["subspace_invariant"] = (equations * image).is_zero()

    induced = _free_rows(image)
    checks["induced_consistent"] = image == basis * induced
    checks["conjugate_to_theta"] = \
        induced * conjugator == conjugator * get_representation("theta").table
    t_det = conjugator.det()
    checks["conjugator_invertible"] = t_det != 0

    gp, hp = symbolic_pair()
    checks["induced_multiplicative"] = \
        induced_matrix(gp) * induced_matrix(hp) == \
        induced_matrix(heis_mul(gp, hp))

    dimension = intertwiner_dimension()
    return all(checks.values()) and dimension is not None, {
        "checks": checks,
        "conjugator_det": t_det,
        "conjugator": [list(conjugator.row(i)) for i in range(SUBSPACE_DIM)],
        "intertwiner_space_dimension": dimension,
    }


def intertwiner_dimension() -> int | None:
    """Dimension of {X : induced(g) X = X theta(g) for all g}.

    Solved on ints from the generator conditions (enough because the
    integer points are Zariski dense); every int kernel vector is then
    reverified against the full symbolic identity; if one fails, the
    conditions were not sufficient and the result is None.  At a
    generator, the free rows of rho14's int image over d (integer_image)
    times the subspace basis cleared once to ints over s give the
    induced matrix over d s, and theta's int image is over e.
    """
    theta = get_representation("theta")
    rho14 = get_representation("rho14")
    n = SUBSPACE_DIM
    basis, s = clear_denominators(derive_subspace_basis().entries)
    rows = []
    for gen in (GENERATORS["A"], GENERATORS["B"]):
        image, d = rho14.integer_image(gen)
        left = integer_product([image[f - 1] for f in FREE_COORDINATES],
                               basis)
        right, e = theta.integer_image(gen)
        # condition left / (d s) @ X - X @ right / e = 0, unknowns X_kl
        # flattened, at one shared scale d s e: a scale per side breaks it
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[k * n + j] += e * left[i][k]
                    row[i * n + k] -= d * s * right[k][j]
                rows.append(row)
    kernel = integer_kernel(rows)
    induced = _free_rows(_symbolic_image())
    for vec in kernel:
        x = Matrix([vec[i * n:(i + 1) * n] for i in range(n)])
        if induced * x != x * theta.table:
            return None
    return len(kernel)


# -- entry growth of generator powers -----------------------------------------

GROWTH_RING = PolyRing("n")


def _max_degree(matrix: Matrix, cells) -> int:
    return max([0, *(matrix[i, j].degree_in("n") for i, j in cells)])


def growth_certificate() -> tuple[bool, dict]:
    """Quadratic growth inside the 6x6 block versus quartic growth in the
    glued chains, for symbolic powers of the first two generators; the
    central generator stays quadratic everywhere."""
    rho14 = get_representation("rho14")
    six_block = [(i, j) for i in range(6) for j in range(6)]
    added = [(0, j) for j in range(6, 14)]
    added += [(i, j) for i in range(6, 10) for j in range(6, 10)]
    added += [(i, j) for i in range(10, 14) for j in range(10, 14)]
    whole = [(i, j) for i in range(14) for j in range(14)]

    report = {}
    ok = True
    for gen in ("A", "B"):
        power = one_parameter_power(rho14, gen, GROWTH_RING)
        six_deg = _max_degree(power, six_block)
        added_deg = _max_degree(power, added)
        report[gen] = {"six_block_degree": six_deg,
                       "added_blocks_degree": added_deg}
        ok = ok and six_deg == 2 and added_deg == 4
    center_power = one_parameter_power(rho14, "C", GROWTH_RING)
    center_deg = _max_degree(center_power, whole)
    report["C"] = {"whole_matrix_degree": center_deg}
    ok = ok and center_deg <= 2
    return ok, report
