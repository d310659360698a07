"""The invariant 10-dimensional subspace of the 14x14 representation.

Four linear equations (x6 = x10 = x14, x5 = x13, x3 = 2*x12, 1-based)
cut out a subspace that the 14x14 action preserves; in the right basis
the induced 10x10 action is conjugate, by a constant matrix T, to the
10-dimensional representation.  The equations are stated once, in the
table EQUATIONS; the equation matrix, the free coordinates and the
subspace basis are all read from it.  These rational matrices multiply
the symbolic ones directly, with no lift into the polynomial ring.
Each certificate forms the product of rho14's table and the basis once
and compiles its free rows, the induced table, into one
heis.EntryPlan: the multiplicativity check specializes it at the
symbolic pair, and the intertwiner solve reads its int values at the
generators.  T is a frozen witness file, written by
scripts/rederive_witnesses.py (the one place its linear solve runs)
and only checked here.  If the int solve of the intertwiner space
admits a vector that the symbolic recheck refuses, the certificate
FAILs with its checks and a null dimension.  The same module
certifies the quadratic versus quartic entry growth of generator
powers that motivates the 14-dimensional construction.
"""

from __future__ import annotations

from fractions import Fraction

from .heis import DATA_DIR, GENERATORS, EntryPlan, get_representation, \
    heis_mul, one_parameter_power, symbolic_pair
from .linalg import Matrix, integer_kernel
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


def derive_subspace_basis() -> Matrix:
    """A 14x10 basis of the solution space, one column per free
    coordinate, dependent coordinates filled from the equations."""
    columns = []
    for free in FREE_COORDINATES:
        vec = [Fraction(0)] * AMBIENT_DIM
        vec[free - 1] = Fraction(1)
        for positive, negative, factor in EQUATIONS:
            if positive == free:
                vec[negative - 1] = Fraction(1, factor)
        columns.append(vec)
    return Matrix(columns).transpose()


def induced_plan(image: Matrix) -> EntryPlan:
    """The induced action, compiled: the free coordinate rows of
    image = rho14.table * basis, row by row, as one EntryPlan.  The
    basis matrix is the identity on those rows, so they are the 10x10
    matrix of g acting in the subspace basis; the dropped rows are
    rechecked by the invariance certificate."""
    return EntryPlan([p for f in FREE_COORDINATES for p in image.row(f - 1)])


def _square(values) -> Matrix:
    """The SUBSPACE_DIM-square matrix of the flat row-major values."""
    n = SUBSPACE_DIM
    return Matrix([values[i:i + n] for i in range(0, n * n, n)])


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

    image = get_representation("rho14").table * basis
    checks["subspace_invariant"] = (equations * image).is_zero()

    plan = induced_plan(image)
    induced = _square(plan.polys)
    checks["induced_consistent"] = image == basis * induced
    checks["conjugate_to_theta"] = \
        induced * conjugator == conjugator * get_representation("theta").table
    t_det = conjugator.det()
    checks["conjugator_invertible"] = t_det != 0

    gp, hp = symbolic_pair()
    checks["induced_multiplicative"] = \
        _square(plan.specialize(gp)) * _square(plan.specialize(hp)) == \
        _square(plan.specialize(heis_mul(gp, hp)))

    dimension = intertwiner_dimension(plan)
    return all(checks.values()) and dimension is not None, {
        "checks": checks,
        "conjugator_det": t_det,
        "conjugator": [list(conjugator.row(i)) for i in range(SUBSPACE_DIM)],
        "intertwiner_space_dimension": dimension,
    }


def intertwiner_dimension(plan: EntryPlan) -> int | None:
    """Dimension of {X : induced(g) X = X theta(g) for all g}, for the
    induced action compiled as plan (induced_plan).

    Solved on ints from the generator conditions (enough because the
    integer points are Zariski dense); every int kernel vector is then
    reverified against the full symbolic identity; if one fails, the
    conditions were not sufficient and the result is None.  At a
    generator, the plan's int values over d are the induced matrix, and
    theta's int image is over e.
    """
    theta = get_representation("theta")
    n = SUBSPACE_DIM
    rows = []
    for gen in (GENERATORS["A"], GENERATORS["B"]):
        values, d = plan.integer_values(gen)
        left = [values[i:i + n] for i in range(0, n * n, n)]
        right, e = theta.integer_image(gen)
        # condition left / d @ X - X @ right / e = 0, unknowns X_kl
        # flattened, at one shared scale d e: a scale per side breaks
        # it.  Row (i, j) takes e left[i][k] at X_kj and -d right[k][j]
        # at X_ik, written from the nonzero entries only.
        lefts = [[(k * n, e * x) for k, x in enumerate(row) if x]
                 for row in left]
        rights = [[(k, d * x) for k, x in enumerate(column) if x]
                  for column in zip(*right)]
        for i, pairs in enumerate(lefts):
            for j, column in enumerate(rights):
                row = [0] * (n * n)
                for kn, x in pairs:
                    row[kn + j] += x
                for k, y in column:
                    row[i * n + k] -= y
                rows.append(row)
    kernel = integer_kernel(rows)
    induced = _square(plan.polys)
    for vec in kernel:
        x = _square(vec)
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
