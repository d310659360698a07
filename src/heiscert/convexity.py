"""Orbit geometry and exact convexity checks.

The 10-dimensional representation acts affinely on the patch
[x1:...:x9:1]; the orbit of the origin is a polynomial embedding of the
group whose first coordinate eventually dominates every other one.  This
module certifies, in exact arithmetic: the closed orbit formula, the
fixed point and hyperplane at infinity, domination along rays to
infinity, proper convexity (the hull stays in {x1 >= 0}) and extremality
of sampled orbit points via exact LP.  Each claim check returns (ok,
witnesses); the per-point extreme_point_certificate returns its verdict
and that point's entry in the claim's witnesses.  The lifted formula is
compiled once into a heis.EntryPlan, ORBIT_LIFT_PLAN, as the entry
tables are: a rational element's lift is its int values over one
denominator, and orbit_lift() evaluates it at symbolic elements and
along rays to infinity; the extreme-point LPs read each lift as a
column cleared once per sample and reduced by its gcd.  Orbit points
are compared as lifts in the affine chart x10 = 1: theta's last row is
e10 (certified by fixed_structure_certificate), so every image of a
lift ends in 1 as well, and for such vectors projective equality is
vector equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Sequence

from .heis import ENTRY_RING, EntryPlan, HeisElement, get_representation
from .lp import Cleared, solve_equality_feasibility
from .poly import Poly, PolyRing
from .rationals import format_rational, parse_rational, to_fraction
from .sampler import RandomStream

AFFINE_DIM = 9

# The closed form of the orbit of the origin: nine affine coordinates as
# polynomials in a, b, c.  Kept as an explicit tuple (not read off the
# entry table) so the table and the formula cross-check each other.
_A, _B, _C = ENTRY_RING.vars("a", "b", "c")
ORBIT_FORMULA: tuple[Poly, ...] = (
    (_A ** 4 + _B ** 4) * Fraction(1, 24) + _C ** 2,
    _B * _C,
    _C,
    _A ** 3 * Fraction(1, 6),
    _A ** 2 * Fraction(1, 2),
    _A,
    _B ** 3 * Fraction(1, 6),
    _B ** 2 * Fraction(1, 2),
    _B,
)
# The homogeneous lift (x1..x9, 1) of the orbit point.
ORBIT_LIFT: tuple[Poly, ...] = ORBIT_FORMULA + (ENTRY_RING.one(),)
ORBIT_LIFT_PLAN = EntryPlan(ORBIT_LIFT)


def lift_origin() -> list[Fraction]:
    """Homogeneous lift of the affine origin."""
    return [Fraction(0)] * AFFINE_DIM + [Fraction(1)]


def orbit_lift(g: HeisElement) -> list[Poly]:
    """Homogeneous lift (x1..x9, 1) of the orbit point of the symbolic g,
    polynomials in g's ring; a rational g's lift is
    ORBIT_LIFT_PLAN.integer_values."""
    return ORBIT_LIFT_PLAN.specialize(g)


def orbit_formula_certificate() -> tuple[bool, dict]:
    """The entry table applied to the lifted origin reproduces the closed
    orbit formula, as an exact polynomial identity."""
    column = get_representation("theta").table.apply(lift_origin())
    mismatches = [i + 1 for i, (got, want)
                  in enumerate(zip(column, ORBIT_LIFT)) if got != want]
    witnesses = {"coordinates": [str(p) for p in ORBIT_LIFT]}
    if mismatches:
        witnesses["mismatched_coordinates"] = mismatches
    return not mismatches, witnesses


def fixed_structure_certificate() -> tuple[bool, dict]:
    """The symbolic matrix fixes the point [1:0:...:0] (first column) and
    preserves the hyperplane at infinity x10 = 0 (last row)."""
    theta = get_representation("theta")
    table = theta.table
    n = theta.dimension
    one, zero = ENTRY_RING.one(), ENTRY_RING.zero()
    col_ok = table[0, 0] == one and all(table[i, 0] == zero
                                        for i in range(1, n))
    row_ok = table[n - 1, n - 1] == one and all(table[n - 1, j] == zero
                                                for j in range(n - 1))
    return col_ok and row_ok, {"first_column_is_e1": col_ok,
                               "last_row_is_e10": row_ok}


# -- limit point at infinity -------------------------------------------------

RAY_RING = PolyRing("t")

def _scaled_ray(*coeffs) -> tuple[Poly, ...]:
    t = RAY_RING.var("t")
    return tuple(t * k for k in coeffs)

# Shipped rays to infinity and evaluation schedule.  Scaling by 5 makes
# the largest scheduled parameter already reach domination ratio < 1/1000
# while keeping every value exact and small.
DEFAULT_RAYS: tuple[tuple[Poly, ...], ...] = (
    _scaled_ray(5, 0, 0),
    _scaled_ray(0, 0, 5),
    _scaled_ray(5, 5, 5),
)
DEFAULT_RAY_TS = (Fraction(10), Fraction(100), Fraction(1000))
DOMINATION_BOUND = Fraction(1, 1000)


def limit_point_certificate(rays: Sequence[Sequence[Poly]] = DEFAULT_RAYS,
                            t_values: Sequence[Fraction] = DEFAULT_RAY_TS,
                            ) -> tuple[bool, dict]:
    """Domination of the first coordinate along rays to infinity.

    Symbolic part: on each ray the first orbit coordinate has strictly
    larger degree in t than every other coordinate.  Numeric part: the
    ratio max_i>=2 |x_i(t)| / x1(t) strictly decreases along the given
    t values and ends below 1/1000.
    """
    t_values = [to_fraction(t) for t in t_values]
    if any(t <= 0 for t in t_values) or sorted(t_values) != list(t_values) \
            or len(set(t_values)) != len(t_values):
        raise ValueError("t values must be positive and strictly increasing")
    ray_reports = []
    all_ok = True
    for ray in rays:
        ray = list(ray)
        if len(ray) != 3:
            raise ValueError("a ray is three polynomials in t")
        if all(p.total_degree() <= 0 for p in ray):
            raise ValueError("ray has no coordinate of positive degree")
        coords = orbit_lift(HeisElement(*ray))
        if coords[0].is_zero():
            raise ValueError("first coordinate vanishes identically; "
                             "the ray does not leave every bounded set")
        lead_degree = coords[0].degree_in("t")
        other_degrees = [p.degree_in("t") for p in coords[1:]]
        degrees_ok = all(d < lead_degree for d in other_degrees)

        ratios = []
        for t in t_values:
            values = [p.eval({"t": t}) for p in coords]
            if values[0] <= 0:
                raise ValueError(f"first coordinate not positive at t={t}")
            ratios.append(max(abs(v) for v in values[1:]) / values[0])
        decreasing = all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
        small_enough = ratios[-1] < DOMINATION_BOUND
        ok = degrees_ok and decreasing and small_enough
        all_ok = all_ok and ok
        ray_reports.append({
            "ray": [str(p) for p in ray],
            "leading_degree": lead_degree,
            "other_degrees": [d if d >= 0 else "-inf"
                              for d in other_degrees],
            "ratios": ratios,
            "passes": ok,
        })
    return all_ok, {"rays": ray_reports,
                    "bound": DOMINATION_BOUND,
                    "limit_point": "[1:0:0:0:0:0:0:0:0:0]"}


# -- orbit samples ------------------------------------------------------------

class OrbitSample:
    """Distinct orbit parameters (a, b, c), sampled or read from a file."""

    def __init__(self, parameters: Sequence[tuple]):
        parameters = [tuple(to_fraction(x) for x in p) for p in parameters]
        if len(set(parameters)) != len(parameters):
            raise ValueError("orbit sample parameters must be distinct")
        self.parameters = parameters

    @cached_property
    def columns(self) -> tuple[Cleared, ...]:
        """Each point's affine LP column (lift, 1) as ((*R, d), d) / k,
        for its lift R / d from ORBIT_LIFT_PLAN's int values and
        k = gcd(d, *R): a point is a convex combination of others exactly
        when its affine column is a nonnegative combination of theirs,
        the last row saying that the weights sum to 1, and a Farkas
        functional of that system is a separating affine functional.
        Dividing by k keeps the ints small and, as a positive column
        scale, moves neither Bland's path nor the functional.  Built once
        per sample for the LPs of every extreme-point check, and
        immutable."""
        lifts = (ORBIT_LIFT_PLAN.integer_values(HeisElement(*p))
                 for p in self.parameters)
        return tuple((tuple(x // k for x in (*values, d)), d // k)
                     for values, d in lifts for k in [gcd(d, *values)])

    def __len__(self):
        return len(self.parameters)

    # A rational cell never needs quoting, so plain commas give the CSV.
    def to_csv(self) -> str:
        lines = ["a,b,c", *(",".join(map(format_rational, p))
                            for p in self.parameters)]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str) -> "OrbitSample":
        header, *rows = text.splitlines() or [""]
        if header != "a,b,c":
            raise ValueError("orbit sample CSV must have header a,b,c")
        params = [tuple(parse_rational(cell) for cell in row.split(","))
                  for row in rows if row]
        return OrbitSample(params)


def sample_orbit(count: int, seed: int, label: str = "orbit",
                 nonzero: bool = False) -> OrbitSample:
    stream = RandomStream(seed).split(label)
    params = stream.distinct_triples(count, nonzero=nonzero)
    return OrbitSample(params)


def proper_convexity_certificate() -> tuple[bool, dict]:
    """Every orbit point satisfies x1 >= 0, by the syntactic even-power
    criterion on the first coordinate; the closed hull therefore lies in
    the halfspace {x1 >= 0} and misses the hyperplane {x1 = -1}."""
    first = ORBIT_FORMULA[0]
    nonneg, nonneg_witnesses = nonneg_certificate(first)
    return nonneg, {
        "halfspace": "x1 >= 0",
        "separated_from": "x1 = -1",
        "first_coordinate": str(first),
        "nonnegativity": nonneg_witnesses,
    }


def nonneg_certificate(p: Poly) -> tuple[bool, dict]:
    """Syntactic nonnegativity: every term has all-even exponents and a
    positive coefficient.  False means inconclusive, not negative."""
    terms = []
    ok = True
    for exps, coeff in p.sorted_terms():
        even = all(e % 2 == 0 for e in exps)
        positive = coeff > 0
        terms.append({"monomial_exponents": list(exps), "coefficient": coeff,
                      "all_even": even, "positive": positive})
        ok = ok and even and positive
    return ok, {"terms": terms, "polynomial": str(p)}


def extreme_point_certificate(sample: OrbitSample, index: int
                              ) -> tuple[bool, dict]:
    """Is sample point `index` outside the convex hull of the others?

    Decided by exact LP: True comes with a verified separating
    functional, False with {"weights": w}, the convex-combination
    weights: the point's entry in the claim's separating_functionals.
    """
    if len(sample) < 11:
        raise ValueError("extreme point check needs at least 11 points")
    if not 0 <= index < len(sample):
        raise IndexError("sample index out of range")
    columns = sample.columns
    others = [column for i, column in enumerate(columns) if i != index]
    result = solve_equality_feasibility([*others, columns[index]])
    if result.feasible:
        return False, {"weights": result.solution}
    return True, result.farkas
