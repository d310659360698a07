"""The rank-3 unipotent group law and its three matrix representations.

Group elements are triples (a, b, c) standing for the 3x3 unit
upper-triangular matrix with a, c on the first row and b in position
(2, 3); the composition law is read off from the 3x3 product:

    (a, b, c) * (a', b', c') = (a + a', b + b', c + c' + a*b')

The entry tables of the three representations (named theta, rho6 and
rho14; dimensions 10, 6 and 14) are loaded from plain-text .rep files so
they exist in exactly one transcription.  EntryPlan is the one place
that evaluates polynomials in a, b, c at a group element; each entry
table compiles one when its Representation is built, and the orbit
formula has its own.  A plan lists the distinct monomials, the largest
exponent of each of a, b, c, and every term's coefficient numerator over
one common coefficient denominator.  Every element takes one recipe:
each component is read once as (numerator, denominator), its power
table is scaled in place by the running power of its denominator, and
d is one product, so each monomial is one product over d.  A rational
element's components go in as ints (integer_values), each entry is one
int sum, and Representation.integer_image hands out the matrix as int
rows over d with no Fraction built; a symbolic element's go in as Polys
with int coefficients (specialize), and each entry adds up its terms in
one int map over d, reduced once (see poly for that form).
Representation.nilpotent_ranks is the one Jordan rank route.  On first
use a table multiplies out the powers N, N^2, ... of its N = T - I
(nilpotent, since a loaded table is unit upper triangular) until one is
zero, and compiles the entries on each power's nonzero rows and columns
into one EntryPlan, its power plan.  Evaluation at g is a ring map and
N^k is identically zero off its block, so the blocks of the plan's
values at g have the ranks of N(g)'s powers.  The same compile ranks
each block over Q(a, b, c) by one fraction-free echelon pass over its
Poly entries, keeping the rank r_k and the last pivot, an r_k-square
minor, and compiles those minors into a second, small EntryPlan.  An
element evaluates the minors first: where one is nonzero at g, N(g)^k
has rank r_k (the minor bounds it below, and every larger minor is the
zero polynomial).  Only if some minor vanishes at g are the power
plan's int values evaluated, and only those blocks ranked by one int
echelon pass each.
Homomorphism and injectivity verification run fully symbolically over a
six-variable ring.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import NamedTuple, Sequence, Union

from .linalg import Matrix, _echelon
from .poly import Poly, PolyRing
from .rationals import to_fraction

DATA_DIR = Path(__file__).parent / "data"

# The ring every entry table lives in, and the doubled ring used when two
# symbolic group elements interact.
ENTRY_RING = PolyRing("a", "b", "c")
PAIR_RING = PolyRing("a", "b", "c", "a'", "b'", "c'")

Component = Union[Fraction, Poly]


def _component(x) -> Component:
    return x if isinstance(x, Poly) else to_fraction(x)


class HeisElement(NamedTuple):
    a: Component
    b: Component
    c: Component

    @staticmethod
    def of(a, b, c) -> "HeisElement":
        return HeisElement(_component(a), _component(b), _component(c))

    @staticmethod
    def identity() -> "HeisElement":
        return HeisElement.of(0, 0, 0)

    @staticmethod
    def symbolic(ring: PolyRing = ENTRY_RING, names=("a", "b", "c")) -> "HeisElement":
        return HeisElement(*(ring.var(n) for n in names))


def heis_mul(g: HeisElement, h: HeisElement) -> HeisElement:
    return HeisElement(g.a + h.a, g.b + h.b, g.c + h.c + g.a * h.b)


GENERATORS = {"A": HeisElement.of(1, 0, 0), "B": HeisElement.of(0, 1, 0),
              "C": HeisElement.of(0, 0, 1)}


def generator_power(g: HeisElement, n: Component) -> HeisElement:
    """The n-th power of a generator g, for a rational or Poly n.  Each
    generator spans a one-parameter subgroup ((t,0,0)*(s,0,0) =
    (t+s,0,0) and likewise for B and C), so g^n is g's components
    times n."""
    return HeisElement(g.a * n, g.b * n, g.c * n)


class EntryPlan:
    """Polynomials of ENTRY_RING compiled once for evaluation at group
    elements.

    The plan holds the distinct monomials a^i b^j c^k, the largest
    exponent (I, J, K) of each of a, b, c among them, and every term as
    (polynomial index, monomial index, coefficient numerator), each
    numerator over one denominator L, the lcm of the polynomials' own
    denominators, compiled from their int numerators alone.  A zero
    polynomial has no terms, so it costs nothing."""

    def __init__(self, polys: Sequence[Poly]):
        self.polys = tuple(polys)
        if any(p.ring != ENTRY_RING for p in self.polys):
            raise ValueError(f"polynomials are not in {ENTRY_RING}")
        index: dict[tuple, int] = {}
        for p in self.polys:
            for e in p.numerators:
                index.setdefault(e, len(index))
        self.monomials = tuple(index)
        self.max_exponents = tuple(max((e[axis] for e in index), default=0)
                                   for axis in range(3))
        self.denominator = lcm(*(p.denominator for p in self.polys))
        self.terms = tuple(
            (n, index[e], c * (self.denominator // p.denominator))
            for n, p in enumerate(self.polys)
            for e, c in p.numerators.items())

    def _monomials(self, parts) -> tuple[list, int]:
        """Every monomial at the element whose components are the pairs
        (numerator, denominator) in parts, as one product over
        d = L ad^I bd^J cd^K: a^i b^j c^k is an^i ad^(I-i) bn^j
        bd^(J-j) cn^k cd^(K-k), read off one power table per component,
        scaled in place by the running power of its denominator.  A
        numerator is an int or a Poly; a zero exponent over denominator
        1 is the int 1, which a Poly times as itself."""
        d = self.denominator
        tables = []
        for (num, den), top in zip(parts, self.max_exponents):
            powers = [1]
            for _ in range(top):
                powers.append(powers[-1] * num)
            if den != 1:
                scale = 1
                for i in range(top - 1, -1, -1):
                    scale *= den
                    powers[i] *= scale
                d *= scale
            tables.append(powers)
        pa, pb, pc = tables
        return [pa[i] * pb[j] * pc[k] for i, j, k in self.monomials], d

    def integer_values(self, g: HeisElement) -> tuple[list[int], int]:
        """Ints R and d > 0 with the polynomials at the rational g equal
        to R / d, each value its terms summed over the int monomials."""
        monomials, d = self._monomials([(x.numerator, x.denominator)
                                        for x in g])
        values = [0] * len(self.polys)
        for n, m, c in self.terms:
            values[n] += c * monomials[m]
        return values, d

    def specialize(self, g: HeisElement) -> list[Poly]:
        """The polynomials at the symbolic g, in the one ring g's
        components share.  Each component, a rational one lifted into
        the ring, goes in as its int-coefficient numerator over its
        denominator, so each value adds its terms into one int map over
        d, reduced once.  A rational g is refused: its values are
        integer_values."""
        rings = {v.ring for v in g if isinstance(v, Poly)}
        if not rings:
            raise TypeError("a rational element is evaluated on ints, by "
                            "integer_values or integer_image")
        if len(rings) != 1:
            raise ValueError("symbolic components must share one ring")
        ring = rings.pop()
        parts = [x if isinstance(x, Poly) else ring.const(x) for x in g]
        monomials, d = self._monomials(
            [(Poly.from_numerators(ring, x.numerators, 1), x.denominator)
             for x in parts])
        items = [(m if isinstance(m, Poly) else ring.const(m))
                 .numerators.items() for m in monomials]
        sums: list[dict] = [{} for _ in self.polys]
        for n, m, c in self.terms:
            acc = sums[n]
            get = acc.get
            for e, x in items[m]:
                acc[e] = get(e, 0) + c * x
        zero = ring.zero()
        return [Poly.from_numerators(ring, acc, d) if acc else zero
                for acc in sums]


class PowerPlan(NamedTuple):
    """The nonzero powers N, N^2, ..., N^m of N = T - I for an entry
    table T: supports[k - 1] holds the rows and columns on which N^k is
    not identically zero, and entries compiles N^k's entries on them,
    row by row, for k = 1 to m in turn.  ranks holds each block's rank
    over Q(a, b, c), and minors compiles the last pivot of its echelon
    pass, a nonzero minor of that size."""
    entries: EntryPlan
    supports: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    ranks: tuple[int, ...]
    minors: EntryPlan


def _compile_powers(table: Matrix) -> PowerPlan:
    """The power plan of a unit upper-triangular table, whose N = T - I
    is strictly upper triangular, so some power of it is zero.  Each
    block is ranked by one echelon pass over its Poly entries, exact
    since Q[a, b, c] is an integral domain."""
    n = table.rows
    # The table with its unit diagonal, which Representation checks, at 0.
    power = nilpotent = Matrix([[ENTRY_RING.zero() if i == j else p
                                 for j, p in enumerate(row)]
                                for i, row in enumerate(table.entries)])
    supports = []
    polys: list[Poly] = []
    ranks = []
    minors = []
    while True:
        entries = power.entries
        rows = tuple(i for i, row in enumerate(entries) if any(row))
        if not rows:
            return PowerPlan(EntryPlan(polys), tuple(supports), tuple(ranks),
                             EntryPlan(minors))
        cols = tuple(j for j in range(n) if any(row[j] for row in entries))
        supports.append((rows, cols))
        block = [[entries[i][j] for j in cols] for i in rows]
        # Read before the echelon pass rewrites the block in place.
        polys += [p for row in block for p in row]
        pivots, _, d = _echelon(block, reduce_above=False)
        ranks.append(len(pivots))
        minors.append(d[len(pivots) - 1])
        power = power * nilpotent


class Representation:
    """A symbolic unit-upper-triangular entry table in variables a, b, c;
    its power plan is compiled on the first nilpotent_ranks call."""

    def __init__(self, name: str, dimension: int, table: Matrix):
        if table.rows != dimension or table.cols != dimension:
            raise ValueError("entry table has wrong shape")
        self.plan = EntryPlan([p for row in table.entries for p in row])
        for i in range(dimension):
            if table[i, i] != ENTRY_RING.one():
                raise ValueError(f"{name}: diagonal entry ({i},{i}) is not 1")
            for j in range(i):
                if not table[i, j].is_zero():
                    raise ValueError(
                        f"{name}: nonzero entry ({i},{j}) below the diagonal")
        self.name = name
        self.dimension = dimension
        self.table = table
        self.power_plan: PowerPlan | None = None
        values, d = self.plan.integer_values(HeisElement.identity())
        if values != [d * (i == j) for i in range(dimension)
                      for j in range(dimension)]:
            raise ValueError(f"{name}: table at the identity is not I")

    def __call__(self, g: HeisElement) -> Matrix:
        """The matrix of the symbolic g; a rational g's is integer_image."""
        n = self.dimension
        flat = self.plan.specialize(g)
        return Matrix([flat[i:i + n] for i in range(0, n * n, n)])

    def integer_image(self, g: HeisElement) -> tuple[list[list[int]], int]:
        """Int rows R and d > 0 with the matrix of the rational g equal
        to R / d, read straight off the compiled plan."""
        n = self.dimension
        values, d = self.plan.integer_values(g)
        return [values[i:i + n] for i in range(0, n * n, n)], d

    def nilpotent_ranks(self, g: HeisElement) -> list[int]:
        """rank(N^0) = n, rank(N), rank(N^2), ... ending at 0, for
        N = self(g) - I at the rational g: N^k takes the plan's rank
        where its minor is nonzero at g, else its block's rank by one
        echelon pass over the power plan's int values, until a rank is
        0; past the plan's last power, N^k is identically zero."""
        if self.power_plan is None:
            self.power_plan = _compile_powers(self.table)
        plan = self.power_plan
        minors, _ = plan.minors.integer_values(g)
        if all(minors):
            return [self.dimension, *plan.ranks, 0]
        values, _ = plan.entries.integer_values(g)
        ranks = [self.dimension]
        start = 0
        for (rows, cols), rank, minor in zip(plan.supports, plan.ranks,
                                             minors):
            width = len(cols)
            stop = start + len(rows) * width
            if not minor:
                block = [values[i:i + width]
                         for i in range(start, stop, width)]
                rank = len(_echelon(block, reduce_above=False)[0])
                if not rank:
                    return ranks + [0]
            ranks.append(rank)
            start = stop
        return ranks + [0]

    def __repr__(self):
        return f"Representation({self.name}, dim={self.dimension})"


def load_representation(name: str, dimension: int) -> Representation:
    """Read data/NAME.rep: lines "row col polynomial", 1-based indices,
    omitted entries 0 off-diagonal and 1 on-diagonal."""
    path = DATA_DIR / f"{name}.rep"
    entries = [[ENTRY_RING.one() if i == j else ENTRY_RING.zero()
                for j in range(dimension)] for i in range(dimension)]
    seen = set()
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        row_text, col_text, poly_text = line.split(None, 2)
        i, j = int(row_text) - 1, int(col_text) - 1
        if not (0 <= i < dimension and 0 <= j < dimension):
            raise ValueError(f"{path.name}:{line_no}: index out of range")
        if (i, j) in seen:
            raise ValueError(f"{path.name}:{line_no}: duplicate entry ({i},{j})")
        seen.add((i, j))
        entries[i][j] = ENTRY_RING.parse(poly_text)
    return Representation(name, dimension, Matrix(entries))


# The shipped entry tables, data/NAME.rep, and their dimensions.
TABLE_DIMENSIONS = {"theta": 10, "rho6": 6, "rho14": 14}
_CACHE: dict[str, Representation] = {}


def get_representation(name: str) -> Representation:
    if name not in _CACHE:
        if name not in TABLE_DIMENSIONS:
            raise KeyError(f"unknown representation {name!r}")
        _CACHE[name] = load_representation(name, TABLE_DIMENSIONS[name])
    return _CACHE[name]


def symbolic_pair() -> tuple[HeisElement, HeisElement]:
    """Two independent symbolic elements over the shared six-variable ring."""
    g = HeisElement.symbolic(PAIR_RING, ("a", "b", "c"))
    h = HeisElement.symbolic(PAIR_RING, ("a'", "b'", "c'"))
    return g, h


def verify_homomorphism(rep: Representation) -> tuple[bool, dict]:
    """Check rep(g) rep(h) = rep(g h) as an exact identity in six variables."""
    g, h = symbolic_pair()
    product = rep(g) * rep(h)
    composed = rep(heis_mul(g, h))
    for i in range(rep.dimension):
        for j in range(rep.dimension):
            if product[i, j] != composed[i, j]:
                value = str(product[i, j] - composed[i, j])
                return False, {"first_nonzero_entry": {
                    "row": i + 1, "col": j + 1, "value": value}}
    return True, {"entries_checked": rep.dimension ** 2,
                  "ring": list(PAIR_RING.names)}


def verify_injectivity_generators(rep: Representation) -> tuple[bool, dict]:
    """True iff the table carries the bare coordinate polynomials a, b, c
    somewhere, so a matrix determines its group element by inspection."""
    targets = {n: ENTRY_RING.var(n) for n in ("a", "b", "c")}
    found: dict[str, list[list[int]]] = {n: [] for n in targets}
    for i in range(rep.dimension):
        for j in range(rep.dimension):
            for name, target in targets.items():
                if rep.table[i, j] == target:
                    found[name].append([i + 1, j + 1])
    missing = [n for n, positions in found.items() if not positions]
    if missing:
        return False, {"missing_coordinates": missing, "positions": found}
    return True, {"positions": found}


def one_parameter_power(rep: Representation, generator: str,
                        ring: PolyRing) -> Matrix:
    """The symbolic n-th power of a generator's image, n in ring: the
    entry table specialized at generator_power with parameter n."""
    return rep(generator_power(GENERATORS[generator], ring.var("n")))
