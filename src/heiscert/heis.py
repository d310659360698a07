"""The rank-3 unipotent group law and its three matrix representations.

Group elements are triples (a, b, c) standing for the 3x3 unit
upper-triangular matrix with a, c on the first row and b in position
(2, 3); the composition law is read off from the 3x3 product:

    (a, b, c) * (a', b', c') = (a + a', b + b', c + c' + a*b')

The entry tables of the three representations (named theta, rho6 and
rho14; dimensions 10, 6 and 14) are loaded from plain-text .rep files so
they exist in exactly one transcription.  specialize() is the one place
that evaluates polynomials in a, b, c at a group element, rational or
symbolic; the entry tables and the orbit formula both go through it.
Each distinct monomial a^i b^j c^k is built once per call and shared
across all the polynomials passed.  At a rational element it works in
plain integers: a monomial is one (numerator, denominator) pair built
from the components' numerators and denominators, each polynomial's
terms are summed over one common denominator, and a single Fraction is
built per value.  At a symbolic element a monomial is a product of
cached powers of the components, and each polynomial's terms go into one
term map.  A whole table costs one pass over its monomials and one
reduction per nonzero entry.  Homomorphism and injectivity verification
run fully symbolically over a six-variable ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Sequence, Union

from .linalg import Matrix
from .poly import Poly, PolyRing
from .rationals import to_fraction

DATA_DIR = Path(__file__).parent / "data"

# The ring every entry table lives in, and the doubled ring used when two
# symbolic group elements interact.
ENTRY_RING = PolyRing("a", "b", "c")
PAIR_RING = PolyRing("a", "b", "c", "a'", "b'", "c'")

Component = Union[Fraction, Poly]


@dataclass(frozen=True)
class HeisElement:
    a: Component
    b: Component
    c: Component

    @staticmethod
    def of(a, b, c) -> "HeisElement":
        conv = lambda x: x if isinstance(x, Poly) else to_fraction(x)
        return HeisElement(conv(a), conv(b), conv(c))

    @staticmethod
    def identity() -> "HeisElement":
        return HeisElement.of(0, 0, 0)

    @staticmethod
    def symbolic(ring: PolyRing = ENTRY_RING, names=("a", "b", "c")) -> "HeisElement":
        return HeisElement(*(ring.var(n) for n in names))

    def components(self) -> tuple[Component, Component, Component]:
        return (self.a, self.b, self.c)


def heis_mul(g: HeisElement, h: HeisElement) -> HeisElement:
    return HeisElement(g.a + h.a, g.b + h.b, g.c + h.c + g.a * h.b)


GEN_A = HeisElement.of(1, 0, 0)
GEN_B = HeisElement.of(0, 1, 0)
GEN_C = HeisElement.of(0, 0, 1)
GENERATORS = {"A": GEN_A, "B": GEN_B, "C": GEN_C}


def specialize(polys: Sequence[Poly], g: HeisElement) -> list[Component]:
    """The polynomials of ENTRY_RING evaluated at g: rationals if g is
    rational, otherwise polynomials in the one ring g's components share.

    Each distinct monomial a^i b^j c^k is built once per call and shared
    by every polynomial passed.  At a rational g it is an int numerator
    and denominator; each value is summed in int over the lcm of its
    terms' denominators and becomes one Fraction (a shared 0 when it
    vanishes).  At a symbolic g it is a product of cached powers of g's
    components, and each value collects its terms in one term map."""
    components = g.components()
    if all(isinstance(v, Fraction) for v in components):
        (an, ad), (bn, bd), (cn, cd) = (
            (x.numerator, x.denominator) for x in components)
        monomials: dict[tuple, tuple[int, int]] = {}
        zero = Fraction(0)
        values = []
        for p in polys:
            num, den = 0, 1
            for e, coeff in p.terms.items():
                mono = monomials.get(e)
                if mono is None:
                    i, j, k = e
                    mono = monomials[e] = (an ** i * bn ** j * cn ** k,
                                           ad ** i * bd ** j * cd ** k)
                t_num = coeff.numerator * mono[0]
                t_den = coeff.denominator * mono[1]
                if t_den == den:
                    num += t_num
                else:
                    common = lcm(den, t_den)
                    num = num * (common // den) + t_num * (common // t_den)
                    den = common
            values.append(Fraction(num, den) if num else zero)
        return values
    rings = {v.ring for v in components if isinstance(v, Poly)}
    if len(rings) != 1:
        raise ValueError("symbolic components must share one ring")
    ring = rings.pop()
    powers = [[x if isinstance(x, Poly) else ring.const(x)]
              for x in components]   # powers[axis][n - 1] = component^n
    symbolic: dict[tuple, dict] = {}
    values = []
    for p in polys:
        terms: dict = {}
        for e, coeff in p.terms.items():
            mono = symbolic.get(e)
            if mono is None:
                factors = []
                for seq, n in zip(powers, e):
                    if n:
                        while len(seq) < n:
                            seq.append(seq[-1] * seq[0])
                        factors.append(seq[n - 1])
                product = factors[0] if factors else ring.one()
                for f in factors[1:]:
                    product = product * f
                mono = symbolic[e] = product.terms
            for m, c in mono.items():
                terms[m] = terms.get(m, 0) + coeff * c
        values.append(Poly(ring, terms))
    return values


class Representation:
    """A symbolic unit-upper-triangular entry table in variables a, b, c."""

    def __init__(self, name: str, dimension: int, table: Matrix):
        if table.rows != dimension or table.cols != dimension:
            raise ValueError("entry table has wrong shape")
        if any(p.ring != ENTRY_RING for row in table.entries for p in row):
            raise ValueError(f"{name}: entries are not in {ENTRY_RING}")
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
        if self(HeisElement.identity()) != Matrix.identity(dimension):
            raise ValueError(f"{name}: table at the identity is not I")

    def __call__(self, g: HeisElement) -> Matrix:
        """The matrix of g: rational if g is rational, symbolic otherwise."""
        n = self.dimension
        flat = specialize([p for row in self.table.entries for p in row], g)
        return Matrix([flat[i:i + n] for i in range(0, n * n, n)])

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


_CACHE: dict[str, Representation] = {}


def get_representation(name: str) -> Representation:
    if name not in _CACHE:
        dims = {"theta": 10, "rho6": 6, "rho14": 14}
        if name not in dims:
            raise KeyError(f"unknown representation {name!r}")
        _CACHE[name] = load_representation(name, dims[name])
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
    difference = product - composed
    for i in range(rep.dimension):
        for j in range(rep.dimension):
            if not difference[i, j].is_zero():
                return False, {
                    "first_nonzero_entry": {"row": i + 1, "col": j + 1,
                                            "value": str(difference[i, j])},
                }
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
    """The symbolic n-th power of a generator's image, n in ring.

    Each generator spans a one-parameter subgroup ((t,0,0)*(s,0,0) =
    (t+s,0,0) and likewise for B and C), so the n-th power is the entry
    table specialized at parameter n.
    """
    if generator not in GENERATORS:
        raise KeyError(f"generator must be one of A, B, C, got {generator!r}")
    n = ring.var("n")
    zero = ring.zero()
    components = {"A": (n, zero, zero), "B": (zero, n, zero),
                  "C": (zero, zero, n)}[generator]
    return rep(HeisElement(*components))
