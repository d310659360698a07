"""Exact matrices over rational (Fraction or int) or Poly entries.

Multiplication and equality work for either scalar kind, and one operand
of a product may be rational while the other is Poly: Poly.__mul__
scales by a rational directly, so rational data never needs lifting
into the polynomial ring by hand.  apply() is the one-column case of
the product.  Storage is dense, but the product multiplies only nonzero
pairs (Gustavson's row-by-row scheme): the unipotent tables, their
nilpotent parts and the subspace basis are mostly zeros.  An entry that
no nonzero pair reaches is one shared zero per call, built as a product
of the operands' first entries times 0, so it has the type (0,
Fraction(0) or the zero Poly) that a dense sum of homogeneous operands
gives.
Determinant, rank and reduced echelon form are restricted to rational
matrices.  All of them run on an integer copy cleared over one common
scale by clear_denominators(), the one clearing routine, through one
fraction-free pivot step, eliminate(), which the lp simplex shares;
intermediate values stay integral instead of accumulating huge reduced
fractions.  Rows are scaled lazily: each row
carries a divisor, the pivot in force when it was last exact, and a
pivot step touches only the rows with a nonzero entry in its column,
dividing each exactly by its own divisor (see eliminate for why the
division is exact); in a touched row, an entry whose pair with the
pivot row is zero on both sides stays 0 without arithmetic.  A forward
pass (det, rank, the cross ratio's pivots, each Jordan power block)
takes no step for a pivot with no nonzero below it: one exact division
gives its true pivot, and its row is not rewritten.
integer_product() multiplies int rows by int rows, one dot product per
entry, for every int caller, the cross-ratio claim's stack of theta
images included: it lists no nonzero pairs.
integer_kernel() reads an int null-space basis off one Gauss-Jordan pass
over a presolved copy: the columns that singleton rows force to zero,
round after round, are dropped first.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence, Union

from .poly import Poly
from .rationals import parse_rational

Entry = Union[int, Fraction, Poly]


class Matrix:
    """Immutable rectangular matrix; entries all rational (Fraction or
    int, which may mix) or all Poly.  In a product or apply() one operand
    may be rational and the other Poly; the result is then Poly.  The
    product multiplies only nonzero pairs; with int and Fraction entries
    mixed, an entry's type may then differ from a dense sum's, never its
    value."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Entry]]):
        rows = [list(r) for r in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        self.rows = len(rows)
        self.cols = width
        self.entries = tuple(tuple(r) for r in rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[Fraction(1) if i == j else Fraction(0)
                        for j in range(n)] for i in range(n)])

    def __getitem__(self, pos):
        i, j = pos
        return self.entries[i][j]

    def row(self, i: int):
        return self.entries[i]

    def column(self, j: int):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    # -- arithmetic --------------------------------------------------------

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Matrix product over the nonzero pairs only, through the one
        kernel _gustavson.  An entry with no nonzero pair is the shared
        zero self[0, 0] * other[0, 0] * 0, which has the type a dense
        sum of homogeneous operands would have (0, Fraction(0) or the
        zero Poly)."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}")
        zero = self.entries[0][0] * other.entries[0][0] * 0
        sums = _gustavson(self.entries, _nonzero_pairs(other.entries),
                          other.cols)
        return Matrix([[zero if a is None else a for a in acc]
                       for acc in sums])

    def transpose(self) -> "Matrix":
        return Matrix([self.column(j) for j in range(self.cols)])

    def apply(self, vector: Sequence[Entry]) -> list:
        """Matrix-vector product: the one column of self times the
        vector as a column matrix, so its entries, their types and the
        shared zero are those of __mul__."""
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        return list((self * Matrix([[x] for x in vector])).column(0))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def _require_rational(self):
        """Raise TypeError unless every entry is an int or a Fraction;
        Poly, float and bool entries are all refused."""
        for kind in {type(x) for row in self.entries for x in row}:
            if not issubclass(kind, (int, Fraction)) or issubclass(kind, bool):
                raise TypeError("operation defined for rational "
                                f"matrices only, not {kind.__name__}")

    # -- exact elimination ---------------------------------------------------

    def det(self) -> Fraction:
        """Exact determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        self._require_rational()
        m, scale = clear_denominators(self.entries)
        pivots, swaps, d = _echelon(m, reduce_above=False)
        if len(pivots) < self.rows:
            return Fraction(0)
        # The last pivot, the det of the copy up to the swaps' sign.
        return Fraction((-1) ** swaps * d[-1], scale ** self.rows)

    def rank(self) -> int:
        """Exact rank by fraction-free Bareiss elimination."""
        self._require_rational()
        m, _ = clear_denominators(self.entries)
        return len(_echelon(m, reduce_above=False)[0])

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and its pivot columns.

        Fraction-free Gauss-Jordan on the integer copy leaves row i
        scaled by its divisor d[i], so one division per entry finishes
        the job.
        """
        self._require_rational()
        m, _ = clear_denominators(self.entries)
        pivots, _, d = _echelon(m, reduce_above=True)
        zero = Fraction(0)
        return Matrix([[Fraction(x, di) if x else zero for x in row]
                       for row, di in zip(m, d)]), pivots

    # -- wire format ---------------------------------------------------------

    @staticmethod
    def from_text(text: str) -> "Matrix":
        rows = []
        for line in text.splitlines():
            if not line.strip():
                continue
            cells = line.split("\t")
            rows.append([parse_rational(c) for c in cells])
        return Matrix(rows)


def clear_denominators(entries) -> tuple[list[list[int]], int]:
    """Clear denominators over one common scale, the lcm of all of them
    (entries int or Fraction, mixed freely); returns the int rows and
    that scale, so the copy is entries times scale.  One positive scale
    keeps ranks, pivots, products and the signs of dot products, and a
    square copy's determinant is the original's times scale ** n."""
    scale = lcm(*(x.denominator for row in entries for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row]
            for row in entries], scale


def eliminate(m: list[list[int]], d: list[int], r: int, c: int, rows,
              prev: int) -> int:
    """One fraction-free pivot step on the integer matrix m, in place;
    returns the new pivot p.

    Rows are scaled lazily.  Row i stands for its Bareiss row
    m[i] * prev // d[i], where prev is the previous pivot of the same
    elimination (1 before the first) and d[i] the pivot in force when row
    i was last exact (1 at the start).  The step first brings the pivot
    row r to scale, so p = m[r][c] is the true pivot and d[r] becomes p.
    Every row i in rows with an entry f != 0 in column c becomes
    (m[i] * p - f * m[r]) // d[i], and d[i] becomes p; an entry that is
    0 in both m[i] and m[r] is written 0 directly, the value that
    (0 * p - f * 0) // d[i] would give.  The division is
    exact: substituting the stored rows shows that the result is the
    Bareiss update (true_i * p - true_f * true_r) // prev, every entry of
    which is a minor of the starting matrix (Bareiss, Math. Comp. 22,
    1968; Edmonds, J. Res. NBS 71B, 1967).  A row with a zero in column
    c, an all-zero row included, is not touched: its Bareiss row gains
    the factor p / prev, which the move from prev to p accounts for.  So
    a stored row differs from its Bareiss row by a nonzero factor, which
    changes no entry's zeroness and, when every pivot is positive, no
    sign.
    """
    pivot_row = m[r]
    if d[r] != prev:
        scale = d[r]
        pivot_row = m[r] = [x * prev // scale for x in pivot_row]
    p = pivot_row[c]
    d[r] = p
    for i in rows:
        row = m[i]
        f = row[c]
        if f:
            scale = d[i]
            m[i] = [(x * p - f * y) // scale if x or y else 0
                    for x, y in zip(row, pivot_row)]
            d[i] = p
    return p


def _echelon(m: list[list[int]], reduce_above: bool
             ) -> tuple[list[int], int, list[int]]:
    """Bring the integer matrix m to fraction-free echelon form in place.

    Rows below each pivot are cleared; with reduce_above the rows above
    are too (Gauss-Jordan), after which row i divided by its divisor
    d[i] is row i of the reduced echelon form.  Returns the pivot
    columns, the number of row swaps and the row divisors d (see
    eliminate).  In the forward pass (reduce_above false) a pivot with
    no nonzero below it clears nothing, so its row is not rewritten: the
    true pivot p is m[r][col] * prev // d[r], one exact division, and
    d[r] becomes p as in eliminate.  The
    stored row stays at its old scale, which no later step of the pass
    reads.  So d is eliminate's, and d[-1] is the last pivot of a
    square matrix of full rank.
    """
    n_rows = len(m)
    d = [1] * n_rows
    pivots: list[int] = []
    swaps = 0
    prev = 1
    for col in range(len(m[0])):
        r = len(pivots)
        for pivot_row in range(r, n_rows):
            if m[pivot_row][col]:
                break
        else:
            continue
        # Row r, if swapped down to pivot_row, is 0 in col.
        below = [i for i in range(pivot_row + 1, n_rows) if m[i][col]]
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            d[r], d[pivot_row] = d[pivot_row], d[r]
            swaps += 1
        if reduce_above:
            prev = eliminate(m, d, r, col, [*range(r), *below], prev)
        elif below:
            prev = eliminate(m, d, r, col, below, prev)
        else:
            prev = d[r] = m[r][col] * prev // d[r]
        pivots.append(col)
        if r + 1 == n_rows:
            break
    return pivots, swaps, d


def _nonzero_pairs(rows) -> list[list[tuple]]:
    """Each row's nonzero entries as (column, value) pairs."""
    return [[(j, y) for j, y in enumerate(row) if y] for row in rows]


def _gustavson(left, nonzero, width: int) -> list[list]:
    """The sparse product kernel (Gustavson, ACM TOMS 4(3), 1978), for
    Matrix.__mul__ only: row i of the result adds x * y into column j for
    each nonzero x = left[i][k] and each (j, y) in nonzero[k], the
    nonzero pairs of the right operand's row k, k increasing as in the
    textbook sum.  An entry that no nonzero pair reaches is left None,
    for __mul__ to fill with its zero."""
    sums = []
    for row in left:
        acc = [None] * width
        for x, pairs in zip(row, nonzero):
            if x:
                for j, y in pairs:
                    a = acc[j]
                    acc[j] = x * y if a is None else a + x * y
        sums.append(acc)
    return sums


def integer_product(left, right) -> list[list[int]]:
    """The product of the int rows left and right, each any iterable of
    rows (a zip of columns too), as one dot product per entry: most of
    its operands are small and mostly nonzero, so it lists no nonzero
    pairs as _gustavson does.  ValueError if the left rows' width is not
    right's row count."""
    columns = list(zip(*right))
    left = list(left)
    if len(left[0]) != len(columns[0]):
        raise ValueError(f"cannot multiply rows of width {len(left[0])} "
                         f"by {len(columns[0])} rows")
    return [[sum(map(mul, row, column)) for column in columns]
            for row in left]


def integer_kernel(m: list[list[int]]) -> list[list[int]]:
    """An int basis of the right null space of the int rows m (left
    unmodified), one vector per free column f, in order.

    Presolve (Andersen & Andersen, Math. Programming 71, 1995): a row
    whose one nonzero among the live columns is at j forces x_j = 0, so
    j is dropped, round after round.  The row space then holds e_j for
    every dropped j, so these are pivot columns of the RREF, and the
    free columns and basis vectors are those of the copy R of the rows
    still live on the live columns, written back with 0 at every dropped
    column.  After one Gauss-Jordan pass over R, row r over its divisor
    d[r] is row r of its RREF, so the vector is L at f and
    -R[r][f] * (L // d[r]) at row r's pivot, L being the lcm of the d[r]
    with R[r][f] != 0.
    """
    width = len(m[0])
    supports = [[j for j, x in enumerate(row) if x] for row in m]
    forced: set[int] = set()
    while True:
        supports = [[j for j in s if j not in forced] for s in supports]
        singles = {s[0] for s in supports if len(s) == 1}
        if not singles:
            break
        forced |= singles
    keep = [j for j in range(width) if j not in forced]
    # With every row dead, one zero row leaves every kept column free.
    reduced = [[row[j] for j in keep] for row, s in zip(m, supports) if s] \
        or [[0] * len(keep)]
    pivots, _, d = _echelon(reduced, reduce_above=True)
    basis = []
    for f in (j for j in range(len(keep)) if j not in pivots):
        used = [r for r in range(len(pivots)) if reduced[r][f]]
        vec = [0] * width
        vec[keep[f]] = scale = lcm(*(d[r] for r in used))
        for r in used:
            vec[keep[pivots[r]]] = -reduced[r][f] * (scale // d[r])
        basis.append(vec)
    return basis


def jordan_partition(ranks: Sequence[int]) -> list[int]:
    """Jordan block sizes, largest first, from the rank sequence n,
    rank(N), ..., 0 of a nilpotent N, as Representation.nilpotent_ranks
    gives it: the number of blocks of size > j is rank(N^j) -
    rank(N^(j+1)), and the partition is the conjugate of those counts."""
    at_least = [r - s for r, s in zip(ranks, ranks[1:])]
    return [sum(1 for k in at_least if k > j) for j in range(at_least[0])]
