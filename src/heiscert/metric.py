"""Cross ratio and the Hilbert metric on rational polytopes.

Both run on ints, with one Fraction built per result.  The cross ratio
of four collinear projective points is computed through 2x2
determinants in a coordinate pair that embeds their common line, so
points at infinity need no special casing; a point of int coordinates
goes in as it is, and any other is cleared to ints by its own scale,
which the ratio cancels.  A polytope is a list of faces a.z <= b,
each one int row [a | b], cleared of denominators once when box or
load_polytope builds it; those two are where floats and bools are
refused.  The Hilbert metric between interior points is returned as
the exact rational argument R of the distance (1/2) log R; the
chord's two ends are cleared together, and the chord's two limits are
int pairs.  Taking the log is left to callers that want floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .linalg import _echelon, clear_denominators
from .rationals import parse_rational, to_fraction


def cross_ratio(p1, p2, p3, p4) -> Fraction:
    """Cross ratio [p1,p2; p3,p4] of four collinear projective points.

    With affine parameters t_i on the common line this is
    ((t3-t1)(t4-t2)) / ((t3-t2)(t4-t1)).  Points are given as sequences
    of homogeneous coordinates, any nonzero multiple standing for the same
    point; they must be pairwise distinct and collinear.

    A point of int coordinates is used as it is; any other point is
    cleared to ints by the lcm of its own denominators, which keeps its
    projective class, and the ratio (d02 d13) / (d12 d03) of the 2x2
    determinants d_ij cancels each point's scale.  The two pivot
    columns come off one fraction-free echelon pass, since a scale does
    not move pivots, and only the result is a Fraction.
    """
    points = []
    for p in (p1, p2, p3, p4):
        if not all(type(x) is int for x in p):
            (p,), _ = clear_denominators([[to_fraction(x) for x in p]])
        points.append(p)
    if len({len(v) for v in points}) != 1:
        raise ValueError("points live in different dimensions")
    pivots = _echelon([*points], reduce_above=False)[0]
    if len(pivots) != 2:
        raise ValueError("cross ratio needs four collinear points "
                         "spanning a line")
    c1, c2 = pivots
    plane = [(v[c1], v[c2]) for v in points]

    def d(i: int, j: int) -> int:
        (x1, y1), (x2, y2) = plane[i], plane[j]
        return x1 * y2 - x2 * y1

    if d(0, 1) == 0 or d(0, 2) == 0 or d(0, 3) == 0 or d(1, 2) == 0 \
            or d(1, 3) == 0 or d(2, 3) == 0:
        raise ValueError("cross ratio needs pairwise distinct points")
    return Fraction(d(0, 2) * d(1, 3), d(1, 2) * d(0, 3))


def _face(cells: Sequence) -> tuple[int, ...]:
    """The face a.z <= b given as the values [a | b] (ints and
    Fractions), as its int row: [a | b] times the lcm of its
    denominators (clear_denominators), a positive multiple, so the same
    face."""
    (row,), _ = clear_denominators([cells])
    return tuple(row)


def load_polytope(text: str) -> list[tuple[int, ...]]:
    """One face per line, n coefficients then the bound, each
    rational read by parse_rational; the faces as int rows."""
    faces = []
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = [parse_rational(c) for c in line.split()]
        if len(cells) < 2:
            raise ValueError("halfspace line needs coefficients and a bound")
        faces.append(_face(cells))
    if not faces:
        raise ValueError("polytope file is empty")
    if len({len(f) for f in faces}) != 1:
        raise ValueError("halfspaces have inconsistent dimensions")
    return faces


def box(lows: Sequence[Fraction],
        highs: Sequence[Fraction]) -> list[tuple[int, ...]]:
    """Axis-aligned box as int face rows, x_i <= hi then -x_i <= -lo for
    each axis; every side goes through to_fraction."""
    if len(lows) != len(highs):
        raise ValueError("box needs as many lows as highs")
    faces = []
    for i, (lo, hi) in enumerate(zip(lows, highs)):
        lo, hi = to_fraction(lo), to_fraction(hi)
        if not lo < hi:
            raise ValueError("box needs lo < hi in every axis")
        e = [0] * len(lows)
        e[i] = 1
        faces.append(_face([*e, hi]))
        e[i] = -1
        faces.append(_face([*e, -lo]))
    return faces


def hilbert_log_argument(polytope: Sequence[Sequence[int]],
                         x: Sequence[Fraction],
                         y: Sequence[Fraction]) -> Fraction:
    """Exact R >= 1 with Hilbert distance (1/2) log R.

    The chord through interior points x, y meets the boundary in u (on
    the x side) and v (on the y side); R is the cross ratio
    (|uy| |xv|) / (|ux| |yv|) in the chord's affine parameter.  The
    faces are int rows [a | b], as box and load_polytope build them.
    Raises ValueError unless x, y and every face have the same
    dimension.
    """
    x = [to_fraction(v) for v in x]
    y = [to_fraction(v) for v in y]
    if len(y) != len(x) or any(len(f) != len(x) + 1 for f in polytope):
        raise ValueError("x, y and the faces differ in dimension")
    s_low, s_high = _chord(polytope, x, y)
    if x == y:
        return Fraction(1)
    if s_low is None or s_high is None:
        raise ValueError("polytope is unbounded along the chord")
    # Interior points force s_low < 0 < 1 < s_high; with s_low = a/b and
    # s_high = c/e, R = ((1 - s_low) s_high) / (-s_low (s_high - 1)).
    (a, b), (c, e) = s_low, s_high
    return Fraction((b - a) * c, -a * (c - e))


def _chord(polytope, x, y) -> tuple[Optional[tuple[int, int]],
                                    Optional[tuple[int, int]]]:
    """Parameters (s_low, s_high) where z(s) = x + s (y - x) leaves the
    polytope, each an int pair (num, den) with den > 0 standing for
    num / den, None on a side no face bounds: x sits at s=0 and y at
    s=1.  x, y and every face must have one dimension (as
    hilbert_log_argument checks).  Raises ValueError unless x and y are
    strictly inside every face.

    x and y are cleared of denominators together, to x = xs/L and
    y = ys/L over their common lcm L; each face a.z <= b is its int row
    [a | b].  With ax = a.xs
    and ay = a.ys, the slack of x is b - a.x = (b L - ax)/L and the rate
    a.(y - x) is (ay - ax)/L, both up to the face's scale, so the face
    is met at s = (b L - ax) / (ay - ax).  The nearest face on each side
    is picked by cross-multiplying, so no Fraction is built.
    """
    (xs, ys), scale = clear_denominators([x, y])
    s_low = None
    s_high = None
    for row in polytope:
        ax = ay = 0
        # row is [a | b]: zip stops at the points' length, before b.
        for a, u, v in zip(row, xs, ys):
            if a:
                ax += a * u
                ay += a * v
        bound = row[-1] * scale
        slack = bound - ax
        if slack <= 0:
            raise ValueError("x is not interior to the polytope")
        if bound <= ay:
            raise ValueError("y is not interior to the polytope")
        # Each face bounds s on one side unless the chord is parallel to it.
        rate = ay - ax
        if rate > 0:
            if s_high is None or slack * s_high[1] < s_high[0] * rate:
                s_high = (slack, rate)
        elif rate < 0:
            if s_low is None or -slack * s_low[1] > s_low[0] * -rate:
                s_low = (-slack, -rate)
    return s_low, s_high
