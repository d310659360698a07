"""Deterministic splittable random source for exact test data.

Counter-based: draw i of a stream with 64-bit key k is the SplitMix64
finalizer of k + i*GAMMA (Steele, Lea & Flood, OOPSLA 2014), so a
stream is a pure function of (key, index) and two runs with the same
seed are bit-identical on every platform.  RandomStream.block, the one
SplitMix64 kernel, computes 64 consecutive draws in one pass over an
int holding them as 128-bit lanes (SIMD within a register); the stream
hands them out in order, a whole sample in one take (next_ints, six for
a triple).  Streams split by hashing the parent key with a label, which
keeps concurrent consumers independent of scheduling order.  Every
rational a draw can return is read from one table built at import,
beside a table of small-int value ids, one per distinct value;
distinct_triples drops repeats by those ids instead of hashing
Fractions, and the count of distinct triples that bounds it is the
number of ids cubed.
"""

from __future__ import annotations

import hashlib
import struct
from fractions import Fraction

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
# A block is 64 draws, lane k in bits [128k, 128k + 128) of one int, so a
# 64-bit lane times a 64-bit constant stays in its lane.  _LANES packs and
# unpacks the lanes' low 64 bits, little-endian on every platform.
BLOCK = 64
_LANES = struct.Struct("<" + "Q8x" * BLOCK)
_ONES = int.from_bytes(_LANES.pack(*[1] * BLOCK), "little")
_LOW = MASK64 * _ONES
_RAMP = int.from_bytes(_LANES.pack(*[k * GAMMA & MASK64
                                     for k in range(BLOCK)]), "little")
# Sampled rationals are p/q with |p| <= MAX_NUM and 1 <= q <= MAX_DEN.
MAX_NUM = 12
MAX_DEN = 5
# Every value next_fraction can draw, FRACTIONS[p + MAX_NUM][q - 1] = p/q,
# built once so that a draw reads its value instead of normalising it.
FRACTIONS = tuple(tuple(Fraction(p, q) for q in range(1, MAX_DEN + 1))
                  for p in range(-MAX_NUM, MAX_NUM + 1))
# VALUE_IDS[p + MAX_NUM][q - 1] is a small int per distinct value, 0 for
# 0, so 2/2 and 1/1 share one: keyed by the reduced int pair, so no
# Fraction is hashed.
_IDS = {(0, 1): 0}
VALUE_IDS = tuple(tuple(_IDS.setdefault((x.numerator, x.denominator),
                                        len(_IDS)) for x in row)
                  for row in FRACTIONS)
DISTINCT_VALUES = len(_IDS)
# Distinct triples next_triple draws, 85**3.
DISTINCT_TRIPLES = DISTINCT_VALUES ** 3


def check_seed(seed: int) -> int:
    """seed itself if it is one of the 2**64 seeds in [0, 2**64);
    otherwise ValueError, since a seed outside would draw the samples of
    the seed it equals modulo 2**64.  TypeError for anything but an int
    (a bool or 2.0 would write the seed "True" or "2.0")."""
    if type(seed) is not int:
        raise TypeError(f"seed {seed!r} is not an int")
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return seed


class RandomStream:
    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        self._counter = 0
        # _block[k] is draw _start + k; draws up to _counter are spent.
        self._block = ()
        self._start = 1

    def split(self, label: str) -> "RandomStream":
        """An independent child stream; deterministic in (seed, label)."""
        material = f"{self.seed}:{label}".encode()
        child = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
        return RandomStream(child)

    def block(self, first: int) -> tuple[int, ...]:
        """Draws first .. first + 63: the SplitMix64 finalizer of
        seed + i*GAMMA, each step masked back to 64 bits per lane."""
        x = (((self.seed + first * GAMMA) & MASK64) * _ONES + _RAMP) & _LOW
        x = ((x ^ (x >> 30)) & _LOW) * 0xBF58476D1CE4E5B9 & _LOW
        x = ((x ^ (x >> 27)) & _LOW) * 0x94D049BB133111EB & _LOW
        # The last shift's spill into bits 97..127 is never read.
        return _LANES.unpack((x ^ (x >> 31)).to_bytes(16 * BLOCK, "little"))

    def _take(self, n: int) -> tuple[int, ...]:
        """The next n draws, 0 <= n <= BLOCK (else ValueError), counted;
        a block that cannot hold them all is replaced by the next one."""
        if not 0 <= n <= BLOCK:
            raise ValueError(f"take of {n} draws is outside [0, {BLOCK}]")
        i = self._counter + 1 - self._start
        self._counter += n
        if i + n > len(self._block):
            self._start = self._counter + 1 - n
            self._block = self.block(self._start)
            i = 0
        return self._block[i:i + n]

    def next_u64(self) -> int:
        """The next draw."""
        return self._take(1)[0]

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo bias is irrelevant here)."""
        return self.next_ints(1, lo, hi)[0]

    def next_ints(self, count: int, lo: int, hi: int) -> list[int]:
        """count <= BLOCK next_int(lo, hi) draws, from one take."""
        if hi < lo:
            raise ValueError("empty range")
        width = hi - lo + 1
        return [lo + x % width for x in self._take(count)]

    def next_fraction(self) -> Fraction:
        """Fraction(next_int(-MAX_NUM, MAX_NUM), next_int(1, MAX_DEN)),
        read from FRACTIONS."""
        i, j = self._take(2)
        return FRACTIONS[i % len(FRACTIONS)][j % MAX_DEN]

    def _keyed_triple(self) -> tuple[int, tuple]:
        """Three next_fraction draws from one six-draw take, and their
        three value ids (VALUE_IDS) as one int, 0 for the identity."""
        a, b, c, d, e, f = self._take(6)
        rows = len(FRACTIONS)
        a, c, e = a % rows, c % rows, e % rows
        b, d, f = b % MAX_DEN, d % MAX_DEN, f % MAX_DEN
        key = ((VALUE_IDS[a][b] * DISTINCT_VALUES + VALUE_IDS[c][d])
               * DISTINCT_VALUES + VALUE_IDS[e][f])
        return key, (FRACTIONS[a][b], FRACTIONS[c][d], FRACTIONS[e][f])

    def next_triple(self, nonzero: bool = False
                    ) -> tuple[Fraction, Fraction, Fraction]:
        """A rational (a, b, c); with nonzero=True, never the identity."""
        while True:
            key, triple = self._keyed_triple()
            if key or not nonzero:
                return triple

    def distinct_triples(self, count: int, nonzero: bool = False) -> list:
        """The first count distinct triples that next_triple(nonzero)
        would draw, in order, with the same draws, keyed by value ids."""
        # A count above the number of distinct triples would draw forever.
        available = DISTINCT_TRIPLES - nonzero  # less the identity (0, 0, 0)
        if not 0 <= count <= available:
            raise ValueError(f"count {count} is outside [0, {available}]")
        out: list = []
        seen = set()
        while len(out) < count:
            key, triple = self._keyed_triple()
            if nonzero and not key:
                continue
            # One hash per draw: the set grows only if the key is new.
            seen.add(key)
            if len(seen) > len(out):
                out.append(triple)
        return out
