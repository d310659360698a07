"""Deterministic splittable random source for exact test data.

Counter-based: draw i of a stream with 64-bit key k is the SplitMix64
finalizer of k + i*GAMMA (Steele, Lea & Flood, OOPSLA 2014), applied
inline by next_u64, the one draw primitive; so a stream is a pure
function of (key, index) and two runs with the same seed are
bit-identical on every platform.  Streams split by hashing the parent
key with a label, which keeps concurrent consumers independent of
scheduling order.  Every rational a draw can return is read from one
table built at import, beside a table of small-int value ids, one per
distinct value; distinct_triples drops repeats by those ids instead of
hashing Fractions, and the count of distinct triples that bounds it is
the number of ids cubed.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
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
    the seed it equals modulo 2**64."""
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return seed


class RandomStream:
    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        self._counter = 0

    def split(self, label: str) -> "RandomStream":
        """An independent child stream; deterministic in (seed, label)."""
        material = f"{self.seed}:{label}".encode()
        child = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
        return RandomStream(child)

    def next_u64(self) -> int:
        """The SplitMix64 finalizer of seed + counter * GAMMA, counter
        counting this stream's draws from 1."""
        self._counter += 1
        x = (self.seed + self._counter * GAMMA) & MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
        return x ^ (x >> 31)

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo bias is irrelevant here)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def next_fraction(self) -> Fraction:
        """Fraction(next_int(-MAX_NUM, MAX_NUM), next_int(1, MAX_DEN)),
        read from FRACTIONS."""
        row = FRACTIONS[self.next_u64() % len(FRACTIONS)]
        return row[self.next_u64() % MAX_DEN]

    def next_triple(self, nonzero: bool = False
                    ) -> tuple[Fraction, Fraction, Fraction]:
        """A rational (a, b, c); with nonzero=True, never the identity."""
        while True:
            triple = tuple(self.next_fraction() for _ in range(3))
            if not nonzero or any(triple):
                return triple

    def distinct_triples(self, count: int, nonzero: bool = False) -> list:
        """The first count distinct triples that next_triple(nonzero)
        would draw, in order, with the same draws: a triple is keyed by
        its three value ids (VALUE_IDS) as one int, 0 for the identity."""
        # A count above the number of distinct triples would draw forever.
        available = DISTINCT_TRIPLES - nonzero  # less the identity (0, 0, 0)
        if not 0 <= count <= available:
            raise ValueError(f"count {count} is outside [0, {available}]")
        rows = len(FRACTIONS)
        out: list = []
        seen = set()
        while len(out) < count:
            key = 0
            triple = []
            for _ in range(3):
                i = self.next_u64() % rows
                j = self.next_u64() % MAX_DEN
                key = key * DISTINCT_VALUES + VALUE_IDS[i][j]
                triple.append(FRACTIONS[i][j])
            if nonzero and not key:
                continue
            # One hash per draw: the set grows only if the key is new.
            seen.add(key)
            if len(seen) > len(out):
                out.append(tuple(triple))
        return out
