"""Exact rational scalars and their wire format.

The scalar type is the standard-library Fraction, which already keeps the
canonical form this project relies on: positive denominator, gcd-reduced,
and construction from a zero denominator rejected.  These helpers pin the
textual format "p/q" (just "p" when q = 1, as str(Fraction) writes it)
used by every file this package reads or writes, parse only that format,
and refuse floats so no inexact value can sneak into a certificate.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def to_fraction(value) -> Fraction:
    """Convert an exact value to Fraction; floats and bools are rejected.

    A Fraction is returned as it is, not copied: Fraction is immutable,
    and Fraction(x) on a Fraction goes through the numbers.Rational check
    on every call.  An int becomes a Fraction and a string is parsed as
    "p/q" or "p".
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}")
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" with arbitrary-precision integers: after the
    strip, exactly ASCII -?[0-9]+(/[0-9]+)?, what format_rational
    writes; anything else and a zero denominator raise ValueError."""
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not a rational p/q with q > 0: {text!r}")
    return Fraction(int(match[1]), int(match[2] or 1))


def format_rational(value: Scalar) -> str:
    """Render as "p/q", or "p" when the denominator is 1; floats and
    bools are refused."""
    return str(to_fraction(value))
