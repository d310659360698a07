"""Exact rational scalars and their wire format.

The scalar type is the standard-library Fraction, which already keeps the
canonical form this project relies on: positive denominator, gcd-reduced,
and construction from a zero denominator rejected.  These helpers pin the
textual format "p/q" (just "p" when q = 1) used by every file this
package reads or writes, and refuse floats so no inexact value can sneak
into a certificate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


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
    """Parse "p/q" or "p" with arbitrary-precision integers; malformed
    text and a zero denominator raise ValueError."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Scalar) -> str:
    """Render as "p/q", or "p" when the denominator is 1; floats and
    bools are refused."""
    value = to_fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
