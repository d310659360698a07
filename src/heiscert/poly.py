"""Sparse multivariate polynomials over exact rationals.

A polynomial lives in a ring context (an ordered tuple of variable names)
and is stored as a map from exponent tuples to nonzero int numerators
over one positive int denominator, reduced so that the denominator and
the numerators have gcd 1 (the zero polynomial is the empty map over 1),
the form of FLINT's rational polynomials (Hart, ICMS 2010).  The form is
canonical, so structural equality is semantic equality, and sums,
differences, scalings, products and powers run on ints, with one gcd
reduction per result and none when its denominator is 1; a product by
exactly 1, the rational or the constant polynomial, is the other factor
itself.  // is exact division, by a nonzero rational or, by long
division, by a polynomial that divides, and refuses any other divisor
(the fraction-free echelon pass needs no more).  Poly.terms is a Fraction
view of the coefficients, for text and evaluation.
Everything is immutable and exact; there is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Mapping, Union

from .rationals import parse_rational, to_fraction

# Exponents are bounded so that accidental runaway powers fail loudly
# instead of silently eating memory.  Only a product of two polynomials
# (powers go through it) and the parser make new exponents, so those are
# where the bound is checked.
MAX_EXPONENT = 2**31

Scalar = Union[int, Fraction]


class PolyRing:
    """An ordered set of variable names fixing the exponent layout."""

    def __init__(self, *names: str):
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.names = tuple(names)
        self._index = {name: i for i, name in enumerate(names)}

    def __repr__(self):
        return f"PolyRing({', '.join(self.names)})"

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def var(self, name: str) -> "Poly":
        """The polynomial consisting of the single variable `name`."""
        exps = [0] * len(self.names)
        exps[self._index[name]] = 1
        return _poly(self, {tuple(exps): 1}, 1)

    def vars(self, *names: str) -> tuple["Poly", ...]:
        return tuple(self.var(n) for n in names)

    def const(self, value: Scalar) -> "Poly":
        """The constant polynomial with the given rational value; floats
        and bools are refused."""
        if type(value) is not int:
            value = to_fraction(value)
        if not value:
            return _poly(self, {}, 1)
        return _poly(self, {(0,) * len(self.names): value.numerator},
                     value.denominator)

    def zero(self) -> "Poly":
        return _poly(self, {}, 1)

    def one(self) -> "Poly":
        return self.const(1)

    def parse(self, text: str) -> "Poly":
        """Parse the textual sum format emitted by Poly.__str__.

        Grammar: terms joined by top-level + or -, each term a product of
        '*'-separated factors; a factor is a rational literal "p/q"/"p" or
        a variable with an optional "^exp".
        """
        return _parse_poly(self, text)


class Poly:
    """Immutable sparse polynomial over the rationals in a fixed ring:
    int numerators over one int denominator, in the reduced form the
    module docstring describes, built through from_numerators or the
    ring's var, const and parse."""

    __slots__ = ("ring", "numerators", "denominator", "_hash")

    @staticmethod
    def from_numerators(ring: PolyRing, numerators: dict,
                        denominator: int) -> "Poly":
        """The polynomial numerators / denominator, for a map of int
        numerators (which it may keep) and an int denominator > 0:
        zero numerators are dropped and the gcd of the denominator and
        the numerators divided out."""
        if numerators:
            if 0 in numerators.values():
                numerators = {e: c for e, c in numerators.items() if c}
            if denominator != 1:
                g = gcd(denominator, *numerators.values())
                if g != 1:
                    denominator //= g
                    numerators = {e: c // g for e, c in numerators.items()}
        else:
            denominator = 1
        return _poly(ring, numerators, denominator)

    @property
    def terms(self) -> dict[tuple, Fraction]:
        """The nonzero coefficients as Fractions, in a new dict."""
        den = self.denominator
        return {e: Fraction(c, den) for e, c in self.numerators.items()}

    # -- ring plumbing ---------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError(
                    f"ring mismatch: {self.ring} vs {other.ring}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def _plus(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        left, right = self.denominator, other.denominator
        den = left if left == right else lcm(left, right)
        out = (dict(self.numerators) if den == left else
               {e: c * (den // left) for e, c in self.numerators.items()})
        get = out.get
        scale = sign * (den // right)
        for e, c in other.numerators.items():
            out[e] = get(e, 0) + c * scale
        return Poly.from_numerators(self.ring, out, den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.ring, {e: -c for e, c in self.numerators.items()},
                     self.denominator)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) in (int, Fraction):
            # Scaling by a rational: one product per term, no expansion;
            # by exactly 1, the polynomial itself.
            if other == 1:
                return self
            num = other.numerator
            scaled = ({e: c * num for e, c in self.numerators.items()}
                      if num else {})
            return Poly.from_numerators(self.ring, scaled,
                                        self.denominator * other.denominator)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # By the constant-one polynomial, the other factor itself.
        if other.is_one():
            return self
        if self.is_one():
            return other
        out: dict = {}
        get = out.get
        right = other.numerators.items()
        for e1, c1 in self.numerators.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        for e in out:
            if max(e, default=0) > MAX_EXPONENT:
                raise OverflowError(f"exponent out of range in {e}")
        return Poly.from_numerators(self.ring, out,
                                    self.denominator * other.denominator)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """The exact quotient self / other, for a nonzero rational or a
        Poly that divides self: ValueError if other does not divide,
        ZeroDivisionError if it is zero.  A Poly divisor is divided out
        by long division in lex order: each step takes the quotient term
        that cancels the remainder's leading term, and a leading term
        that other's does not divide proves other does not divide
        self."""
        if type(other) in (int, Fraction):
            return self * Fraction(1, other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        lead = max(other.numerators)
        quotient, remainder = self.ring.zero(), self
        while remainder:
            e = max(remainder.numerators)
            shift = tuple(map(sub, e, lead))
            if min(shift, default=0) < 0:
                raise ValueError(f"{other} does not divide {self}")
            c = Fraction(remainder.numerators[e] * other.denominator,
                         remainder.denominator * other.numerators[lead])
            term = _poly(self.ring, {shift: c.numerator}, c.denominator)
            quotient += term
            remainder -= term * other
        return quotient

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.ring.const(other)
        return ((self.ring is other.ring or self.ring == other.ring)
                and self.denominator == other.denominator
                and self.numerators == other.numerators)

    def __hash__(self):
        if self._hash is None:
            if self.total_degree() > 0:
                self._hash = hash((self.ring, frozenset(self.terms.items())))
            else:
                # A constant equals its value, so it hashes as that value.
                self._hash = hash(Fraction(sum(self.numerators.values()),
                                           self.denominator))
        return self._hash

    def __bool__(self):
        return bool(self.numerators)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.numerators

    def is_one(self) -> bool:
        """Whether self is the constant polynomial 1."""
        if len(self.numerators) != 1 or self.denominator != 1:
            return False
        (e, c), = self.numerators.items()
        return c == 1 and not any(e)

    def variables(self) -> tuple[str, ...]:
        """Names of the variables actually occurring."""
        used = [False] * len(self.ring.names)
        for e in self.numerators:
            for i, x in enumerate(e):
                if x:
                    used[i] = True
        return tuple(n for n, u in zip(self.ring.names, used) if u)

    def degree_in(self, name: str) -> int:
        """Highest exponent of `name`; -1 for the zero poly."""
        i = self.ring._index[name]
        return max((e[i] for e in self.numerators), default=-1)

    def total_degree(self) -> int:
        """Highest total degree of a term; -1 for the zero poly."""
        return max((sum(e) for e in self.numerators), default=-1)

    # -- evaluation and substitution --------------------------------------

    def eval(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at a rational point covering every occurring variable;
        a float or bool value raises TypeError."""
        missing = [n for n in self.variables() if n not in assignment]
        if missing:
            raise KeyError(f"assignment missing variables {missing}")
        values = {n: to_fraction(assignment[n]) for n in assignment}
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for name, exp in zip(self.ring.names, e):
                if exp:
                    term *= values[name] ** exp
            total += term
        return total

    def substitute(self, mapping: Mapping[str, Union["Poly", Scalar]],
                   ring: PolyRing) -> "Poly":
        """Map every occurring variable to a polynomial of `ring`."""
        missing = [n for n in self.variables() if n not in mapping]
        if missing:
            raise KeyError(f"substitution missing variables {missing}")
        images = {}
        for name, value in mapping.items():
            if isinstance(value, Poly):
                if value.ring != ring:
                    raise ValueError("substitution image in wrong ring")
                images[name] = value
            else:
                images[name] = ring.const(value)
        total = ring.zero()
        for e, c in self.terms.items():
            term = ring.const(c)
            for name, exp in zip(self.ring.names, e):
                if exp:
                    term = term * images[name] ** exp
            total = total + term
        return total

    # -- canonical text form ----------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        """Terms in graded-lexicographic order, highest first."""
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0]), item[0]),
                      reverse=True)

    def __str__(self):
        if not self.numerators:
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
            factors = []
            for name, exp in zip(self.ring.names, e):
                if exp == 1:
                    factors.append(name)
                elif exp > 1:
                    factors.append(f"{name}^{exp}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = body if sign == "+" else f"-{body}"
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Poly({self})"


def _parse_poly(ring: PolyRing, text: str) -> Poly:
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial string")
    pieces = []   # (exponents, numerator, denominator) per term
    for sign, chunk in _split_terms(text):
        num, den = sign, 1
        exps = [0] * len(ring.names)
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {chunk!r}")
            if factor[0].isdigit():
                value = parse_rational(factor)
                num *= value.numerator
                den *= value.denominator
                continue
            name, caret, exp_text = factor.partition("^")
            if name not in ring._index:
                raise ValueError(f"unknown variable {name!r} for {ring}")
            exps[ring._index[name]] += int(exp_text) if caret else 1
        if max(exps, default=0) > MAX_EXPONENT:
            raise OverflowError(f"exponent out of range in {chunk!r}")
        pieces.append((tuple(exps), num, den))
    den = lcm(*(d for _, _, d in pieces))
    numerators: dict = {}
    for e, num, d in pieces:
        numerators[e] = numerators.get(e, 0) + num * (den // d)
    return Poly.from_numerators(ring, numerators, den)


def _split_terms(text: str) -> Iterable[tuple[int, str]]:
    # Top-level +/- separators; '/' only appears inside rational literals.
    terms = []
    sign = 1
    current = []
    for ch in text:
        if ch in "+-":
            if current and any(not c.isspace() for c in current):
                terms.append((sign, "".join(current)))
                sign = 1
                current = []
            sign = -sign if ch == "-" else sign
        else:
            current.append(ch)
    if not current or all(c.isspace() for c in current):
        raise ValueError(f"dangling sign in {text!r}")
    terms.append((sign, "".join(current)))
    return terms


def _poly(ring: PolyRing, numerators: dict, denominator: int) -> Poly:
    """A Poly from numerators already in reduced form, unchecked."""
    p = object.__new__(Poly)
    p.ring = ring
    p.numerators = numerators
    p.denominator = denominator
    p._hash = None
    return p
