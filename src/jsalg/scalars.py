"""Exact scalars: rationals plus the quadratic extension with an adjoined i, i^2 = -1.

Everything in the library computes over Q via fractions.Fraction.  The one
exception is the Cheng-Kac style double (jordan.build_jck), whose product
table carries an explicit i; its structure constants live in GaussRational.
"""

from __future__ import annotations

from fractions import Fraction


def rat_str(q: Fraction) -> str:
    """Canonical rendering: "3", "-3/2"."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rat(s: str) -> Fraction:
    return Fraction(s.strip())


class GaussRational:
    """a + b*i with rational a, b.  Supports mixed arithmetic with Fraction/int."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def i() -> "GaussRational":
        return GaussRational(0, 1)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero GaussRational")
        nrm = other.re * other.re + other.im * other.im
        return GaussRational(
            (self.re * other.re + self.im * other.im) / nrm,
            (self.im * other.re - self.re * other.im) / nrm,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __repr__(self):
        if self.im == 0:
            return rat_str(self.re)
        if self.re == 0:
            return f"{rat_str(self.im)}*i"
        return f"{rat_str(self.re)}+{rat_str(self.im)}*i"


def _coerce(x):
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRational(x)
    return None


I = GaussRational.i()
