"""Exact scalars: every structure constant and coefficient is a rational,
held as fractions.Fraction.  The rendering of rationals lives here so that
reports and polynomial text share one form.
"""

from __future__ import annotations

from fractions import Fraction


def rat_str(q: Fraction) -> str:
    """Canonical rendering: "3", "-3/2"."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"

