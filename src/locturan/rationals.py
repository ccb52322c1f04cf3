"""Exact rational parsing and rendering.

Every numeric quantity that feeds a verdict is an int or a Fraction; floats
never enter a verification path.  Rationals are rendered "p/q", with the
denominator suppressed when it is 1.  as_fraction converts to a Fraction
but returns a Fraction as it is, so building and rendering a report copies
no Fraction.
"""

from __future__ import annotations

from fractions import Fraction


def as_fraction(x: Fraction | int) -> Fraction:
    """x as a Fraction; Fraction(x) would copy a Fraction, through the
    numbers.Rational check, so a Fraction is returned as it is."""
    return x if type(x) is Fraction else Fraction(x)


def format_rational(x: Fraction | int) -> str:
    x = as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))
