"""Exact rational parsing and rendering.

Every numeric quantity that feeds a verdict is an int or a Fraction; floats
never enter a verification path.  Rationals are rendered "p/q", with the
denominator suppressed when it is 1, which is how str renders an int or a
Fraction.
"""

from __future__ import annotations

from fractions import Fraction


def format_rational(x: Fraction | int) -> str:
    """x as "p" or "p/q"; a bool renders as the int it equals."""
    return str(int(x)) if type(x) is bool else str(x)


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))
