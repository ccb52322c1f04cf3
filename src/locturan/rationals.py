"""Exact rational parsing and rendering.

Every numeric quantity that feeds a verdict is an int, a Fraction, or an
integer numerator over a positive integer denominator; floats never enter a
verification path.  Rationals are rendered "p/q" in lowest terms, with the
denominator suppressed when it is 1, which is how str renders an int or a
Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def format_ratio(num: int, den: int) -> str:
    """num/den, for a positive den, as "p" or "p/q" in lowest terms; a bool
    numerator renders as the int it equals."""
    g = gcd(num, den)
    return f"{num // g}" if g == den else f"{num // g}/{den // g}"


def format_rational(x: Fraction | int) -> str:
    """x as "p" or "p/q"; a bool renders as the int it equals."""
    return format_ratio(x.numerator, x.denominator)


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))
