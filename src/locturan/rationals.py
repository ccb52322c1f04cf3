"""Exact rational parsing and rendering.

Every numeric quantity that feeds a verdict is an int, a Fraction, or an
integer numerator over a positive integer denominator; floats never enter a
verification path.  Rationals are rendered "p/q" in lowest terms, with the
denominator suppressed when it is 1, which is how str renders an int or a
Fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_DECIMAL = re.compile(r"[+-]?[0-9]+")


def format_ratio(num: int, den: int) -> str:
    """num/den, for a positive den, as "p" or "p/q" in lowest terms; a bool
    numerator renders as the int it equals."""
    g = gcd(num, den)
    return f"{num // g}" if g == den else f"{num // g}/{den // g}"


def format_rational(x: Fraction | int) -> str:
    """x as "p" or "p/q"; a bool renders as the int it equals."""
    return format_ratio(x.numerator, x.denominator)


def parse_int(text: str) -> int:
    """A plain decimal integer: an optional sign, then ASCII digits only."""
    if _DECIMAL.fullmatch(text) is None:
        raise ValueError(f"expected a decimal integer, got {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q", each part a plain decimal integer."""
    num, slash, den = text.strip().partition("/")
    return Fraction(parse_int(num), parse_int(den) if slash else 1)
