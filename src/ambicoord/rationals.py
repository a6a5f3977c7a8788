"""Strict string form for exact rationals used in all JSON files.

`ratio` and `ratio_text` read and write the form as integer pairs, so a
prior of many weights loads and saves without a Fraction per weight;
`parse_rational` and `format_rational` are their Fraction forms.  `scaled`
puts exact values on their least common denominator, and `fraction` is the
one check that a value is exact: it makes an int a Fraction, keeps a
Fraction, and refuses anything else.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# "p" or "p/q" with integer p and positive integer q; no whitespace, no floats
_RATIONAL_RE = re.compile(r"-?(?:0|[1-9][0-9]*)(?:/[1-9][0-9]*)?\Z")


def ratio(text: str) -> tuple[int, int]:
    """Parse "p" or "p/q" into the pair (p, q), q = 1 for "p", not reduced;
    reject anything else."""
    if not isinstance(text, str) or _RATIONAL_RE.match(text) is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    return int(num), int(den) if den else 1


def ratio_text(num: int, den: int) -> str:
    """Canonical string for num/den, den > 0: "p" when integral, else "p/q",
    in lowest terms."""
    common = math.gcd(num, den)
    num, den = num // common, den // common
    return str(num) if den == 1 else f"{num}/{den}"


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction; reject anything else."""
    return Fraction(*ratio(text))


def format_rational(value: Fraction) -> str:
    """Canonical string for a Fraction: "p" when integral, else "p/q"."""
    value = Fraction(value)
    return ratio_text(value.numerator, value.denominator)


def fraction(value) -> Fraction:
    """The value as a Fraction: one that is already a Fraction is kept, an
    int is converted, and anything else (a float, a bool, a string) is
    refused with a TypeError that names it."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an int or a Fraction, got {value!r}")


def scaled(values) -> tuple[list[int], int]:
    """The values (ints or Fractions) times the lcm of their denominators,
    as a list, and that lcm."""
    denominators = [v.denominator for v in values]
    s = math.lcm(*denominators)
    return [v.numerator * (s // q) for v, q in zip(values, denominators)], s
