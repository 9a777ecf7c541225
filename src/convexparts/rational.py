"""Exact rational scalars and their text form.

Every numeric quantity in this package is an exact rational; floats are never
constructed. The scalar type Rat is fractions.Fraction, kept in lowest terms
with a positive denominator. `linprog` reads each input coefficient's
numerator and denominator once, then solves and re-checks every system on
integer rows scaled by the lcm of the denominators; its only Rat values are
the coordinates of the point or Farkas vector it returns.
"""

from __future__ import annotations

from fractions import Fraction

Rat = Fraction

ZERO = Rat(0)
ONE = Rat(1)


def rat(value) -> "Rat":
    """Build an exact rational from ints, a 'p/q' string, or another rational."""
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass ints, rationals, or 'p/q' strings")
    return Rat(value)


def rat_str(value) -> str:
    """Canonical 'p/q' text form (plain 'p' when the denominator is 1)."""
    q = Rat(value)
    num, den = q.numerator, q.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def parse_rat(text: str) -> "Rat":
    """Parse the 'p/q' text form, rejecting anything non-integral."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        n, d = int(num), int(den)
        if d == 0:
            raise ValueError(f"zero denominator in rational {text!r}")
        return Rat(n, d)
    return Rat(int(s))
