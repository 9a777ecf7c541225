"""Exact rational scalars and their text form.

Every numeric quantity in this package is an exact rational; floats are never
constructed. The scalar type is gmpy2.mpq when the optional gmpy2 extra is
installed and fractions.Fraction otherwise. Both canonicalize to lowest terms
with a positive denominator and compare/hash identically, so all results are
backend-independent. The LP kernel (linprog._phase1) pivots on Python ints,
so Rat is used only at its edges: the input rows, the returned vectors and
the checks that verify them.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as Rat
except ImportError:  # gmpy2 is an optional extra
    Rat = Fraction

ZERO = Rat(0)
ONE = Rat(1)


def rat(value, den=None) -> "Rat":
    """Build an exact rational from ints, a 'p/q' string, or another rational."""
    if den is not None:
        return Rat(value, den)
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass ints, rationals, or 'p/q' strings")
    if isinstance(value, str):
        return Rat(value)
    return Rat(value)


def rat_str(value) -> str:
    """Canonical 'p/q' text form (plain 'p' when the denominator is 1)."""
    q = Rat(value)
    num, den = int(q.numerator), int(q.denominator)
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
