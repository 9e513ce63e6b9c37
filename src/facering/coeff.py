"""Exact coefficient fields: the rationals and prime fields GF(p).

Every coefficient in the package is a raw scalar in the canonical form that
:func:`normal` produces: over GF(p) an ``int`` residue in ``[0, p)``; over Q
an ``int`` while the value is integral and a ``fractions.Fraction`` (lowest
terms, positive denominator) otherwise.  Straightening coefficients are
nonnegative integers, so over Q almost every coefficient is an ``int``.
Canonical scalars compare and hash exactly, and ``str`` prints them as
``3`` or ``-3/2``.  There is no floating point and no tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError

Raw = int | Fraction


def normal(x: Raw, p: int | None) -> Raw:
    """Canonical form of ``x`` in Q (``p is None``) or GF(p).

    A ``Fraction`` maps into GF(p) through the inverse of its denominator;
    ``ZeroDivisionError`` when p divides that denominator.
    """
    if type(x) is int:
        return x if p is None else x % p
    den = x.denominator
    if p is None:
        return x.numerator if den == 1 else x
    if den % p == 0:
        raise ZeroDivisionError(f"denominator {den} is not invertible mod {p}")
    return x.numerator * pow(den, -1, p) % p


def inverse(x: Raw, p: int | None) -> Raw:
    """Canonical multiplicative inverse of a canonical scalar;
    ``ZeroDivisionError`` on zero."""
    if not x:
        raise ZeroDivisionError("division by zero in coefficient field")
    if p is not None:
        return pow(x, -1, p)
    if x == 1 or x == -1:
        return x
    return normal(1 / Fraction(x), None)


def _is_prime(p: int) -> bool:
    # Deterministic trial division; moduli here are desk-scale.
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The rationals (``p is None``) or the prime field GF(p)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise InputError(f"modulus {self.p} is not prime")

    @classmethod
    def rational(cls) -> "FieldSpec":
        return cls(None)

    @classmethod
    def gf(cls, p: int) -> "FieldSpec":
        return cls(p)

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Parse the CLI field selector: ``rational`` or ``gf:<p>``."""
        text = text.strip()
        if text == "rational":
            return cls.rational()
        if text.startswith("gf:"):
            try:
                p = int(text[3:])
            except ValueError:
                raise InputError(f"bad field selector {text!r}") from None
            return cls.gf(p)
        raise InputError(f"bad field selector {text!r}")

    def parse_coefficient(self, text: str) -> Raw:
        """Parse ``3`` or ``3/2`` into a canonical scalar of this field."""
        try:
            q = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad coefficient {text!r}") from None
        return normal(q, self.p)

    def __str__(self) -> str:
        return "rational" if self.p is None else f"gf:{self.p}"


def is_unit_integer(spec: FieldSpec, n: int) -> bool:
    """Is the image of the positive integer ``n`` invertible in the field?"""
    if n < 1:
        raise InputError("n must be a positive integer")
    if spec.p is None:
        return True
    return n % spec.p != 0
