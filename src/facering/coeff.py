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


_MODULUS_LIMIT = 1 << 64
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Miller-Rabin on the prime bases 2..37, which no composite below
    3.3 * 10^24 passes (Sorenson and Webster, 2015), so the verdict is exact
    for every ``p < _MODULUS_LIMIT``."""
    if p < 2:
        return False
    for a in _BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The rationals (``p is None``) or the prime field GF(p)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is None:
            return
        if self.p >= _MODULUS_LIMIT:
            raise InputError(f"modulus {self.p} is too large: moduli must be "
                             "primes below 2^64")
        if not _is_prime(self.p):
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

    def __str__(self) -> str:
        return "rational" if self.p is None else f"gf:{self.p}"

