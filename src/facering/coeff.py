"""Exact coefficient fields: the rationals and prime fields GF(p).

Every coefficient in the package is a :class:`FieldElement`.  Rational values
are stored as ``fractions.Fraction`` (always in lowest terms with positive
denominator); prime-field values are residues in ``[0, p)``.  There is no
floating point and no tolerance anywhere: equality of elements is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldMismatch, InputError


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

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def zero(self) -> "FieldElement":
        return self.from_integer(0)

    def one(self) -> "FieldElement":
        return self.from_integer(1)

    def from_integer(self, n: int) -> "FieldElement":
        if self.p is None:
            return FieldElement(self, Fraction(n))
        return FieldElement(self, n % self.p)

    def from_fraction(self, q: Fraction) -> "FieldElement":
        if self.p is None:
            return FieldElement(self, q)
        den = q.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(
                f"denominator {q.denominator} is not invertible mod {self.p}")
        return FieldElement(self, q.numerator * pow(den, -1, self.p) % self.p)

    def parse_coefficient(self, text: str) -> "FieldElement":
        """Parse ``3`` or ``3/2`` into a field element."""
        try:
            q = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad coefficient {text!r}") from None
        return self.from_fraction(q)

    def __str__(self) -> str:
        return "rational" if self.p is None else f"gf:{self.p}"


@dataclass(frozen=True, slots=True)
class FieldElement:
    """Immutable element of a :class:`FieldSpec`; safe to share freely."""

    spec: FieldSpec
    value: Fraction | int

    def _check(self, other: "FieldElement") -> None:
        if self.spec != other.spec:
            raise FieldMismatch(f"mixed fields {self.spec} and {other.spec}")

    def __bool__(self) -> bool:
        return self.value != 0

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_one(self) -> bool:
        return self.value == 1

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        v = self.value + other.value
        if self.spec.p is not None:
            v %= self.spec.p
        return FieldElement(self.spec, v)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        v = self.value - other.value
        if self.spec.p is not None:
            v %= self.spec.p
        return FieldElement(self.spec, v)

    def __neg__(self) -> "FieldElement":
        v = -self.value
        if self.spec.p is not None:
            v %= self.spec.p
        return FieldElement(self.spec, v)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        v = self.value * other.value
        if self.spec.p is not None:
            v %= self.spec.p
        return FieldElement(self.spec, v)

    def scale_int(self, n: int) -> "FieldElement":
        v = self.value * n
        if self.spec.p is not None:
            v %= self.spec.p
        return FieldElement(self.spec, v)

    def convert(self, spec: FieldSpec) -> "FieldElement":
        """Canonical image of this element in another field.

        Only rational -> anything and identity conversions are meaningful;
        residues cannot be moved between distinct prime fields.
        """
        if spec == self.spec:
            return self
        if self.spec.is_rational:
            return spec.from_fraction(self.value)  # type: ignore[arg-type]
        raise FieldMismatch(f"cannot convert {self.spec} element to {spec}")

    def __str__(self) -> str:
        return str(self.value)


def invert(x: FieldElement) -> FieldElement:
    """Multiplicative inverse; raises ``ZeroDivisionError`` on zero."""
    if x.is_zero:
        raise ZeroDivisionError("division by zero in coefficient field")
    if x.spec.p is None:
        return FieldElement(x.spec, 1 / x.value)
    return FieldElement(x.spec, pow(x.value, -1, x.spec.p))


def is_unit_integer(spec: FieldSpec, n: int) -> bool:
    """Is the image of the positive integer ``n`` invertible in the field?"""
    if n < 1:
        raise InputError("n must be a positive integer")
    if spec.p is None:
        return True
    return n % spec.p != 0
