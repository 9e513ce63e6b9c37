"""Partitions with at most n parts: monoid addition, the correspondence with
exponent vectors, and dominance order.

A partition is stored as a weakly decreasing tuple of positive integers;
trailing zeros are never stored, and the empty tuple is the monoid identity.
Partitions inherit tuple hashing and lexicographic comparison, so they can be
used directly as dictionary keys; dominance is the separate, partial
comparison below.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InputError, TooManyParts


class Partition(tuple):
    """Weakly decreasing tuple of positive parts.  ``+`` adds part-by-part."""

    def __new__(cls, parts: Iterable[int] = ()):
        parts = tuple(int(a) for a in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(a <= 0 for a in parts):
            raise InputError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise InputError(f"parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self)

    def __add__(self, other):  # type: ignore[override]
        if not isinstance(other, tuple):
            return NotImplemented
        n = max(len(self), len(other))
        a = tuple(self) + (0,) * (n - len(self))
        b = tuple(other) + (0,) * (n - len(other))
        return Partition(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self) + ")"

    def __repr__(self) -> str:
        return f"Partition{str(self)}"


def sh(vec: Sequence[int]) -> Partition:
    """Monoid isomorphism from exponent vectors to partitions.

    The j-th basis vector maps to the column (1^j); additively this sends
    ``a`` to the partition whose i-th part is ``sum(a[i-1:])``.
    """
    if any(a < 0 for a in vec):
        raise InputError("exponent vectors must be nonnegative")
    parts = []
    tail = sum(vec)
    for a in vec:
        if tail == 0:
            break
        parts.append(tail)
        tail -= a
    return Partition(parts)


def sh_inverse(lam: Partition, n: int) -> tuple[int, ...]:
    """Inverse of :func:`sh`: successive part differences, padded to length n."""
    if len(lam) > n:
        raise TooManyParts(f"{lam} has more than {n} parts")
    padded = tuple(lam) + (0,) * (n - len(lam))
    return tuple(padded[j] - padded[j + 1] for j in range(n - 1)) + (padded[n - 1],)


def dominates(lam: Partition, mu: Partition) -> bool:
    """Weak dominance: equal weight and prefix sums of lam bound those of mu."""
    if lam.weight != mu.weight:
        return False
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def strictly_dominates(lam: Partition, mu: Partition) -> bool:
    return lam != mu and dominates(lam, mu)


def count_partitions(d: int, n: int) -> int:
    """Number of partitions of d into at most n parts.  By conjugation these
    are the partitions of d with parts at most n, counted by the coin-change
    recurrence over the part sizes 1..n in O(n * d) steps."""
    ways = [1] + [0] * d
    for part in range(1, min(n, d) + 1):
        for total in range(part, d + 1):
            ways[total] += ways[total - part]
    return ways[d]
