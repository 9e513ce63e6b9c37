import itertools

import pytest
from hypothesis import given, strategies as st

from facering.errors import InputError, TooManyParts
from facering.partitions import (
    Partition,
    count_partitions,
    dominates,
    sh,
    sh_inverse,
)


def partitions_of(d):
    """Every partition of d, over an explicit stack of (parts so far,
    remainder, largest part allowed)."""
    out, stack = [], [((), d, d)]
    while stack:
        parts, rest, top = stack.pop()
        if rest == 0:
            out.append(Partition(parts))
            continue
        stack.extend((parts + (k,), rest - k, k)
                     for k in range(1, min(rest, top) + 1))
    return out


def test_constructor_normalizes():
    assert Partition((3, 2, 1, 0, 0)) == Partition((3, 2, 1))
    assert Partition(()) == ()
    with pytest.raises(InputError):
        Partition((1, 2))
    with pytest.raises(InputError):
        Partition((2, -1))


def test_add_examples():
    assert Partition((3, 2, 1)) + Partition((5, 5, 5, 3)) == Partition((8, 7, 6, 3))
    lam = Partition((4, 1))
    assert lam + Partition() == lam
    assert Partition((1,)) + Partition((1,)) == Partition((2,))


def test_str_form():
    assert str(Partition((5, 3))) == "(5,3)"
    assert str(Partition()) == "()"


def test_sh_examples():
    assert sh((2, 3)) == Partition((5, 3))
    for n in range(1, 6):
        for j in range(1, n + 1):
            e_j = tuple(1 if i == j - 1 else 0 for i in range(n))
            assert sh(e_j) == Partition((1,) * j)
    assert sh((0, 0, 0)) == Partition()


def test_sh_inverse_examples():
    assert sh_inverse(Partition((5, 3)), 2) == (2, 3)
    assert sh_inverse(Partition((1, 1, 1)), 3) == (0, 0, 1)
    assert sh_inverse(Partition((6, 4, 1)), 3) == (2, 3, 1)
    with pytest.raises(TooManyParts):
        sh_inverse(Partition((2, 1, 1)), 2)


def test_sh_roundtrip_exhaustive():
    # mutually inverse monoid maps for all vectors with entries <= 6, n <= 5
    for n in range(1, 6):
        for vec in itertools.product(range(7), repeat=n):
            lam = sh(vec)
            assert sh_inverse(lam, n) == vec
    # and additivity on a sample
    for a in itertools.product(range(4), repeat=3):
        for b in itertools.product(range(3), repeat=3):
            assert sh(tuple(x + y for x, y in zip(a, b))) == sh(a) + sh(b)


def test_compare_dominance_examples():
    def both(lam, mu):
        return dominates(Partition(lam), Partition(mu)), \
            dominates(Partition(mu), Partition(lam))

    assert both((3,), (2, 1)) == (True, False)  # strictly above
    assert both((3, 1), (2, 2)) == (True, False)  # strictly above
    assert both((3, 3), (4, 1, 1)) == (False, False)  # incomparable
    assert both((2, 1), (2, 1)) == (True, True)  # equal
    assert both((2, 2), (3, 1)) == (False, True)  # strictly below
    # different weights: neither dominates
    assert Partition((2,)).weight != Partition((1,)).weight
    assert both((2,), (1,)) == (False, False)


small_partitions = st.integers(min_value=0, max_value=9).flatmap(
    lambda d: st.sampled_from(sorted(partitions_of(d)) or [Partition()]))


@given(small_partitions, small_partitions, small_partitions)
def test_dominance_compatible_with_addition(lam, mu, nu):
    if dominates(lam, mu):
        assert dominates(lam + nu, mu + nu)


def test_dominance_partial_order_exhaustive():
    for d in range(13):
        parts = partitions_of(d)
        assert len(set(parts)) == count_partitions(d, d)
        rel = {(a, b): dominates(a, b) for a in parts for b in parts}
        for a in parts:
            assert rel[(a, a)]
            for b in parts:
                if rel[(a, b)] and rel[(b, a)]:
                    assert a == b
        for a in parts:
            for b in parts:
                if not rel[(a, b)]:
                    continue
                for c in parts:
                    if rel[(b, c)]:
                        assert rel[(a, c)]


def test_partition_counts():
    assert [count_partitions(d, d) for d in [*range(8), 100]] == [
        1, 1, 2, 3, 5, 7, 11, 15, 190569292]


def test_partition_counts_with_at_most_n_parts():
    for d in range(13):
        parts = set(partitions_of(d))
        for n in range(d + 2):
            assert count_partitions(d, n) == sum(len(p) <= n for p in parts)
