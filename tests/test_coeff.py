from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from facering.coeff import FieldSpec, invert, is_unit_integer
from facering.errors import FieldMismatch, InputError

Q = FieldSpec.rational()
F2 = FieldSpec.gf(2)
F5 = FieldSpec.gf(5)


def test_from_integer_examples():
    assert Q.from_integer(3).value == Fraction(3)
    assert F2.from_integer(3).value == 1
    assert F5.from_integer(-1).value == 4


def test_invert_examples():
    two_thirds = Q.from_fraction(Fraction(2, 3))
    assert invert(two_thirds).value == Fraction(3, 2)
    assert invert(F5.from_integer(3)).value == 2
    with pytest.raises(ZeroDivisionError):
        invert(Q.zero())
    with pytest.raises(ZeroDivisionError):
        invert(F2.zero())


def test_is_unit_integer_examples():
    assert not is_unit_integer(F2, 6)
    assert is_unit_integer(F5, 6)
    assert is_unit_integer(Q, 24)
    with pytest.raises(InputError):
        is_unit_integer(Q, 0)


def test_composite_modulus_rejected():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(InputError):
            FieldSpec.gf(bad)
    FieldSpec.gf(2)
    FieldSpec.gf(97)


def test_parse_selector():
    assert FieldSpec.parse("rational") == Q
    assert FieldSpec.parse("gf:5") == F5
    with pytest.raises(InputError):
        FieldSpec.parse("gf:x")
    with pytest.raises(InputError):
        FieldSpec.parse("float")


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(FieldMismatch):
        Q.one() + F5.one()


rationals = st.fractions(min_value=-100, max_value=100,
                         max_denominator=100).map(Q.from_fraction)
residues5 = st.integers(min_value=0, max_value=4).map(F5.from_integer)
residues2 = st.integers(min_value=0, max_value=1).map(F2.from_integer)


@pytest.mark.parametrize("elements", [rationals, residues5, residues2])
def test_field_axioms(elements):
    @given(elements, elements, elements)
    def check(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == a.spec.zero()
        if not a.is_zero:
            assert a * invert(a) == a.spec.one()

    check()


@given(st.fractions(min_value=-50, max_value=50, max_denominator=60),
       st.fractions(min_value=-50, max_value=50, max_denominator=60))
def test_rational_arithmetic_exact(q1, q2):
    a, b = q1.numerator, q1.denominator
    c, d = q2.numerator, q2.denominator
    total = Q.from_fraction(q1) + Q.from_fraction(q2)
    assert total.value * b * d == a * d + c * b


def test_coefficient_parsing():
    assert Q.parse_coefficient("3/2").value == Fraction(3, 2)
    assert F5.parse_coefficient("3/2").value == (3 * pow(2, -1, 5)) % 5
    with pytest.raises(ZeroDivisionError):
        F2.parse_coefficient("1/2")
    with pytest.raises(InputError):
        Q.parse_coefficient("x")
