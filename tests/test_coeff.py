from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from facering.coeff import FieldSpec, inverse, is_unit_integer, normal
from facering.errors import InputError

Q = FieldSpec.rational()
F2 = FieldSpec.gf(2)
F5 = FieldSpec.gf(5)


def test_from_integer_examples():
    assert normal(3, Q.p) == 3 and type(normal(3, Q.p)) is int
    assert normal(Fraction(6, 2), Q.p) == 3
    assert type(normal(Fraction(6, 2), Q.p)) is int
    assert normal(Fraction(3, 2), Q.p) == Fraction(3, 2)
    assert normal(3, F2.p) == 1
    assert normal(-1, F5.p) == 4


def test_fraction_into_prime_field():
    assert normal(Fraction(3, 2), F5.p) == 3 * pow(2, -1, 5) % 5
    assert normal(Fraction(-1, 3), F5.p) == 3
    assert normal(Fraction(10, 5), F5.p) == 2
    with pytest.raises(ZeroDivisionError):
        normal(Fraction(1, 2), F2.p)
    with pytest.raises(ZeroDivisionError):
        normal(Fraction(1, 10), F5.p)


def test_invert_examples():
    assert inverse(Fraction(2, 3), Q.p) == Fraction(3, 2)
    assert inverse(2, Q.p) == Fraction(1, 2)
    assert inverse(Fraction(1, 2), Q.p) == 2
    assert type(inverse(Fraction(1, 2), Q.p)) is int
    assert inverse(-1, Q.p) == -1
    assert inverse(3, F5.p) == 2
    with pytest.raises(ZeroDivisionError):
        inverse(0, Q.p)
    with pytest.raises(ZeroDivisionError):
        inverse(0, F2.p)


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


rationals = st.fractions(min_value=-100, max_value=100,
                         max_denominator=100).map(lambda q: normal(q, None))
residues5 = st.integers(min_value=0, max_value=4)
residues2 = st.integers(min_value=0, max_value=1)


@pytest.mark.parametrize("elements", [(Q, rationals), (F5, residues5),
                                      (F2, residues2)])
def test_field_axioms(elements):
    field, elements = elements
    p = field.p

    def add(a, b):
        return normal(a + b, p)

    def mul(a, b):
        return normal(a * b, p)

    @given(elements, elements, elements)
    def check(a, b, c):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, normal(-a, p)) == 0
        if a:
            assert mul(a, inverse(a, p)) == 1
        for x in (a, add(a, b), mul(a, b), normal(-a, p)):
            assert normal(x, p) == x
            assert type(x) is int or (p is None and x.denominator != 1)

    check()


@given(st.fractions(min_value=-50, max_value=50, max_denominator=60),
       st.fractions(min_value=-50, max_value=50, max_denominator=60))
def test_rational_arithmetic_exact(q1, q2):
    a, b = q1.numerator, q1.denominator
    c, d = q2.numerator, q2.denominator
    total = normal(normal(q1, None) + normal(q2, None), None)
    assert total * b * d == a * d + c * b


def test_coefficient_parsing():
    assert Q.parse_coefficient("3/2") == Fraction(3, 2)
    assert Q.parse_coefficient("6/2") == 3
    assert type(Q.parse_coefficient("6/2")) is int
    assert F5.parse_coefficient("3/2") == (3 * pow(2, -1, 5)) % 5
    with pytest.raises(ZeroDivisionError):
        F2.parse_coefficient("1/2")
    with pytest.raises(InputError):
        Q.parse_coefficient("x")
    with pytest.raises(InputError):
        Q.parse_coefficient("1/0")
