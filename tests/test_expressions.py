import random
from fractions import Fraction

import pytest
from hypothesis import given

from facering import RingElement, RingLexicon, format_element, parse_element, straighten
from facering.errors import InputError, ParseError, UnknownFace

from conftest import GF2, GF5, RATIONAL, sums, terms


def lex(c, field=RATIONAL, letter="x"):
    return RingLexicon(c, field, letter)


def test_parse_monomial(double_edge):
    got = parse_element("x[w]^2*x[beta]", lex(double_edge))
    assert got == straighten(double_edge, [("w", 2), ("beta", 1)], RATIONAL)


def test_parse_auto_straightens(double_edge):
    got = parse_element("x[v]*x[w]", lex(double_edge))
    assert got == straighten(double_edge, [("v", 1), ("w", 1)], RATIONAL)


def test_parse_error_position(double_edge):
    with pytest.raises(ParseError) as err:
        parse_element("x[v]+", lex(double_edge))
    assert err.value.column == 6
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_element("x[v", lex(double_edge))
    with pytest.raises(ParseError):
        parse_element("", lex(double_edge))
    with pytest.raises(ParseError):
        parse_element("x[v]^", lex(double_edge))


def test_parse_error_position_on_later_lines(double_edge):
    # the q sits on line 2 after two spaces; columns restart at each line
    with pytest.raises(ParseError) as err:
        parse_element("x[v] +\n  q", lex(double_edge))
    assert (err.value.line, err.value.column) == (2, 3)
    assert "at line 2, column 3" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_element("x[v] +\n", lex(double_edge))
    assert (err.value.line, err.value.column) == (2, 1)


@pytest.mark.parametrize("text, message", [
    ("2/-3*x[v]", "malformed denominator at line 1, column 3 (expected digit)"),
    ("x[v]*", "expected a generator, found end of input at line 1, column 6 "
              "(expected 'x' | 'y' | 'z' | coefficient)"),
    ("x[v]*-1", "expected a generator, found '-' at line 1, column 6 "
                "(expected 'x' | 'y' | 'z' | coefficient)"),
    ("2/0*x[v]", "zero denominator at line 1, column 3"),
    ("2/00*x[v]", "zero denominator at line 1, column 3"),
    ("x[v] - 1/0", "zero denominator at line 1, column 10"),
], ids=["signed denominator", "trailing star", "signed factor", "zero denominator",
        "two zero digits", "zero denominator in a later term"])
def test_parse_error_messages(double_edge, text, message):
    with pytest.raises(ParseError) as err:
        parse_element(text, lex(double_edge))
    assert str(err.value) == message


def test_parse_unknown_face(double_edge):
    with pytest.raises(UnknownFace):
        parse_element("x[q]", lex(double_edge))


def test_letter_must_match_ring(double_edge):
    with pytest.raises(ParseError):
        parse_element("y[v]", lex(double_edge, letter="x"))
    parse_element("y[v]", lex(double_edge, letter="y"))


def test_coefficients_and_signs(double_edge):
    got = parse_element("3/2*x[v]^2*x[beta] - x[alpha] + 2", lex(double_edge))
    expected = (straighten(double_edge, [("v", 2), ("beta", 1)], RATIONAL,
                           Fraction(3, 2))
                + straighten(double_edge, [("alpha", 1)], RATIONAL, -1)
                + RingElement.one(double_edge, RATIONAL).scale(2))
    assert got == expected


def test_fraction_coefficients(double_edge):
    def constant(text, field=RATIONAL):
        return parse_element(text, lex(double_edge, field)).terms[()]

    assert constant("3/2") == Fraction(3, 2)
    assert constant("6/2") == 3 and type(constant("6/2")) is int
    assert constant("3/2", GF5) == 3 * pow(2, -1, 5) % 5
    with pytest.raises(InputError) as err:
        parse_element("1/2*x[v]", lex(double_edge, GF2))
    assert str(err.value) == ("coefficient '1/2' has no value in gf:2: "
                              "denominator 2 is not invertible mod 2")
    with pytest.raises(ParseError):
        parse_element("x", lex(double_edge))


def test_empty_brackets_are_one(double_edge):
    assert parse_element("x[]", lex(double_edge)) \
        == RingElement.one(double_edge, RATIONAL)


def test_leading_minus(double_edge):
    got = parse_element("-x[beta]^2", lex(double_edge))
    assert got == straighten(double_edge, [("beta", 2)], RATIONAL, -1)


@pytest.mark.parametrize("text, same_as", [
    ("x[w] + -x[v]", "x[w] - x[v]"),
    ("x[w] - -2*x[v]", "x[w] + 2*x[v]"),
    ("x[v] - - x[w]", "x[v] + x[w]"),
    ("--3", "3"),
    ("- -x[v]", "x[v]"),
    ("---1/2*x[v]", "-1/2*x[v]"),
])
def test_each_minus_flips_the_term(double_edge, text, same_as):
    assert parse_element(text, lex(double_edge)) \
        == parse_element(same_as, lex(double_edge))


@pytest.mark.parametrize("field", [RATIONAL, GF5], ids=str)
@given(a=sums(False), b=terms())
def test_minus_is_negation(double_edge, field, a, b):
    def parse(text):
        return parse_element(text, lex(double_edge, field))

    assert parse(a + " - " + b) == parse(a) - parse(b)
    assert parse("-" + b) == -parse(b)


def test_format_golden(double_edge):
    f = parse_element("x[v]*x[w]", lex(double_edge))
    assert format_element(f) == "x[alpha] + x[beta]"
    assert format_element(RingElement(double_edge, RATIONAL, False, {})) == "0"
    assert format_element(RingElement.one(double_edge, RATIONAL)) == "1"


def _random_element(c, field, rng, discrete=False):
    total = RingElement(c, field, discrete, {})
    faces = list(range(1, len(c)))
    for _ in range(rng.randint(1, 5)):
        raw = [(rng.choice(faces), rng.randint(1, 3))
               for _ in range(rng.randint(1, 3))]
        coeff = rng.randint(-6, 6)
        total = total + straighten(c, raw, field, coeff, discrete)
    return total


def test_print_parse_roundtrip(double_edge, disk, triangle, disjoint_edges):
    rng = random.Random(7)
    for c in (double_edge, disk, triangle, disjoint_edges):
        for field in (RATIONAL, GF5):
            for discrete in (False, True):
                for _ in range(15):
                    f = _random_element(c, field, rng, discrete)
                    letter = "y" if discrete else "x"
                    text = format_element(f, letter)
                    back = parse_element(
                        text, lex(c, field, letter))
                    assert back == f, text
