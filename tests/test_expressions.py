import random

import pytest

from facering import RingElement, RingLexicon, format_element, parse_element, straighten
from facering.errors import ParseError, UnknownFace

from conftest import GF5, RATIONAL


def lex(c, field=RATIONAL, discrete=False, letter="x"):
    return RingLexicon(c, field, discrete, letter)


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


def test_parse_unknown_face(double_edge):
    with pytest.raises(UnknownFace):
        parse_element("x[q]", lex(double_edge))


def test_letter_must_match_ring(double_edge):
    with pytest.raises(ParseError):
        parse_element("y[v]", lex(double_edge, letter="x"))
    parse_element("y[v]", lex(double_edge, discrete=True, letter="y"))


def test_coefficients_and_signs(double_edge):
    got = parse_element("3/2*x[v]^2*x[beta] - x[alpha] + 2", lex(double_edge))
    expected = (straighten(double_edge, [("v", 2), ("beta", 1)], RATIONAL,
                           RATIONAL.parse_coefficient("3/2"))
                + straighten(double_edge, [("alpha", 1)], RATIONAL, -1)
                + RingElement.one(double_edge, RATIONAL).scale(2))
    assert got == expected


def test_empty_brackets_are_one(double_edge):
    assert parse_element("x[]", lex(double_edge)) \
        == RingElement.one(double_edge, RATIONAL)


def test_leading_minus(double_edge):
    got = parse_element("-x[beta]^2", lex(double_edge))
    assert got == straighten(double_edge, [("beta", 2)], RATIONAL, -1)


def test_format_golden(double_edge):
    f = parse_element("x[v]*x[w]", lex(double_edge))
    assert format_element(f) == "x[alpha] + x[beta]"
    assert format_element(RingElement.zero(double_edge, RATIONAL)) == "0"
    assert format_element(RingElement.one(double_edge, RATIONAL)) == "1"


def _random_element(c, field, rng, discrete=False):
    total = RingElement.zero(c, field, discrete)
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
                        text, lex(c, field, discrete, letter))
                    assert back == f, text
