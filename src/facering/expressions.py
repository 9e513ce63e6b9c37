"""Parser and printer for the ring-element expression grammar.

    element := term (('+'|'-') term)*
    term    := '-'* (coeff | [coeff '*'] factor ('*' factor)*)
    factor  := ('x'|'y'|'z') '[' face-id ']' ['^' nat]
    coeff   := nat ['/' nat]

Each ``-`` before a term flips its sign (``x[w] + -x[v]``, ``- -3``); a
coefficient is unsigned and a zero denominator is a parse error.  ``x[]`` is
the empty face, i.e. the monomial 1.  Raw products are legal input and are
normalized onto the standard-monomial basis.  Printing uses the canonical
(degree, shape, support) term order and round-trips through the parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeff import FieldSpec, normal
from .complexes import BooleanComplex
from .errors import InputError, ParseError
from .face_ring import RingElement, signed_sum, straighten


@dataclass(frozen=True)
class RingLexicon:
    """Which complex, field, and generator letter an expression uses; ``y``
    names the discrete presentation."""

    complex: BooleanComplex
    field: FieldSpec
    letter: str = "x"

    @property
    def discrete(self) -> bool:
        return self.letter == "y"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def error(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        line_start = self.text.rfind("\n", 0, self.pos) + 1
        return ParseError(message, self.text.count("\n", 0, self.pos) + 1,
                          self.pos - line_start + 1, expected)

    def natural(self, what: str) -> int:
        """The digits at the cursor; ``what`` names them in the error."""
        if not self.peek().isdigit():
            raise self.error(f"malformed {what}", ("digit",))
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])


def parse_element(text: str, lexicon: RingLexicon) -> RingElement:
    sc = _Scanner(text)
    sc.skip_ws()
    if sc.peek() == "":
        raise sc.error("empty expression", ("term",))
    total = _parse_term(sc, lexicon, 1)
    sc.skip_ws()
    while sc.peek() in ("+", "-"):
        total = total + _parse_term(sc, lexicon, -1 if sc.take() == "-" else 1)
        sc.skip_ws()
    if sc.peek() != "":
        raise sc.error(f"unexpected {sc.peek()!r}", ("'+'", "'-'", "end of input"))
    return total


def _parse_term(sc: _Scanner, lexicon: RingLexicon, sign: int) -> RingElement:
    """One term times ``sign``; each leading ``-`` flips it."""
    sc.skip_ws()
    while sc.peek() == "-":
        sc.take()
        sign = -sign
        sc.skip_ws()
    field = lexicon.field
    coeff = 1
    if sc.peek().isdigit():
        coeff = sc.natural("coefficient")
        if sc.peek() == "/":
            sc.take()
            at = sc.pos
            den = sc.natural("denominator")
            if not den:
                sc.pos = at
                raise sc.error("zero denominator")
            try:
                coeff = normal(Fraction(coeff, den), field.p)
            except ZeroDivisionError as exc:
                raise InputError(f"coefficient '{coeff}/{den}' has no value "
                                 f"in {field}: {exc}") from None
        sc.skip_ws()
        if sc.peek() != "*":  # a bare constant
            return RingElement(lexicon.complex, field, lexicon.discrete,
                               {(): sign * coeff})
        sc.take()
    raw = [_parse_factor(sc, lexicon)]
    sc.skip_ws()
    while sc.peek() == "*":
        sc.take()
        raw.append(_parse_factor(sc, lexicon))
        sc.skip_ws()
    return straighten(lexicon.complex, raw, field, sign * coeff, lexicon.discrete)


def _parse_factor(sc: _Scanner, lexicon: RingLexicon) -> tuple[str, int]:
    sc.skip_ws()
    ch = sc.peek()
    if ch not in ("x", "y", "z"):
        found = repr(ch) if ch else "end of input"
        raise sc.error(f"expected a generator, found {found}",
                       ("'x'", "'y'", "'z'", "coefficient"))
    if ch != lexicon.letter:
        raise sc.error(f"generator letter {ch!r} does not match this ring "
                       f"(expected {lexicon.letter!r})", (f"'{lexicon.letter}'",))
    sc.take()
    if sc.peek() != "[":
        raise sc.error("expected '['", ("'['",))
    sc.take()
    start = sc.pos
    while sc.peek() not in ("]", ""):
        sc.pos += 1
    if sc.peek() != "]":
        raise sc.error("unterminated face id", ("']'",))
    face_id = sc.text[start:sc.pos].strip()
    sc.take()
    exp = 1
    if sc.peek() == "^":
        sc.take()
        exp = sc.natural("exponent")
    return face_id, exp


def format_element(element: RingElement, letter: str | None = None) -> str:
    """Canonical text form; parses back to the same element in the same ring."""
    if letter is None:
        letter = "y" if element.discrete else "x"
    ids = element.complex.ids
    return signed_sum((coeff, [f"{letter}[{ids[f]}]" + (f"^{e}" if e > 1 else "")
                               for f, e in mono])
                      for mono, coeff in element.sorted_terms())
