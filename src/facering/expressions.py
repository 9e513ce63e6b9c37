"""Parser and printer for the ring-element expression grammar.

    element := ['-'] term (('+'|'-') term)*
    term    := coeff | [coeff '*'] factor ('*' factor)*
    factor  := ('x'|'y'|'z') '[' face-id ']' ['^' nat]
    coeff   := integer | integer '/' integer

``x[]`` is the empty face, i.e. the monomial 1.  Raw products are legal
input and are normalized onto the standard-monomial basis.  Printing uses
the canonical (degree, shape, support) term order and round-trips through
the parser.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import FieldSpec
from .complexes import BooleanComplex
from .errors import ParseError
from .face_ring import RingElement, straighten


@dataclass(frozen=True)
class RingLexicon:
    """Which complex, field, presentation, and generator letter an expression uses."""

    complex: BooleanComplex
    field: FieldSpec
    discrete: bool = False
    letter: str = "x"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    @property
    def column(self) -> int:
        return self.pos + 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def error(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        return ParseError(message, 1, self.column, expected)

    def integer(self) -> int:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not self.peek().isdigit():
            raise self.error("malformed integer", ("digit",))
        while self.peek().isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])

    def natural(self) -> int:
        if not self.peek().isdigit():
            raise self.error("malformed exponent", ("digit",))
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])


def parse_element(text: str, lexicon: RingLexicon) -> RingElement:
    sc = _Scanner(text)
    sc.skip_ws()
    if sc.peek() == "":
        raise sc.error("empty expression", ("term",))
    negate_first = False
    if sc.peek() == "-":
        sc.take()
        negate_first = True
    total = _parse_term(sc, lexicon, negate_first)
    sc.skip_ws()
    while sc.peek() in ("+", "-"):
        op = sc.take()
        total = total + _parse_term(sc, lexicon, op == "-")
        sc.skip_ws()
    if sc.peek() != "":
        raise sc.error(f"unexpected {sc.peek()!r}", ("'+'", "'-'", "end of input"))
    return total


def _parse_term(sc: _Scanner, lexicon: RingLexicon, negate: bool) -> RingElement:
    sc.skip_ws()
    field = lexicon.field
    coeff = 1
    if sc.peek().isdigit() or sc.peek() == "-":
        coeff = sc.integer()
        if sc.peek() == "/":
            sc.take()
            coeff = field.parse_coefficient(f"{coeff}/{sc.integer()}")
        sc.skip_ws()
        if sc.peek() != "*":
            # bare constant term
            if negate:
                coeff = -coeff
            return RingElement(lexicon.complex, field, lexicon.discrete,
                               {(): coeff})
        sc.take()
    raw = [_parse_factor(sc, lexicon)]
    sc.skip_ws()
    while sc.peek() == "*":
        sc.take()
        raw.append(_parse_factor(sc, lexicon))
        sc.skip_ws()
    if negate:
        coeff = -coeff
    return straighten(lexicon.complex, raw, field, coeff, lexicon.discrete)


def _parse_factor(sc: _Scanner, lexicon: RingLexicon) -> tuple[str, int]:
    sc.skip_ws()
    ch = sc.peek()
    if ch not in ("x", "y", "z"):
        raise sc.error(f"expected a generator, found {ch!r}",
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
        exp = sc.natural()
    return face_id, exp


def format_element(element: RingElement, letter: str | None = None) -> str:
    """Canonical text form; parses back to the same element in the same ring."""
    if letter is None:
        letter = "y" if element.discrete else "x"
    if element.is_zero:
        return "0"
    complex = element.complex
    chunks: list[str] = []
    for mono, coeff in element.sorted_terms():
        negative = coeff < 0
        mag = -coeff if negative else coeff
        factors = [f"{letter}[{complex.ids[f]}]" + (f"^{e}" if e > 1 else "")
                   for f, e in mono]
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if not chunks:
            chunks.append(("-" if negative else "") + body)
        else:
            chunks.append(("- " if negative else "+ ") + body)
    return " ".join(chunks)
