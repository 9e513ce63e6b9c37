"""Exception hierarchy shared by the whole package.

Two broad categories matter to the CLI: ``InputError`` (malformed or
inconsistent user-supplied data, exit code 2) and ``DomainError`` (the inputs
are well formed but the requested computation is mathematically impossible,
exit code 1).  Verdicts such as "not Cohen-Macaulay" are results, not errors.
"""

from __future__ import annotations


class FaceRingError(Exception):
    pass


class InputError(FaceRingError):
    pass


class DomainError(FaceRingError):
    pass


class InvalidComplex(InputError):
    pass


class NotRanked(InvalidComplex):
    """Some saturated chains from the empty face to a face have unequal lengths."""


class LowerIntervalNotBoolean(InvalidComplex):
    """A lower interval of the augmented face poset is not a boolean lattice."""


class EmptyInput(InvalidComplex):
    pass


class DuplicateFaceId(InvalidComplex):
    pass


class UnknownFace(InputError):
    def __init__(self, face_id: str):
        super().__init__(f"unknown face {face_id!r}")
        self.face_id = face_id


class InvalidBalancing(InputError):
    pass


class NotAnAutomorphism(InputError):
    """A face map is not a bijection that preserves the poset structure."""


class OrderNotCompatible(InputError):
    """A processing order does not refine containment of label sets."""


class ParseError(InputError):
    def __init__(self, message: str, line: int, column: int,
                 expected: tuple[str, ...] = ()):
        detail = f"{message} at line {line}, column {column}"
        if expected:
            detail += " (expected " + " | ".join(expected) + ")"
        super().__init__(detail)
        self.line = line
        self.column = column
        self.expected = expected


class FieldMismatch(InputError):
    pass


class ComplexMismatch(InputError):
    pass


class TooManyParts(InputError):
    pass


class NoCommonUpperBound(DomainError):
    pass


class BasisInvalid(DomainError):
    """A proposed cell basis fails to span or be independent where needed."""


class OrderNotInvertible(DomainError):
    """The group order vanishes in the coefficient field, so averaging fails."""


class GroupTooLarge(DomainError):
    pass
