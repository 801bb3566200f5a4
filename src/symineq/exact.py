"""Exact rational scalars and validated positive input vectors.

Every quantity on a verification path is an arbitrary-precision rational
(`fractions.Fraction`), which keeps canonical form -- positive denominator,
gcd(|numerator|, denominator) = 1 -- after every arithmetic operation.
Floats are confined to the search module and never reach a verdict.

Scalar text grammar (bit-exact):

    INT  ::= [+-]? [0-9]+
    DEC  ::= INT "." [0-9]+
    FRAC ::= INT "/" [0-9]+

Decimals parse to exact rationals ("0.1" is 1/10, never a binary float).
Canonical rendering is "p/q" for denominator q > 1, else "p".

Integers convert to and from text only up to the interpreter's digit limit
(`sys.get_int_max_str_digits()`, 4300 by default in CPython). Past it a
literal is refused with ScalarParseError and a value with RenderError; the
limit itself is left as it is.

Every refusal of an argument in the package is an InputError, a ValueError;
the three errors of this module are its subclasses.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

ExactScalar = Fraction

_SCALAR_RE = re.compile(r"(?P<num>[+-]?[0-9]+)(?:\.(?P<dec>[0-9]+)|/(?P<den>[0-9]+))?\Z")


class InputError(ValueError):
    """An argument outside a function's domain; the one refusal type of the package."""


class ScalarParseError(InputError):
    """Text does not match the scalar grammar, or has a zero denominator."""


class VectorError(InputError):
    """Input vector is empty or has a nonpositive entry."""


class RenderError(InputError):
    """An exact value has more digits than the interpreter converts to text."""


def parse_scalar(text: str) -> Fraction:
    """Parse an integer, decimal, or fraction literal into an exact rational.

    >>> parse_scalar("1.5")
    Fraction(3, 2)
    >>> parse_scalar("2/6")
    Fraction(1, 3)
    """
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ScalarParseError(f"malformed scalar {text!r}")
    num, dec, den = m.group("num", "dec", "den")
    try:
        p = int(num)
        q = None if den is None else int(den)
        decimals = None if dec is None else int(dec)
    except ValueError as exc:  # a digit run past the interpreter's int/str limit
        raise ScalarParseError(
            f"scalar literal of {len(text)} characters has a run of more than "
            f"{sys.get_int_max_str_digits()} digits") from exc
    if q is not None:
        if q == 0:
            raise ScalarParseError(f"zero denominator in {text!r}")
        return Fraction(p, q)
    if decimals is not None:
        sign = -1 if num[0] == "-" else 1
        return Fraction(sign * (abs(p) * 10 ** len(dec) + decimals), 10 ** len(dec))
    return Fraction(p)


def render_scalar(x: Fraction) -> str:
    """Canonical rendering: "p/q" when q > 1, else "p".

    Raises RenderError when a part has more digits than the interpreter
    converts to text (`sys.get_int_max_str_digits`).
    """
    try:
        if x.denominator > 1:
            return f"{x.numerator}/{x.denominator}"
        return str(x.numerator)
    except ValueError as exc:
        bits = max(x.numerator.bit_length(), x.denominator.bit_length())
        raise RenderError(
            f"exact value of about {int(bits * math.log10(2)) + 1} digits is past "
            f"the {sys.get_int_max_str_digits()}-digit limit for rendering") from exc


@dataclass(frozen=True)
class PositiveVector:
    """An ordered multiset of strictly positive exact rationals (repeats kept)."""

    entries: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def total(self) -> Fraction:
        return sum(self.entries, Fraction(0))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __repr__(self) -> str:
        return f"PositiveVector({', '.join(render_scalar(a) for a in self.entries)})"


def make_vector(values: Iterable[Union[Fraction, int]]) -> PositiveVector:
    """Validate and freeze a vector of positive exact scalars.

    Order and multiplicity are preserved. Floats are rejected outright:
    silently converting one would smuggle a binary rounding step onto the
    exact path.
    """
    entries = []
    for i, value in enumerate(values):
        if isinstance(value, float):
            raise TypeError(f"float at index {i}; exact inputs must be Fraction or int")
        x = Fraction(value)
        if x <= 0:
            raise VectorError(f"nonpositive entry {render_scalar(x)} at index {i}")
        entries.append(x)
    if not entries:
        raise VectorError("empty vector")
    return PositiveVector(tuple(entries))
