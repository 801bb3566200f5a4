"""Exact rational scalars and validated positive input vectors.

Every quantity on a verification path is an arbitrary-precision rational
(`fractions.Fraction`), which keeps canonical form -- positive denominator,
gcd(|numerator|, denominator) = 1 -- after every arithmetic operation.

Scalar text grammar (bit-exact):

    INT  ::= [+-]? [0-9]+
    DEC  ::= INT "." [0-9]+
    FRAC ::= INT "/" [0-9]+

The grammar is the only gate: text that matches it converts through
`Fraction(text)`, which also accepts forms the grammar refuses (underscores,
exponents, non-ASCII digits). Decimals parse to exact rationals ("0.1" is
1/10, never a binary float). Canonical rendering is `str(Fraction)`: "p/q"
for denominator q > 1, else "p".

Integers convert to and from text only up to the interpreter's digit limit
(`sys.get_int_max_str_digits()`, 4300 by default in CPython). Past it a
value is refused by `render_scalar`, and `parse_scalar` refuses a literal
with a digit run past it or a value that could not be rendered, so every
parsed value can be printed; the limit itself is left as it is.

A `PositiveVector` is the tuple of its entries, ints and Fractions that
`make_vector` checked to be positive. Every refusal of an argument in the
package is an InputError, a ValueError; its message says which rule was
broken.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterable, Union

_SCALAR_RE = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+|/[0-9]+)?\Z")


class InputError(ValueError):
    """An argument outside a function's domain; the one refusal type of the package."""


def parse_scalar(text: str) -> Fraction:
    """Parse an integer, decimal, or fraction literal into an exact rational.

    >>> parse_scalar("1.5")
    Fraction(3, 2)
    >>> parse_scalar("2/6")
    Fraction(1, 3)
    """
    if _SCALAR_RE.match(text) is None:
        raise InputError(f"malformed scalar {text!r}")
    try:
        value = Fraction(text)
    except ZeroDivisionError as exc:
        raise InputError(f"zero denominator in {text!r}") from exc
    except ValueError as exc:  # a digit run past the interpreter's int/str limit
        raise InputError(
            f"scalar literal of {len(text)} characters has a run of more than "
            f"{sys.get_int_max_str_digits()} digits") from exc
    # A decimal's two runs can join past the limit in its numerator; a value
    # has no more digits than its literal has characters, so only a literal
    # longer than the limit needs the check.
    if len(text) > sys.get_int_max_str_digits() > 0:
        try:
            render_scalar(value)
        except InputError as exc:
            raise InputError(f"scalar literal of {len(text)} characters: {exc}") from exc
    return value


def render_scalar(x: Fraction) -> str:
    """Canonical rendering: "p/q" when q > 1, else "p".

    Raises InputError when a part has more digits than the interpreter
    converts to text (`sys.get_int_max_str_digits`).
    """
    try:
        return str(x)
    except ValueError as exc:
        bits = max(x.numerator.bit_length(), x.denominator.bit_length())
        raise InputError(
            f"exact value of about {int(bits * math.log10(2)) + 1} digits is past "
            f"the {sys.get_int_max_str_digits()}-digit limit for rendering") from exc


def _shown(x: Fraction) -> str:
    """render_scalar(x), or, for a value past the digit limit, its digit count
    in render_scalar's words, in parentheses: a repr or a witnessed violation
    is never refused."""
    try:
        return render_scalar(x)
    except InputError as exc:
        return f"({exc})"


class PositiveVector(tuple):
    """An ordered multiset of strictly positive exact rationals (repeats kept):
    the tuple of its entries, as `make_vector` validated them."""

    __slots__ = ()

    def total(self) -> Fraction:
        return sum(self, Fraction(0))

    def __repr__(self) -> str:
        return f"PositiveVector({', '.join(map(_shown, self))})"


def make_vector(values: Iterable[Union[Fraction, int]]) -> PositiveVector:
    """Validate and freeze a vector of positive exact scalars.

    Order and multiplicity are preserved. Only ints and Fractions are
    admitted; any other value (a float, a Decimal, a string) raises
    TypeError. Converting a float would smuggle a binary rounding step onto
    the exact path, and text has its own gate, `parse_scalar`.
    """
    entries = []
    for i, value in enumerate(values):
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"{type(value).__name__} at index {i}; "
                            "exact inputs must be Fraction or int")
        x = Fraction(value)
        if x.numerator <= 0:  # the denominator is positive
            raise InputError(f"nonpositive entry {render_scalar(x)} at index {i}")
        entries.append(x)
    if not entries:
        raise InputError("empty vector")
    return PositiveVector(entries)
