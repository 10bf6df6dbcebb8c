"""Exception types shared across the package, and how their messages quote values.

A message quotes a cell or a number through ``_quoted`` or ``_shortened``,
so a long value makes it no longer than a short one.  A message about many
faults names the first through ``_listed`` and counts the rest.
"""

from __future__ import annotations

from typing import Sequence

_QUOTED_CHARS = 40  # the most of a cell or a number that a message writes
# Decimal digits per bit; an int of b bits has at least int(b * this) digits.
_LOG10_2 = 0.30102999566398114


def _quoted(cell: str) -> str:
    """The repr of a cell, or of its first ``_QUOTED_CHARS`` characters followed by "..."."""
    return f"{cell[:_QUOTED_CHARS]!r}..." if len(cell) > _QUOTED_CHARS else repr(cell)


def _shortened(value: object) -> str:
    """A number as a message writes it: whole, or its first ``_QUOTED_CHARS``
    characters followed by "...", without quotes.  Any other value is written
    as its repr.

    ``str`` refuses an int of more than 4,300 digits, so all but about 80 of a
    long number's digits are dropped, by floor division of its magnitude,
    before it is written.
    """
    if not isinstance(value, int):
        return repr(value)
    cut = max(0, int(abs(value).bit_length() * _LOG10_2) - 2 * _QUOTED_CHARS)
    text = "-" * (value < 0) + str(abs(value) // 10**cut)
    return f"{text[:_QUOTED_CHARS]}..." if cut or len(text) > _QUOTED_CHARS else text


def _listed(parts: Sequence[str], count: int) -> str:
    """``parts``, the first of ``count`` items, joined by "; " and followed by
    how many more there are."""
    more = count - len(parts)
    return "; ".join(parts) + (f"; and {more} more" if more else "")


class LindcgError(Exception):
    """Base class for every error raised by this package."""


class EmptyGroupError(LindcgError):
    """A query group or a grade multiset has no items."""


class InvalidScoreError(LindcgError):
    """A model score is NaN or infinite."""


class InvalidGradeError(LindcgError):
    """A relevance grade is not a non-negative integer."""


class GradeTooLargeError(LindcgError):
    """A grade exceeds the exponential-gain cap (2**grade must stay exact in a double)."""


class NonBipartiteError(LindcgError):
    """An operation requiring binary grades saw a grade above 1."""


class ThresholdOutOfRangeError(LindcgError):
    """A binarization threshold is negative or leaves no item above it."""


class TooLargeError(LindcgError):
    """An exhaustive enumeration was requested beyond its size cap."""


class ParseError(LindcgError):
    """One or more input lines violate the file grammar.

    ``errors`` holds ``(line_number, reason)`` pairs for the first rejected
    lines, the first 20 when the readers raise it, and ``rejected_count``
    counts every rejected line; ``accepted_count`` is the number of lines
    that parsed cleanly, so accepted + rejected always covers every
    non-comment, non-blank line of the input.  The message names each pair
    of ``errors`` and ends with how many more lines were rejected.
    """

    def __init__(self, errors: list[tuple[int, str]], accepted_count: int = 0,
                 rejected_count: int | None = None):
        self.errors = list(errors)
        self.accepted_count = accepted_count
        self.rejected_count = len(self.errors) if rejected_count is None else rejected_count
        detail = _listed([f"line {n}: {reason}" for n, reason in self.errors],
                         self.rejected_count)
        super().__init__(f"{self.rejected_count} malformed line(s): {detail}")


class ScoreCountMismatchError(LindcgError):
    """A companion score file does not supply exactly one score per data row."""


class EmptyFileError(LindcgError):
    """No records remain after discarding comments and blank lines."""
