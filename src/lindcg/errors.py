"""Exception types shared across the package."""

from __future__ import annotations


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
        detail = "; ".join(f"line {n}: {reason}" for n, reason in self.errors)
        more = self.rejected_count - len(self.errors)
        if more:
            detail += f"; and {more} more"
        super().__init__(f"{self.rejected_count} malformed line(s): {detail}")


class ScoreCountMismatchError(LindcgError):
    """A companion score file does not supply exactly one score per data row."""


class EmptyFileError(LindcgError):
    """No records remain after discarding comments and blank lines."""
