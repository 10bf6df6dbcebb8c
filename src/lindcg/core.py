"""Domain types and canonical orderings for query-grouped rating/score data.

Grades are non-negative integers; scores are finite floats produced by
whatever model is under evaluation.
``QueryGroup`` validates its invariants at construction; the readers, which
have already checked every value, build theirs without a second check.  It
is a plain slotted class, compared by value; it is neither frozen nor
hashable, and nothing in the package assigns to a group once built.
``RankedView`` is a NamedTuple built by ``rank_view`` from an already
validated group, and does not check the values again.  Every operation is
a pure function, so values can be shared freely across concurrent workers.
"""

from __future__ import annotations

import math
from operator import sub
from typing import Iterable, NamedTuple

from .errors import EmptyGroupError, InvalidGradeError, InvalidScoreError, _shortened


# isinstance(value, int) as a one-argument function, for map().
_is_int = int.__instancecheck__


class QueryGroup:
    """One query's items as parallel grade and score columns in input order."""

    __slots__ = ("query_id", "grades", "scores")

    def __init__(self, query_id: str, grades: Iterable[int], scores: Iterable[float]) -> None:
        self.query_id = query_id
        self.grades = grades = tuple(grades)
        self.scores = scores = tuple(scores)
        if len(grades) != len(scores):
            raise ValueError(
                f"{len(grades)} grades vs {len(scores)} scores for query {query_id!r}"
            )
        if not grades:
            raise EmptyGroupError(f"query {query_id!r} has no items")
        # Whole-column passes; the offending value is looked up only on failure.
        if not all(map(_is_int, grades)) or min(grades) < 0:
            bad = next(g for g in grades if not _is_int(g) or g < 0)
            raise InvalidGradeError(f"grade must be a non-negative integer, got {_shortened(bad)}")
        if not all(map(math.isfinite, scores)):
            bad = next(s for s in scores if not math.isfinite(s))
            raise InvalidScoreError(f"score must be finite, got {bad!r}")

    @classmethod
    def _from_checked(cls, query_id: str, grades: Iterable[int],
                      scores: Iterable[float]) -> QueryGroup:
        """A group of non-empty, equally long columns whose every value a reader has checked.

        The columns become tuples, and ``__init__``'s second check of each
        grade and score is skipped.
        """
        group = object.__new__(cls)
        group.query_id = query_id
        group.grades = tuple(grades)
        group.scores = tuple(scores)
        return group

    def __len__(self) -> int:
        return len(self.grades)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.query_id, self.grades, self.scores) == (
            other.query_id, other.grades, other.scores)

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(query_id={self.query_id!r},"
                f" grades={self.grades!r}, scores={self.scores!r})")


class RankedView(NamedTuple):
    """One query ranked once, with the per-level totals every metric and check reads.

    ``grades`` lists the grades best-scored position first.  ``levels`` are
    the distinct grades of the query in increasing order, with 0 always
    included, so the view's size follows the number of distinct grades, not
    their values.  ``counts[j]`` is the number of items of grade ``levels[j]``
    and ``discount_mass[j]`` the sum of their linear discounts |S| - i at
    1-based rank i.  Every threshold k of the run
    ``levels[j] <= k < levels[j + 1]`` binarizes the query alike, so
    ``threshold_losses[j]`` is the unweighted bipartite loss at each of them:
    the number of pairs with grades a <= k < b whose grade-b item scores
    strictly below the grade-a item.  Thresholds at or above the top grade
    have no item above them and a loss of 0, so they have no entry.  The
    group has already validated every value, so the view does not validate
    again.  As a tuple its length is its six fields; ``len(view.grades)`` is
    the number of items.
    """

    grades: tuple[int, ...]
    levels: tuple[int, ...]
    counts: tuple[int, ...]
    discount_mass: tuple[int, ...]
    has_score_ties: bool
    threshold_losses: tuple[int, ...]

    @property
    def run_widths(self) -> tuple[int, ...]:
        """The number of thresholds in each run: ``levels[j + 1] - levels[j]``."""
        return tuple(map(sub, self.levels[1:], self.levels))


def _score_order(group: QueryGroup) -> list[int]:
    """Item indices by descending score; the sort is stable, so tied items keep input order."""
    scores = group.scores
    return sorted(range(len(scores)), key=scores.__getitem__, reverse=True)


def rank_view(group: QueryGroup) -> RankedView:
    """Rank the group with one stable sort and sweep the ranking once.

    The sort orders items by descending score and keeps input order among
    equal scores, so the same group always yields the same ranking.  The
    sweep keeps a histogram over the levels already passed.  An item enters
    it only once an item of a lower score arrives, so each item of an
    equal-score run is scored against the histogram of strictly higher
    scores and tied pairs are never misranked.  An item of level J is
    misranked in every run j < J against each strictly higher-scored item
    of level <= j, which is the cumulative histogram at j.  The cost is
    O(|S| log |S| + |S| * d) for d distinct grades, whatever their values.
    """
    order = _score_order(group)
    grades = tuple(map(group.grades.__getitem__, order))
    levels = tuple(sorted({0, *grades}))
    level_of = {g: j for j, g in enumerate(levels)}
    d = len(levels)
    counts = [0] * (d + 1)  # slot d counts the absent item before the first one
    mass = [0] * d
    losses = [0] * (d - 1)
    ties = False
    tied: list[int] = []  # earlier levels of the current equal-score run, not yet counted
    last = d  # level of the previous item, not yet counted
    score = None
    discount = len(grades)
    for j, item_score in zip(map(level_of.__getitem__, grades),
                             map(group.scores.__getitem__, order)):
        if item_score == score:
            ties = True
            tied.append(last)
        else:
            counts[last] += 1
            if tied:
                for b in tied:
                    counts[b] += 1
                tied = []
            score = item_score
        if j:
            below = 0
            for i in range(j):
                below += counts[i]
                losses[i] += below
        last = j
        discount -= 1
        mass[j] += discount
    counts[last] += 1
    for b in tied:
        counts[b] += 1
    return RankedView(grades, levels, tuple(counts[:d]), tuple(mass), ties, tuple(losses))
