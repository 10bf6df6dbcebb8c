"""Domain types and canonical orderings for query-grouped rating/score data.

Grades are non-negative integers drawn from an alphabet {0, ..., L-1};
scores are finite floats produced by whatever model is under evaluation.
All types validate their invariants at construction and are immutable
afterwards, and every operation is a pure function, so values can be
shared freely across concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import EmptyGroupError, InvalidGradeError, InvalidScoreError


@dataclass(frozen=True, slots=True)
class RatedItem:
    """One rated instance: an integer relevance grade plus a model score."""

    grade: int
    score: float

    def __post_init__(self) -> None:
        if not isinstance(self.grade, int) or self.grade < 0:
            raise InvalidGradeError(f"grade must be a non-negative integer, got {self.grade!r}")
        if not math.isfinite(self.score):
            raise InvalidScoreError(f"score must be finite, got {self.score!r}")


@dataclass(frozen=True, slots=True)
class QueryGroup:
    """All rated items retrieved for one query, plus the grade-alphabet size L."""

    query_id: str
    items: tuple[RatedItem, ...]
    num_grades: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if not self.items:
            raise EmptyGroupError(f"query {self.query_id!r} has no items")
        if self.num_grades < 2:
            raise InvalidGradeError(
                f"num_grades must be at least 2, got {self.num_grades}"
            )
        for item in self.items:
            if item.grade >= self.num_grades:
                raise InvalidGradeError(
                    f"query {self.query_id!r}: grade {item.grade} outside "
                    f"alphabet {{0..{self.num_grades - 1}}}"
                )

    @classmethod
    def build(
        cls,
        query_id: str,
        grades: Sequence[int],
        scores: Sequence[float],
        num_grades: int | None = None,
    ) -> QueryGroup:
        """Assemble a group from parallel grade and score sequences.

        When ``num_grades`` is omitted the alphabet is inferred as
        max(grade) + 1, floored at 2 so all-zero groups stay valid.
        """
        if len(grades) != len(scores):
            raise ValueError(
                f"{len(grades)} grades vs {len(scores)} scores for query {query_id!r}"
            )
        if num_grades is None:
            num_grades = max(2, max(grades, default=0) + 1)
        items = tuple(RatedItem(g, float(s)) for g, s in zip(grades, scores))
        return cls(query_id, items, num_grades)

    def grade_counts(self) -> tuple[int, ...]:
        """Per-grade item counts, indexed by grade value."""
        counts = [0] * self.num_grades
        for item in self.items:
            counts[item.grade] += 1
        return tuple(counts)

    def has_score_ties(self) -> bool:
        """True when any two items share exactly the same score."""
        return len({item.score for item in self.items}) < len(self.items)

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True, slots=True)
class RankedSequence:
    """Grades read off a ranking, best-scored position first."""

    grades: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "grades", tuple(self.grades))
        if not self.grades:
            raise EmptyGroupError("ranked sequence has no items")
        for g in self.grades:
            if not isinstance(g, int) or g < 0:
                raise InvalidGradeError(f"grade must be a non-negative integer, got {g!r}")

    def grade_counts(self, num_grades: int | None = None) -> tuple[int, ...]:
        """Per-grade counts; the alphabet defaults to max(grade) + 1."""
        if num_grades is None:
            num_grades = max(self.grades) + 1
        counts = [0] * num_grades
        for g in self.grades:
            counts[g] += 1
        return tuple(counts)

    def __len__(self) -> int:
        return len(self.grades)


@dataclass(frozen=True, slots=True)
class RankedView:
    """One query ranked once, with the per-grade totals every metric and check reads.

    ``grades`` lists the grades best-scored position first.  ``counts[g]``
    is the number of items of grade g and ``discount_mass[g]`` the sum of
    their linear discounts |S| - i at 1-based rank i.  ``threshold_losses[k]``
    is the unweighted bipartite loss at threshold k: the number of pairs
    with grades a <= k < b whose grade-b item scores strictly below the
    grade-a item.  The group has already validated every value, so the view
    does not validate again.
    """

    grades: tuple[int, ...]
    counts: tuple[int, ...]
    discount_mass: tuple[int, ...]
    has_score_ties: bool
    threshold_losses: tuple[int, ...]

    @property
    def num_grades(self) -> int:
        return len(self.counts)

    def __len__(self) -> int:
        return len(self.grades)


_score = attrgetter("score")


def rank_view(group: QueryGroup) -> RankedView:
    """Rank the group with one stable sort and sweep the ranking once.

    The sort is the one rank_by_score makes.  The sweep keeps a histogram
    of the grades already passed; equal-score items form a batch that
    enters the histogram only after each of its items has been scored
    against it, so tied pairs are never misranked.  An item of grade g is
    misranked at every threshold k < g against each strictly higher-scored
    item of grade <= k, which is the cumulative histogram at k.
    """
    ranked = sorted(group.items, key=_score, reverse=True)
    counts = [0] * group.num_grades
    mass = [0] * group.num_grades
    losses = [0] * (group.num_grades - 1)
    ties = False
    batch: list[int] = []  # grades of the current equal-score run, not yet counted
    score = None
    discount = len(ranked)
    for item in ranked:
        if item.score == score:
            ties = True
        else:
            for g in batch:
                counts[g] += 1
            batch = []
            score = item.score
        g = item.grade
        below = 0
        for k in range(g):
            below += counts[k]
            losses[k] += below
        batch.append(g)
        discount -= 1
        mass[g] += discount
    for g in batch:
        counts[g] += 1
    return RankedView(
        grades=tuple(item.grade for item in ranked),
        counts=tuple(counts),
        discount_mass=tuple(mass),
        has_score_ties=ties,
        threshold_losses=tuple(losses),
    )


def rank_by_score(group: QueryGroup) -> RankedSequence:
    """Order the group's grades by descending model score.

    Equal scores keep their input order (stable tie-break), so repeated
    evaluation of the same group always yields the same sequence.
    """
    ranked = sorted(group.items, key=lambda item: item.score, reverse=True)
    return RankedSequence(tuple(item.grade for item in ranked))


def ideal_sequence(group: QueryGroup) -> RankedSequence:
    """Grades in non-increasing order: the arrangement maximizing linear DCG."""
    return RankedSequence(tuple(sorted((item.grade for item in group.items), reverse=True)))


def sequence_from_grades(grades: Iterable[int]) -> RankedSequence:
    """Wrap an already-ranked grade list as a RankedSequence."""
    return RankedSequence(tuple(grades))
