"""Independent test oracles for the ranked-view path.

Every quantity here is computed again from plain grades and scores, the
slow and obvious way: a double loop over item pairs, every distinct
ranking of a grade multiset, explicit position swaps, one bipartite count
per threshold.  The module shares no code with the path it checks
(``core.rank_view`` and the ``metrics`` kernels, ``metrics.identity_sums``
and ``metrics.identity_status`` among them); from the rest of
the package it takes only the errors and the ``core`` data type
``QueryGroup``, and it returns plain integers and tuples, besides
``ExchangeSequence``, a plain slotted class that checks its swaps when
built.  A test that checks the view path against an oracle therefore
cannot pass because both share a mistake.

The sequence references take grade tuples read best-ranked first:
``rank_by_score`` gives the one a group's scores induce, and sorting the
grades in non-increasing order gives the ideal one.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

from .core import QueryGroup
from .errors import (
    EmptyGroupError,
    InvalidGradeError,
    NonBipartiteError,
    ThresholdOutOfRangeError,
    TooLargeError,
    _shortened,
)

# 8! = 40_320 rankings at most, exhaustive in well under a second.
ORACLE_SIZE_CAP = 8


def rank_by_score(group: QueryGroup) -> tuple[int, ...]:
    """The group's grades by descending score; equal scores keep input order."""
    scores = group.scores
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return tuple(group.grades[i] for i in order)


def has_score_ties(group: QueryGroup) -> bool:
    """True when any two items share exactly the same score."""
    return len(set(group.scores)) < len(group.scores)


def dcg_linear(grades: Iterable[int]) -> int:
    """Linear-discount DCG: sum of r_i * (|S| - i) over 1-based ranks i.

    Exact integer; the last position always contributes zero.
    """
    grades = tuple(grades)
    n = len(grades)
    return sum(g * (n - i) for i, g in enumerate(grades, start=1))


def dcg_classic(grades: Iterable[int]) -> float:
    """Classical DCG: sum of (2**r_i - 1) / log2(i + 1) over 1-based ranks i."""
    return sum((2**g - 1) / math.log2(i + 1) for i, g in enumerate(grades, start=1))


def pairwise_loss_naive(group: QueryGroup) -> tuple[int, int]:
    """The weighted loss and the cross-grade pair count Z, counted over every item pair.

    Quadratic in |S|.  A pair with grades a < b costs b - a when the
    grade-b item scores strictly below the grade-a item; tied pairs cost
    nothing.
    """
    loss = z = 0
    pairs = zip(group.grades, group.scores)
    for (grade_a, score_a), (grade_b, score_b) in itertools.combinations(pairs, 2):
        if grade_a < grade_b:
            z += 1
            if score_b < score_a:
                loss += grade_b - grade_a
        elif grade_b < grade_a:
            z += 1
            if score_a < score_b:
                loss += grade_a - grade_b
    return loss, z


def binarize(group: QueryGroup, k: int) -> QueryGroup:
    """Collapse the group to binary grades at threshold k: grade 1 iff grade > k.

    Items and scores are untouched.  A threshold must leave an item above
    it, so k ranges over 0 <= k < max(group.grades).
    """
    top = max(group.grades)
    if not 0 <= k < top:
        raise ThresholdOutOfRangeError(
            f"threshold {_shortened(k)} outside 0 <= k < {_shortened(top)}, the top grade")
    grades = tuple(1 if g > k else 0 for g in group.grades)
    return QueryGroup(group.query_id, grades, group.scores)


def threshold_run_losses(group: QueryGroup) -> tuple[tuple[int, int], ...]:
    """The threshold decomposition as (width, loss) runs, one per run of thresholds.

    Every threshold of a run ``a <= k < b`` between consecutive grades
    present (0 always included) binarizes the group alike, so each run is
    binarized once, and its entry is ``(b - a, loss)``.  The loss is that of
    the group binarized at threshold a: the number of (grade 1, grade 0)
    pairs whose grade-1 item scores strictly below the grade-0 item,
    counted for each grade-1 item by bisecting the sorted grade-0 scores.
    The widths sum to the top grade, and the sum of width * loss is the
    unnormalized weighted loss.  The size of the result follows the number
    of distinct grades, not their values.
    """
    levels = sorted({0, *group.grades})
    runs = []
    for low, high in zip(levels, levels[1:]):
        binary = binarize(group, low)
        below = sorted(s for g, s in zip(binary.grades, binary.scores) if not g)
        loss = sum(
            len(below) - bisect_right(below, s)
            for g, s in zip(binary.grades, binary.scores)
            if g
        )
        runs.append((high - low, loss))
    return tuple(runs)


def threshold_decomposition(group: QueryGroup) -> tuple[int, ...]:
    """Split the weighted loss into one unweighted bipartite loss per threshold.

    There is one entry for each threshold k below the group's top grade,
    the thresholds that leave an item above them.  Entry k is the loss of
    the group binarized at threshold k.  A pair with grade gap (b - a) is
    misranked at exactly (b - a) thresholds, so the entries sum to the
    unnormalized weighted loss.  This is ``threshold_run_losses`` with each
    run repeated once per threshold, so its length is the top grade.
    """
    return tuple(loss for width, loss in threshold_run_losses(group) for _ in range(width))


class ExchangeSequence:
    """The swaps turning the ideal bipartite sequence [1^m 0^n] into a target.

    ``pairs`` holds 1-based positions (i_r, j_r): i_r indexes the first m
    slots, j_r indexes within the last n slots, and both coordinates are
    strictly increasing across the sequence.  The positions are checked
    once, here; nothing assigns to a sequence after that.
    """

    __slots__ = ("pairs", "m", "n")

    def __init__(self, pairs: Iterable[tuple[int, int]], m: int, n: int) -> None:
        self.pairs = pairs = tuple(map(tuple, pairs))
        self.m = m
        self.n = n
        if len(pairs) > min(m, n):
            raise ValueError(f"{len(pairs)} exchanges exceed min(m={m}, n={n})")
        prev_i = prev_j = 0
        for i, j in pairs:
            if not (prev_i < i <= m and prev_j < j <= n):
                raise ValueError(
                    f"exchange positions ({i}, {j}) not strictly increasing "
                    f"within m={m}, n={n}"
                )
            prev_i, prev_j = i, j

    def apply(self) -> tuple[int, ...]:
        """Replay the swaps on the ideal sequence and return the resulting grades."""
        grades = [1] * self.m + [0] * self.n
        for i, j in self.pairs:
            a, b = i - 1, self.m + j - 1
            grades[a], grades[b] = grades[b], grades[a]
        return tuple(grades)


def build_exchange_sequence(observed: Iterable[int]) -> ExchangeSequence:
    """Derive the exchange sequence producing an observed bipartite ranking.

    ``observed`` lists 0/1 grades best-ranked first.  The misplaced zeros
    in the first m slots are paired, in increasing position order, with
    the misplaced ones in the last n slots; both lists always have the
    same length r <= min(m, n).
    """
    observed = tuple(observed)
    for g in observed:
        if g > 1:
            raise NonBipartiteError(f"grade {_shortened(g)} in a bipartite sequence")
    m = sum(observed)
    n = len(observed) - m
    zeros_in_top = tuple(pos for pos, g in enumerate(observed[:m], start=1) if g == 0)
    ones_in_bottom = tuple(pos for pos, g in enumerate(observed[m:], start=1) if g == 1)
    # Equal counts are forced: each misplaced zero displaces exactly one positive.
    assert len(zeros_in_top) == len(ones_in_bottom)
    return ExchangeSequence(tuple(zip(zeros_in_top, ones_in_bottom)), m, n)


def exchange_decrements(ex: ExchangeSequence) -> list[int]:
    """Per-exchange DCG decrement m + j_r - i_r; every entry is >= 1.

    The decrements sum to the DCG error of the sequence the exchanges
    produce.
    """
    return [ex.m + j - i for i, j in ex.pairs]


def brute_force_oracle(grades) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """Check the identity on every distinct ranking of a grade multiset.

    Each ranking is read as a tie-free one (earlier position means strictly
    higher score); its DCG error and weighted misranked-pair count are
    computed directly on it and must agree.  The rankings come lazily, each
    once and in descending order, as ``(ranking, permutations, dcg_error,
    loss)``.  ``permutations`` is the number of literal permutations of the
    multiset that give the ranking, the product of c! over the count c of
    each grade, so over all rankings they sum to n!.  The multiset is
    checked before this returns, so a bad one raises before any ranking.
    """
    grades = tuple(grades)
    if not grades:
        raise EmptyGroupError("empty grade multiset")
    for g in grades:
        if not isinstance(g, int) or g < 0:
            raise InvalidGradeError(f"grade must be a non-negative integer, got {_shortened(g)}")
    n = len(grades)
    if n > ORACLE_SIZE_CAP:
        raise TooLargeError(f"multiset of size {n} exceeds the cap of {ORACLE_SIZE_CAP}")
    return _checked_rankings(sorted(grades, reverse=True))


def _checked_rankings(perm: list[int]) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """``brute_force_oracle``'s tuples, from the multiset in non-increasing order."""
    n = len(perm)
    ideal = sum(g * (n - 1 - p) for p, g in enumerate(perm))
    # The c items of one grade have c! orders.
    permutations = math.prod(map(math.factorial, map(perm.count, set(perm))))
    while True:
        dcg = loss = 0
        for p in range(n):
            gp = perm[p]
            dcg += gp * (n - 1 - p)
            for q in range(p + 1, n):
                gap = perm[q] - gp
                if gap > 0:
                    loss += gap
        yield tuple(perm), permutations, ideal - dcg, loss
        # The next ranking down: the rightmost grade followed by a smaller one
        # swaps with the largest smaller grade after it, where the grades run
        # in non-decreasing order, and then those grades are reversed.
        i = n - 2
        while i >= 0 and perm[i] <= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = bisect_left(perm, perm[i], i + 1) - 1  # the last grade below perm[i]
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = reversed(perm[i + 1:])
