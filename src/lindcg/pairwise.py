"""Weighted pairwise misranking loss over query groups.

A pair of items with grades a < b is misranked when the higher-graded
item scores strictly below the lower-graded one; each such pair costs the
grade gap (b - a).  Score ties never count: the indicator is strict, so
tied pairs contribute zero rather than half credit.

The normalizer Z is the raw number of cross-grade pairs,
sum over a < b of |S_a| * |S_b|, deliberately without the (b - a)
weights.  The normalized loss can therefore exceed 1; its true ceiling is
(L - 1).  This asymmetry is kept on purpose rather than "fixed".

Two counters are provided: a naive double loop over all item pairs, kept
permanently as the test oracle, and the histogram sweep of
core.rank_view, which produces identical integers in
O(|S|*d + |S| log |S|) for the d distinct grades of a query, whatever
the alphabet size L.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .core import QueryGroup, RankedSequence, RankedView, rank_view
from .errors import ThresholdOutOfRangeError


@dataclass(frozen=True, slots=True)
class PairwiseLossValue:
    """Unnormalized and normalized loss plus the pair-count normalizer Z.

    ``degenerate`` marks groups where every item shares one grade, so
    Z = 0 and the normalized loss is reported as 0.0.
    """

    unnormalized: int
    normalizer_z: int
    normalized: float
    degenerate: bool


@dataclass(frozen=True, slots=True)
class ThresholdLossVector:
    """Unweighted bipartite losses, one per binarization threshold k in {0..L-2}.

    The entries sum to the unnormalized weighted loss of the original group.
    """

    per_threshold: tuple[int, ...]

    def total(self) -> int:
        return sum(self.per_threshold)


def _as_loss_value(unnormalized: int, counts: Sequence[int]) -> PairwiseLossValue:
    total = sum(counts)
    z = (total * total - sum(c * c for c in counts)) // 2
    return PairwiseLossValue(
        unnormalized=unnormalized,
        normalizer_z=z,
        normalized=unnormalized / z if z else 0.0,
        degenerate=z == 0,
    )


def pairwise_loss_naive(group: QueryGroup) -> PairwiseLossValue:
    """Count misranked pairs by direct enumeration of all item pairs.

    Quadratic in |S|; retained as the oracle the fast counter is checked
    against.
    """
    pairs = list(zip(group.grades, group.scores))
    loss = 0
    for (grade_a, score_a), (grade_b, score_b) in itertools.combinations(pairs, 2):
        if grade_a < grade_b:
            if score_b < score_a:
                loss += grade_b - grade_a
        elif grade_b < grade_a:
            if score_a < score_b:
                loss += grade_a - grade_b
    return _as_loss_value(loss, group.grade_counts())


def loss_from_view(view: RankedView) -> PairwiseLossValue:
    """The weighted loss of a ranked view: the sum of its threshold losses.

    A pair with grade gap (b - a) is misranked at exactly (b - a)
    thresholds, so the unweighted per-threshold counts add up to the
    weighted loss.  Each run's loss holds for every threshold in the run,
    so it counts once per unit of the run's width.
    """
    loss = sum(map(mul, view.run_widths, view.threshold_losses))
    return _as_loss_value(loss, view.counts)


def pairwise_loss_fast(group: QueryGroup) -> PairwiseLossValue:
    """Count misranked pairs with the histogram sweep of rank_view.

    Equal-score items are swept as one batch, so ties never count.
    Output is identical to pairwise_loss_naive on every input.
    """
    return loss_from_view(rank_view(group))


def binarize(group: QueryGroup, k: int) -> QueryGroup:
    """Collapse the group to binary grades at threshold k: grade 1 iff grade > k.

    Items and scores are untouched; the resulting alphabet is {0, 1}.
    """
    if not 0 <= k <= group.num_grades - 2:
        raise ThresholdOutOfRangeError(
            f"threshold {k} outside {{0..{group.num_grades - 2}}}"
        )
    grades = tuple(1 if g > k else 0 for g in group.grades)
    return QueryGroup(group.query_id, grades, group.scores, 2)


def binarize_sequence(seq: RankedSequence, k: int) -> RankedSequence:
    """Collapse an already-ranked grade sequence to binary at threshold k."""
    return RankedSequence(tuple(1 if g > k else 0 for g in seq.grades))


def threshold_decomposition(group: QueryGroup) -> ThresholdLossVector:
    """Split the weighted loss into L-1 unweighted bipartite losses.

    Entry k is the loss of the group binarized at threshold k; a pair with
    grade gap (b - a) is misranked at exactly (b - a) thresholds, so the
    entries sum to the unnormalized weighted loss.  Every threshold of a run
    ``a <= k < b`` between consecutive grades present (0 always included)
    binarizes the group alike, so each run is binarized once; thresholds at
    or above the top grade have no item above them and a loss of 0.
    """
    levels = sorted({0, *group.grades})
    entries: list[int] = []
    for low, high in zip(levels, levels[1:]):
        entries += [pairwise_loss_fast(binarize(group, low)).unnormalized] * (high - low)
    entries += [0] * (group.num_grades - 1 - len(entries))
    return ThresholdLossVector(per_threshold=tuple(entries))
