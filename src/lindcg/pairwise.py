"""Weighted pairwise misranking loss over query groups.

A pair of items with grades a < b is misranked when the higher-graded
item scores strictly below the lower-graded one; each such pair costs the
grade gap (b - a).  Score ties never count: the indicator is strict, so
tied pairs contribute zero rather than half credit.

The normalizer Z is the raw number of cross-grade pairs,
sum over a < b of |S_a| * |S_b|, deliberately without the (b - a)
weights.  The normalized loss can therefore exceed 1; its true ceiling is
the largest grade gap.  This asymmetry is kept on purpose rather than "fixed".

The loss is read off the per-threshold counts of the histogram sweep in
core.rank_view, in O(|S|*d + |S| log |S|) for the d distinct grades of a
query, whatever their values.  The naive double loop over all item
pairs that it is checked against is ``oracles.pairwise_loss_naive``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import RankedView
from .equivalence import identity_sums


@dataclass(frozen=True, slots=True)
class PairwiseLossValue:
    """Unnormalized and normalized loss plus the pair-count normalizer Z.

    When every item shares one grade, Z = 0 and the normalized loss is
    reported as 0.0.
    """

    unnormalized: int
    normalizer_z: int
    normalized: float


def loss_from_view(view: RankedView) -> PairwiseLossValue:
    """The weighted loss of a ranked view, the ``loss`` of its ``identity_sums``."""
    return loss_value(view, identity_sums(view).loss)


def loss_value(view: RankedView, loss: int) -> PairwiseLossValue:
    """``loss``, the weighted loss of a ranked view, with the view's normalizer Z."""
    n = len(view)
    z = (n * n - sum(c * c for c in view.counts)) // 2
    return PairwiseLossValue(unnormalized=loss, normalizer_z=z,
                             normalized=loss / z if z else 0.0)
