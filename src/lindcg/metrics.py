"""DCG/NDCG kernels in two gain/discount families, plus the DCG-error quantity.

The linear family uses gain r_i and discount (|S| - i) at 1-based rank i,
so the bottom rank earns nothing and every value is an exact integer.
The classical family uses gain (2**r_i - 1) and discount 1/log2(i + 1) in
ordinary floating point.  Only the final NDCG ratios are floats; linear
quantities stay integers end to end so downstream identity checks can use
equality instead of tolerances.  Every kernel reads one ranked view per
query (core.rank_view); the rank-order sums they are checked against are
the references in ``lindcg.oracles``.

``compute_report`` evaluates a query in one pass: the linear integers of
the report and of its ``identity`` status come from one call of
``equivalence.identity_sums``.

The weighted pairwise loss is that call's ``loss``.  A pair of items with
grades a < b is misranked when the higher-graded item scores strictly
below the lower-graded one; each such pair costs the grade gap (b - a).
Score ties never count: the indicator is strict, so tied pairs contribute
zero rather than half credit.  The loss is read off the per-threshold
counts of the histogram sweep in core.rank_view, in
O(|S|*d + |S| log |S|) for the d distinct grades of a query, whatever
their values.  The naive double loop over all item pairs that it is
checked against is ``oracles.pairwise_loss_naive``.

The normalizer Z is the raw number of cross-grade pairs,
sum over a < b of |S_a| * |S_b|, deliberately without the (b - a)
weights.  The normalized loss can therefore exceed 1; its true ceiling is
the largest grade gap.  This asymmetry is kept on purpose rather than "fixed".
When every item shares one grade, Z = 0 and the normalized loss is
reported as 0.0.

NDCG of a group whose ideal DCG is zero is reported as 1.0 and flagged as
degenerate: every ranking of such a group is vacuously ideal, and
aggregation over many queries must not abort on one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import truediv
from typing import Sequence

from .core import QueryGroup, RankedView, rank_view
# bipartite_ideal_dcg is re-exported: it is defined with the check that uses it.
from .equivalence import bipartite_ideal_dcg, identity_status, identity_sums
from .errors import GradeTooLargeError

# 2**grade must stay exactly representable in a double.
MAX_CLASSIC_GRADE = 30


def _check_classic_cap(view: RankedView) -> None:
    top = view.levels[-1]  # the largest grade of the query
    if top > MAX_CLASSIC_GRADE:
        raise GradeTooLargeError(
            f"grade {top} exceeds the classical-gain cap of {MAX_CLASSIC_GRADE}"
        )


_GAINS = tuple(2**g - 1 for g in range(MAX_CLASSIC_GRADE + 1))


def _classic_sum(grades: Sequence[int]) -> float:
    """Classical DCG of grades best-ranked first: sum of (2**r_i - 1) / log2(i + 1)
    over 1-based ranks i, for grades within the cap."""
    discounts = map(math.log2, range(2, len(grades) + 2))
    return sum(map(truediv, map(_GAINS.__getitem__, grades), discounts), 0.0)


@dataclass(frozen=True, slots=True)
class MetricReport:
    """Every metric computed for one query group.

    ``degenerate_linear`` / ``degenerate_classic`` mark groups whose ideal
    DCG is zero in the respective family; their NDCG is reported as 1.0 by
    convention.  ``normalized_pairwise_loss`` divides by the raw
    cross-grade pair count Z and may exceed 1 (see the module docstring).
    ``identity`` is the status of the query's identity check: ``passed``,
    ``failed`` or ``tie_flagged``.
    """

    query_id: str
    num_items: int
    dcg_linear: int
    ideal_dcg_linear: int
    ndcg_linear: float
    dcg_classic: float
    ideal_dcg_classic: float
    ndcg_classic: float
    dcg_error_linear: int
    pairwise_loss: int
    normalizer_z: int
    normalized_pairwise_loss: float
    degenerate_linear: bool
    degenerate_classic: bool
    identity: str


def compute_report(group: QueryGroup, view: RankedView | None = None) -> MetricReport:
    """Evaluate both DCG families, the pairwise loss and the identity check for one group.

    ``view`` is the group's rank_view when the caller already holds it.
    """
    if view is None:
        view = rank_view(group)
    _check_classic_cap(view)
    # Zero grades add nothing and sort last, so the ideal list can stop before them.
    ideal_grades = list(
        chain.from_iterable(map(repeat, view.levels[:0:-1], view.counts[:0:-1]))
    )

    sums = identity_sums(view)
    lin, lin_ideal = sums.dcg, sums.ideal_dcg
    cls = _classic_sum(view.grades)
    cls_ideal = _classic_sum(ideal_grades)
    n = len(view)
    z = (n * n - sum(c * c for c in view.counts)) // 2

    return MetricReport(
        query_id=group.query_id,
        num_items=n,
        dcg_linear=lin,
        ideal_dcg_linear=lin_ideal,
        ndcg_linear=lin / lin_ideal if lin_ideal else 1.0,
        dcg_classic=cls,
        ideal_dcg_classic=cls_ideal,
        ndcg_classic=cls / cls_ideal if cls_ideal else 1.0,
        dcg_error_linear=lin_ideal - lin,
        pairwise_loss=sums.loss,
        normalizer_z=z,
        normalized_pairwise_loss=sums.loss / z if z else 0.0,
        degenerate_linear=lin_ideal == 0,
        degenerate_classic=cls_ideal == 0.0,
        identity=identity_status(view, sums),
    )
