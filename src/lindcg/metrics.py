"""Per-query evaluation: DCG/NDCG in two gain/discount families, the
weighted pairwise loss, and the check that the linear DCG error equals it.

The linear family uses gain r_i and discount (|S| - i) at 1-based rank i,
so the bottom rank earns nothing and every value is an exact integer.
The classical family uses gain (2**r_i - 1) and discount 1/log2(i + 1) in
ordinary floating point.  Only the final NDCG ratios are floats; linear
quantities stay integers end to end so the identity check can use
equality instead of tolerances.  Every kernel reads one ranked view per
query (core.rank_view); the rank-order sums they are checked against are
the references in ``lindcg.oracles``.

``identity_sums`` computes a query's linear integers from its view, once:
the DCG summed over ranked positions, the ideal DCG and weighted loss that
``compute_report`` reports, and the run and split sums of the identity
check, whose split compares that DCG with its sum over grade thresholds.
``compute_report`` ranks the group, reads the cap from the view's top
level, and asks ``identity_status`` for the query's ``identity``.  The
check's pairs are walked in one place, ``_unequal_pair``, which gives the
status and, for a failed check, the line ``_first_mismatch`` writes.
``IdentitySums`` and ``MetricReport`` are NamedTuples: immutable, hashable
and compared by value, so each also equals the plain tuple of its fields
and unpacks.

The weighted pairwise loss is the ``loss`` of ``identity_sums``.  A pair
of items with grades a < b is misranked when the higher-graded item
scores strictly below the lower-graded one; each such pair costs the
grade gap (b - a).
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

The identity holds threshold by threshold.  Binarized at a threshold k,
the items of grade > k form a bipartite group whose DCG error, the
closed-form ideal minus their discount mass, equals its unweighted
pairwise loss.  Both the linear DCG and the weighted loss split into a
sum of those per-threshold parts, so the identity holds for any grade
alphabet.  The check reads every part from one ranked view.  The
exchange construction and the permutation oracle, which confirm the
identity independently, are test oracles in ``lindcg.oracles``.

Score ties break the identity (the pairwise indicator is strict while a
realized ranking has to place tied items somewhere), so a tied query's
status is ``tie_flagged`` and it cannot fail the check.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, compress, repeat
from operator import mul, truediv
from typing import NamedTuple, Sequence

from .core import QueryGroup, RankedView, rank_view
from .errors import GradeTooLargeError, _quoted, _shortened

# 2**grade must stay exactly representable in a double.
MAX_CLASSIC_GRADE = 30


_GAINS = tuple(2**g - 1 for g in range(MAX_CLASSIC_GRADE + 1))


def _classic_sum(grades: Sequence[int]) -> float:
    """Classical DCG of grades best-ranked first: sum of (2**r_i - 1) / log2(i + 1)
    over 1-based ranks i, for grades within the cap.  A zero grade is skipped:
    adding its 0.0 leaves the sum, compensated (3.12+) or not, as it is."""
    discounts = map(math.log2, compress(range(2, len(grades) + 2), grades))
    return sum(map(truediv, map(_GAINS.__getitem__, filter(None, grades)), discounts), 0.0)


class IdentitySums(NamedTuple):
    """One query's linear integers, which its report and its identity check read.

    ``dcg`` is the observed DCG summed over positions and ``split_rhs`` the
    same DCG summed over thresholds.  ``ideal_dcg - dcg``, the linear DCG
    error, must equal ``loss``, the weighted pairwise loss.
    ``run_lhs[j]`` is the DCG error of the bipartite group above the run of
    thresholds ``levels[j] <= k < levels[j + 1]`` and ``run_losses[j]`` that
    run's swept loss.
    """

    dcg: int
    ideal_dcg: int
    loss: int
    run_lhs: tuple[int, ...]
    run_losses: tuple[int, ...]
    split_rhs: int


def bipartite_ideal_dcg(m: int, n: int) -> int:
    """Closed form for the ideal linear DCG of m positives and n negatives:
    m*n + m*(m - 1)/2."""
    return m * n + m * (m - 1) // 2


def identity_sums(view: RankedView) -> IdentitySums:
    """A query's linear integers, each computed once from its ranked view.

    In non-increasing grade order, the c items of each grade fill one block
    of positions f+1..f+c below the f items of higher grades; that block's
    discounts sum to c*(|S| - f) - c*(c + 1)/2, which gives the ideal DCG a
    closed form per level.  The losses are the view's score sweep, never
    the discount masses rewritten, so every check compares two independent
    counts.  No grade is capped here, so ``lindcg verify`` checks any.
    """
    n = len(view.grades)
    levels, counts, masses = view.levels, view.counts, view.discount_mass
    widths = view.run_widths
    losses = view.threshold_losses
    # items and discount mass above each run: suffix sums over the levels
    above_items = [*accumulate(counts[:0:-1])][::-1]
    above_mass = [*accumulate(masses[:0:-1])][::-1]
    return IdentitySums(
        dcg=sum(map(mul, view.grades, range(n - 1, -1, -1))),
        # f, the items above level j, is above_items[j]; none are above the top
        ideal_dcg=sum(g * (c * (n - f) - c * (c + 1) // 2)
                      for g, c, f in zip(levels[1:], counts[1:], [*above_items[1:], 0])),
        loss=sum(map(mul, widths, losses)),
        # bipartite_ideal_dcg(m, n - m) - mass, inline
        run_lhs=tuple(m * (n - m) + m * (m - 1) // 2 - mass
                      for m, mass in zip(above_items, above_mass)),
        run_losses=losses,
        split_rhs=sum(map(mul, widths, above_mass)),
    )


def _unequal_pair(view: RankedView, sums: IdentitySums) -> str | None:
    """The check's first unequal pair as text, such as ``[k=0..2]: error 4 !=
    loss 5``, or None.  The pairs, in order: the DCG error against the loss,
    each run of thresholds ``[k=K]`` or ``[k=A..B]``, and the ``[split]``."""
    error = sums.ideal_dcg - sums.dcg
    if error != sums.loss:
        return f": error {_shortened(error)} != loss {_shortened(sums.loss)}"
    if sums.run_lhs != sums.run_losses:
        for a, b, error, loss in zip(view.levels, view.levels[1:], sums.run_lhs,
                                     sums.run_losses):
            if error != loss:
                run = f"[k={a}]" if b - a == 1 else f"[k={a}..{b - 1}]"
                return f"{run}: error {_shortened(error)} != loss {_shortened(loss)}"
    if sums.dcg != sums.split_rhs:
        return (f"[split]: dcg {_shortened(sums.dcg)}"
                f" != sum over thresholds {_shortened(sums.split_rhs)}")
    return None


def identity_status(view: RankedView, sums: IdentitySums) -> str:
    """The query's status, ``passed``, ``failed`` or ``tie_flagged``, from its
    view's ``identity_sums``.

    A tied query is ``tie_flagged`` whatever its integers.  Otherwise every
    pair of the sums must be equal for it to pass.
    """
    if view.has_score_ties:
        return "tie_flagged"
    return "passed" if _unequal_pair(view, sums) is None else "failed"


class MetricReport(NamedTuple):
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


def compute_report(group: QueryGroup) -> MetricReport:
    """Rank one group and evaluate both DCG families, the pairwise loss and
    the identity check.  A grade above ``MAX_CLASSIC_GRADE`` raises
    ``GradeTooLargeError``, naming the query, which only a group built by hand
    can hold; ``rank_view`` sorts the levels, so only the last is read."""
    view = rank_view(group)
    top = view.levels[-1]
    if top > MAX_CLASSIC_GRADE:
        raise GradeTooLargeError(
            f"query {_quoted(group.query_id)}: grade {_shortened(top)} exceeds the"
            f" classical-gain cap of {MAX_CLASSIC_GRADE}")
    # Zero grades add nothing and sort last, so the ideal list can stop before them.
    ideal_grades = list(
        chain.from_iterable(map(repeat, view.levels[:0:-1], view.counts[:0:-1]))
    )

    sums = identity_sums(view)
    lin, lin_ideal, loss = sums.dcg, sums.ideal_dcg, sums.loss
    cls = _classic_sum(view.grades)
    cls_ideal = _classic_sum(ideal_grades)
    n = len(view.grades)
    z = (n * n - sum(map(mul, view.counts, view.counts))) // 2

    # In the order of MetricReport's fields.
    return MetricReport(
        group.query_id, n, lin, lin_ideal, lin / lin_ideal if lin_ideal else 1.0,
        cls, cls_ideal, cls / cls_ideal if cls_ideal else 1.0,
        lin_ideal - lin, loss, z, loss / z if z else 0.0,
        lin_ideal == 0, cls_ideal == 0.0, identity_status(view, sums),
    )


def _first_mismatch(group: QueryGroup) -> str:
    """A failed check's first unequal pair after the quoted query id, as
    ``lindcg metrics`` names it.  Only a failed query is ranked again."""
    view = rank_view(group)
    return _quoted(group.query_id) + _unequal_pair(view, identity_sums(view))
