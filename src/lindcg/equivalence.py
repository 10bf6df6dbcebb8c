"""The per-query check that the linear DCG error equals the weighted pairwise loss.

Binarized at a threshold k, the items of grade > k form a bipartite
group whose DCG error, the closed-form ideal minus their discount mass,
equals its unweighted pairwise loss.  Both the linear DCG and the weighted
loss split into a sum of those per-threshold parts, so the identity holds
for any grade alphabet.  The check reads every part from one ranked view.
The exchange construction and the permutation oracle, which confirm the
identity independently, are test oracles in ``lindcg.oracles``.

Score ties break the identity (the pairwise indicator is strict while a
realized ranking has to place tied items somewhere), so records carry a
``tie_afflicted`` flag and tied instances are exempt from hard assertions.

``identity_sums`` computes a query's linear integers from a view, once:
the DCG, ideal DCG and weighted loss that ``compute_report`` reports, and
the run and split sums of the check.  ``compute_report`` asks
``identity_status`` for the query's status from those same integers.  The
library call ``verify_multipartite_identity`` names each of them in a
``VerificationRecord``, whose ``passed`` is read off its two integers; the
report builds the records only for a failed check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

from .core import QueryGroup, RankedView, rank_view


@dataclass(frozen=True, slots=True)
class VerificationRecord:
    """Outcome of one identity check: two integers that must be equal.

    ``passed`` is derived, ``lhs == rhs``, so no record can disagree with
    its own integers.  ``tie_afflicted`` marks instances with exact score
    ties, which are exempt from hard pass requirements.  ``details`` carries
    per-threshold sub-checks for multipartite instances.
    """

    instance_id: str
    check_name: str
    lhs: int
    rhs: int
    tie_afflicted: bool = False
    details: tuple[VerificationRecord, ...] = ()

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


class IdentitySums(NamedTuple):
    """One query's linear integers, which its report and its identity check read.

    ``ideal_dcg - dcg``, the linear DCG error, must equal ``loss``, the
    weighted pairwise loss.
    ``run_lhs[j]`` is the DCG error of the bipartite group above the run of
    thresholds ``levels[j] <= k < levels[j + 1]`` and ``run_losses[j]`` that
    run's swept loss.  ``split_lhs`` is the observed DCG summed over
    positions and ``split_rhs`` the same DCG summed over thresholds.
    """

    dcg: int
    ideal_dcg: int
    loss: int
    run_lhs: tuple[int, ...]
    run_losses: tuple[int, ...]
    split_lhs: int
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
    n = len(view)
    levels, counts, masses = view.levels, view.counts, view.discount_mass
    widths = view.run_widths
    losses = view.threshold_losses
    # items and discount mass above each run: suffix sums over the levels
    above_items = [*itertools.accumulate(counts[:0:-1])][::-1]
    above_mass = [*itertools.accumulate(masses[:0:-1])][::-1]
    return IdentitySums(
        dcg=sum(map(mul, levels, masses)),
        # f, the items above level j, is above_items[j]; none are above the top
        ideal_dcg=sum(g * (c * (n - f) - c * (c + 1) // 2)
                      for g, c, f in zip(levels[1:], counts[1:], [*above_items[1:], 0])),
        loss=sum(map(mul, widths, losses)),
        run_lhs=tuple(bipartite_ideal_dcg(m, n - m) - mass
                      for m, mass in zip(above_items, above_mass)),
        run_losses=losses,
        split_lhs=sum(map(mul, view.grades, range(n - 1, -1, -1))),
        split_rhs=sum(map(mul, widths, above_mass)),
    )


def _records(query_id: str, view: RankedView, sums: IdentitySums) -> VerificationRecord:
    """The check's records: one per run of thresholds and one for the split,
    under the top-level record."""
    ties = view.has_score_ties
    levels = view.levels
    details = []
    for first, end, sub_lhs, loss in zip(levels, levels[1:], sums.run_lhs, sums.run_losses):
        run = f"k={first}" if end - first == 1 else f"k={first}..{end - 1}"
        details.append(
            VerificationRecord(
                instance_id=f"{query_id}[{run}]",
                check_name="threshold_identity",
                lhs=sub_lhs,
                rhs=loss,
                tie_afflicted=ties,
            )
        )
    details.append(
        VerificationRecord(
            instance_id=f"{query_id}[split]",
            check_name="dcg_split",
            lhs=sums.split_lhs,
            rhs=sums.split_rhs,
        )
    )
    return VerificationRecord(
        instance_id=query_id,
        check_name="multipartite_identity",
        lhs=sums.ideal_dcg - sums.dcg,
        rhs=sums.loss,
        tie_afflicted=ties,
        details=tuple(details),
    )


def verify_multipartite_identity(
    group: QueryGroup, view: RankedView | None = None
) -> VerificationRecord:
    """Check DCG error == weighted pairwise loss for any grade alphabet.

    Detail records cover the per-threshold identity and the DCG split.
    Every threshold k of the run ``levels[j] <= k < levels[j + 1]`` between
    two consecutive grades of the query splits it alike: the m items of
    grade > k form a bipartite group whose DCG error, the closed-form ideal
    minus their discount mass, must equal the swept loss of the run.  One
    ``threshold_identity`` record stands for the whole run, so it passes
    exactly when each per-k check would; it is named ``q[k=K]`` for a run
    of one threshold and ``q[k=A..B]`` for a wider one.  Thresholds at or
    above the top grade have no item above them (0 = 0) and no record, so
    a query of d distinct grades costs O(|S|*d + |S| log |S|) and at most
    d + 1 detail records, whatever the grade values.  The split compares
    the observed DCG, summed over positions, with the sum over thresholds
    of the above-k discount masses, each run counted once per threshold.
    ``view`` is the group's rank_view when the caller already holds it.
    """
    if view is None:
        view = rank_view(group)
    return _records(group.query_id, view, identity_sums(view))


def identity_status(view: RankedView, sums: IdentitySums) -> str:
    """The query's status, ``passed``, ``failed`` or ``tie_flagged``, from its
    view's ``identity_sums``.

    A tied query is ``tie_flagged`` whatever its integers, as its record
    is.  Otherwise the status is the records' verdict: every pair of the
    sums must be equal.
    """
    if view.has_score_ties:
        return "tie_flagged"
    if (sums.ideal_dcg - sums.dcg == sums.loss and sums.run_lhs == sums.run_losses
            and sums.split_lhs == sums.split_rhs):
        return "passed"
    return "failed"
