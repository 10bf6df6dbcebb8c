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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from .core import QueryGroup, RankedView, rank_view
from .metrics import bipartite_ideal_dcg, view_dcg_linear, view_ideal_dcg_linear


@dataclass(frozen=True, slots=True)
class VerificationRecord:
    """Outcome of one identity check: two integers that must be equal.

    ``tie_afflicted`` marks instances with exact score ties, which are
    exempt from hard pass requirements.  ``details`` carries per-threshold
    sub-checks for multipartite instances.
    """

    instance_id: str
    check_name: str
    lhs: int
    rhs: int
    passed: bool
    tie_afflicted: bool = False
    details: tuple[VerificationRecord, ...] = ()

    def __post_init__(self) -> None:
        if self.passed != (self.lhs == self.rhs):
            raise ValueError(
                f"record {self.instance_id!r}: passed={self.passed} inconsistent "
                f"with lhs={self.lhs}, rhs={self.rhs}"
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
    n = len(view)
    ties = view.has_score_ties
    levels = view.levels
    widths = view.run_widths
    lhs = view_ideal_dcg_linear(view) - view_dcg_linear(view)
    rhs = sum(map(mul, widths, view.threshold_losses))

    # items and discount mass above each run: suffix sums over the levels
    above_items = [*itertools.accumulate(view.counts[:0:-1])][::-1]
    above_mass = [*itertools.accumulate(view.discount_mass[:0:-1])][::-1]

    details = []
    for first, end, m, mass, loss in zip(
        levels, levels[1:], above_items, above_mass, view.threshold_losses
    ):
        run = f"k={first}" if end - first == 1 else f"k={first}..{end - 1}"
        sub_lhs = bipartite_ideal_dcg(m, n - m) - mass
        details.append(
            VerificationRecord(
                instance_id=f"{group.query_id}[{run}]",
                check_name="threshold_identity",
                lhs=sub_lhs,
                rhs=loss,
                passed=sub_lhs == loss,
                tie_afflicted=ties,
            )
        )
    split_lhs = sum(map(mul, view.grades, range(n - 1, -1, -1)))
    split_rhs = sum(map(mul, widths, above_mass))
    details.append(
        VerificationRecord(
            instance_id=f"{group.query_id}[split]",
            check_name="dcg_split",
            lhs=split_lhs,
            rhs=split_rhs,
            passed=split_lhs == split_rhs,
        )
    )
    return VerificationRecord(
        instance_id=group.query_id,
        check_name="multipartite_identity",
        lhs=lhs,
        rhs=rhs,
        passed=lhs == rhs,
        tie_afflicted=ties,
        details=tuple(details),
    )
