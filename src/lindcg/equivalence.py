"""Mechanical checks that the linear DCG error equals the weighted pairwise loss.

For bipartite groups the identity is established through exchange
sequences: any observed ranking arises from the ideal one by at most
min(m, n) position swaps, each swap lowering the DCG by m + j_r - i_r and
raising the pairwise loss by the same amount.  For multipartite groups
the identity follows from the threshold decomposition of both sides.
This module constructs the exchanges, accounts for the per-exchange
decrements, checks the identities on concrete groups, and provides a
brute-force permutation oracle for exhaustive confirmation at small size.

Score ties break the identity (the pairwise indicator is strict while a
realized ranking has to place tied items somewhere), so records carry a
``tie_afflicted`` flag and tied instances are exempt from hard assertions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from .core import QueryGroup, RankedSequence, RankedView, rank_view
from .errors import (
    EmptyGroupError,
    InvalidGradeError,
    NonBipartiteError,
    TooLargeError,
)
from .metrics import (
    bipartite_ideal_dcg,
    dcg_error_linear,
    view_dcg_linear,
    view_ideal_dcg_linear,
)
from .pairwise import pairwise_loss_fast

# 8! = 40_320 permutations, exhaustive in well under a second.
ORACLE_SIZE_CAP = 8


@dataclass(frozen=True, slots=True)
class ExchangeSequence:
    """The swaps turning the ideal bipartite sequence [1^m 0^n] into a target.

    ``pairs`` holds 1-based positions (i_r, j_r): i_r indexes the first m
    slots, j_r indexes within the last n slots, and both coordinates are
    strictly increasing across the sequence.
    """

    pairs: tuple[tuple[int, int], ...]
    m: int
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        if len(self.pairs) > min(self.m, self.n):
            raise ValueError(
                f"{len(self.pairs)} exchanges exceed min(m={self.m}, n={self.n})"
            )
        prev_i = prev_j = 0
        for i, j in self.pairs:
            if not (prev_i < i <= self.m and prev_j < j <= self.n):
                raise ValueError(
                    f"exchange positions ({i}, {j}) not strictly increasing "
                    f"within m={self.m}, n={self.n}"
                )
            prev_i, prev_j = i, j

    def apply(self) -> RankedSequence:
        """Replay the swaps on the ideal sequence and return the result."""
        grades = [1] * self.m + [0] * self.n
        for i, j in self.pairs:
            a, b = i - 1, self.m + j - 1
            grades[a], grades[b] = grades[b], grades[a]
        return RankedSequence(tuple(grades))


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


def build_exchange_sequence(observed: RankedSequence) -> ExchangeSequence:
    """Derive the exchange sequence producing an observed bipartite ranking.

    The misplaced zeros in the first m slots are paired, in increasing
    position order, with the misplaced ones in the last n slots; both
    lists always have the same length r <= min(m, n).
    """
    for g in observed.grades:
        if g > 1:
            raise NonBipartiteError(f"grade {g} in a bipartite sequence")
    m = sum(observed.grades)
    n = len(observed.grades) - m
    zeros_in_top = tuple(
        pos for pos, g in enumerate(observed.grades[:m], start=1) if g == 0
    )
    ones_in_bottom = tuple(
        pos for pos, g in enumerate(observed.grades[m:], start=1) if g == 1
    )
    # Equal counts are forced: each misplaced zero displaces exactly one positive.
    assert len(zeros_in_top) == len(ones_in_bottom)
    return ExchangeSequence(tuple(zip(zeros_in_top, ones_in_bottom)), m, n)


def exchange_decrements(ex: ExchangeSequence) -> list[int]:
    """Per-exchange DCG decrement m + j_r - i_r; every entry is >= 1.

    The decrements sum to the DCG error of the sequence the exchanges
    produce.
    """
    return [ex.m + j - i for i, j in ex.pairs]


def verify_bipartite_identity(group: QueryGroup) -> VerificationRecord:
    """Check DCG error == unnormalized pairwise loss for a binary-graded group."""
    if group.num_grades != 2:
        raise NonBipartiteError(
            f"group {group.query_id!r} has {group.num_grades} grades, need 2"
        )
    lhs = dcg_error_linear(group)
    rhs = pairwise_loss_fast(group).unnormalized
    return VerificationRecord(
        instance_id=group.query_id,
        check_name="bipartite_identity",
        lhs=lhs,
        rhs=rhs,
        passed=lhs == rhs,
        tie_afflicted=group.has_score_ties(),
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
    d + 1 detail records, whatever the alphabet size L.  The split compares
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


def brute_force_oracle(grades, max_size: int = ORACLE_SIZE_CAP) -> list[VerificationRecord]:
    """Check the identity on every permutation of a grade multiset.

    Each permutation is read as a tie-free ranking (earlier position means
    strictly higher score); the DCG error and the weighted misranked-pair
    count are computed directly on it and must agree.  One record is
    emitted per permutation.
    """
    grades = tuple(grades)
    if not grades:
        raise EmptyGroupError("empty grade multiset")
    for g in grades:
        if not isinstance(g, int) or g < 0:
            raise InvalidGradeError(f"grade must be a non-negative integer, got {g!r}")
    cap = min(max_size, ORACLE_SIZE_CAP)
    n = len(grades)
    if n > cap:
        raise TooLargeError(f"multiset of size {n} exceeds the cap of {cap}")

    last = n - 1
    ideal = sum(g * (n - i) for i, g in enumerate(sorted(grades, reverse=True), start=1))
    records = []
    for perm in itertools.permutations(grades):
        dcg = 0
        loss = 0
        for p in range(n):
            gp = perm[p]
            dcg += gp * (last - p)
            for q in range(p + 1, n):
                gap = perm[q] - gp
                if gap > 0:
                    loss += gap
        delta = ideal - dcg
        records.append(
            VerificationRecord(
                instance_id=",".join(map(str, perm)),
                check_name="permutation_identity",
                lhs=delta,
                rhs=loss,
                passed=delta == loss,
            )
        )
    return records
