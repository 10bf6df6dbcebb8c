"""Shared builders for test groups and sequences."""

from __future__ import annotations

import random
import re

from lindcg.core import QueryGroup, rank_by_score
from lindcg.equivalence import VerificationRecord
from lindcg.metrics import dcg_error_linear, dcg_linear
from lindcg.pairwise import binarize, binarize_sequence, pairwise_loss_fast


def make_group(grades, scores, query_id="q", num_grades=None):
    return QueryGroup.build(query_id, list(grades), list(scores), num_grades)


def group_from_ranking(grades_in_rank_order, query_id="q", num_grades=None):
    """Group whose score-induced ranking is exactly the given grade order."""
    n = len(grades_in_rank_order)
    scores = [float(n - i) for i in range(n)]
    return make_group(grades_in_rank_order, scores, query_id, num_grades)


def random_group(rng: random.Random, max_items=50, max_grades=5,
                 allow_ties=False, query_id="q"):
    """Seeded random group; with allow_ties, roughly half draw tie-prone scores."""
    size = rng.randint(1, max_items)
    num_grades = rng.randint(2, max_grades)
    grades = [rng.randrange(num_grades) for _ in range(size)]
    if allow_ties and rng.random() < 0.5:
        # Coarse integer grid forces score collisions.
        scores = [float(rng.randint(0, max(1, size // 3))) for _ in range(size)]
    else:
        scores = []
        seen = set()
        while len(scores) < size:
            s = rng.random()
            if s not in seen:
                seen.add(s)
                scores.append(s)
    return make_group(grades, scores, query_id, num_grades)


def rebuilt_multipartite_record(group: QueryGroup) -> VerificationRecord:
    """The multipartite check assembled from binarized copies of the group.

    Each threshold check builds the group binarized at k and ranks it
    again; the split binarizes the observed sequence once per threshold.
    An oracle for the ranked-view check, which reads one sweep of the
    full grades instead.
    """
    observed = rank_by_score(group)
    ties = group.has_score_ties()
    details = []
    for k in range(group.num_grades - 1):
        sub = binarize(group, k)
        sub_lhs = dcg_error_linear(sub)
        sub_rhs = pairwise_loss_fast(sub).unnormalized
        details.append(VerificationRecord(
            f"{group.query_id}[k={k}]", "threshold_identity",
            sub_lhs, sub_rhs, sub_lhs == sub_rhs, ties,
        ))
    split_lhs = dcg_linear(observed)
    split_rhs = sum(
        dcg_linear(binarize_sequence(observed, k)) for k in range(group.num_grades - 1)
    )
    details.append(VerificationRecord(
        f"{group.query_id}[split]", "dcg_split", split_lhs, split_rhs, split_lhs == split_rhs,
    ))
    lhs = dcg_error_linear(group)
    rhs = pairwise_loss_fast(group).unnormalized
    return VerificationRecord(
        group.query_id, "multipartite_identity", lhs, rhs, lhs == rhs, ties, tuple(details),
    )


_RUN_ID = re.compile(r"\[k=(\d+)(?:\.\.(\d+))?\]$")


def run_thresholds(instance_id: str) -> range:
    """The thresholds k named by a ``q[k=K]`` or ``q[k=A..B]`` record id."""
    first, last = _RUN_ID.search(instance_id).groups()
    return range(int(first), int(last or first) + 1)
