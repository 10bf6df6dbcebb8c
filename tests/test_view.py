"""The ranked view against the rebuild path it replaced and the naive oracles."""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import lindcg.report
from helpers import (
    group_from_ranking,
    ideal,
    make_group,
    rebuilt_multipartite_record,
    run_thresholds,
)
from lindcg.core import rank_view
from lindcg.equivalence import verify_multipartite_identity
from lindcg.metrics import compute_report
from lindcg.oracles import (
    dcg_classic,
    dcg_linear,
    pairwise_loss_naive,
    rank_by_score,
    threshold_decomposition,
)
from lindcg.pairwise import loss_from_view


@st.composite
def tied_groups(draw):
    """Groups of up to 40 items and 8 grades; a narrow score range forces ties."""
    top = draw(st.integers(1, 7))
    size = draw(st.integers(1, 40))
    spread = draw(st.integers(0, size))
    grades = draw(st.lists(st.integers(0, top), min_size=size, max_size=size))
    scores = draw(st.lists(st.integers(0, spread), min_size=size, max_size=size))
    return make_group(grades, [s / 2 for s in scores])


def test_view_of_the_golden_group():
    view = rank_view(group_from_ranking([1, 0, 0, 1, 1, 0]))
    assert view.grades == (1, 0, 0, 1, 1, 0)
    assert view.levels == (0, 1)
    assert view.counts == (3, 3)
    # discounts 5..0 by rank; the ones sit at ranks 1, 4 and 5
    assert view.discount_mass == (4 + 3 + 0, 5 + 2 + 1)
    assert view.threshold_losses == (4,)
    assert not view.has_score_ties


def test_view_keeps_input_order_among_tied_scores_and_skips_tied_pairs():
    view = rank_view(make_group([0, 1, 2, 0], [0.5, 0.5, 0.9, 0.5]))
    assert view.grades == (2, 0, 1, 0)
    assert view.has_score_ties
    # Only the strictly ordered pair (2 over 0, 1) could misrank, and it does not.
    assert view.threshold_losses == (0, 0)


def test_view_and_check_follow_the_grades_present_not_the_alphabet():
    grades = [7, 30, 0, 7, 3]
    group = make_group(grades, [0.9, 0.1, 0.5, 0.2, 0.8])
    view = rank_view(group)
    assert view.grades == (7, 3, 0, 7, 30)
    assert view.levels == (0, 3, 7, 30)
    assert view.counts == (1, 1, 2, 1)
    assert view.discount_mass == (2, 3, 4 + 1, 0)  # discounts 4..0 by rank
    # Runs 0..2 and 3..6: the 0, and then also the 3, outscore the second 7 and
    # the 30; run 7..29: all four others outscore the 30.
    assert view.threshold_losses == (2, 4, 4)
    assert loss_from_view(view) == pairwise_loss_naive(group)
    record = verify_multipartite_identity(group, view)
    assert [d.instance_id for d in record.details] == [
        "q[k=0..2]", "q[k=3..6]", "q[k=7..29]", "q[split]"]
    assert record.passed and all(d.passed for d in record.details)
    assert len(view.levels) <= len(set(grades)) + 1
    assert len(record.details) <= len(set(grades)) + 1


@settings(max_examples=200)
@given(tied_groups())
def test_identity_check_equals_the_rebuild_path_record_by_record(group):
    record = verify_multipartite_identity(group)
    oracle = rebuilt_multipartite_record(group)
    assert record == dataclasses.replace(oracle, details=record.details)
    *runs, split = record.details
    *per_k, oracle_split = oracle.details
    assert split == oracle_split
    # Each run record is the oracle's record at every threshold of its run,
    # and the runs end at the top grade, as the oracle's thresholds do.
    expanded = [
        dataclasses.replace(run, instance_id=f"{group.query_id}[k={k}]")
        for run in runs for k in run_thresholds(run.instance_id)
    ]
    assert expanded == per_k
    assert len(expanded) == max(group.grades)
    assert record.rhs == pairwise_loss_naive(group).unnormalized
    assert tuple(d.rhs for d in expanded) == threshold_decomposition(group)


@settings(max_examples=200)
@given(tied_groups())
def test_report_equals_the_single_purpose_helpers(group):
    report = compute_report(group)
    observed = rank_by_score(group)
    naive = pairwise_loss_naive(group)
    lin, lin_ideal = dcg_linear(observed), dcg_linear(ideal(group.grades))
    cls, cls_ideal = dcg_classic(observed), dcg_classic(ideal(group.grades))
    assert report.query_id == group.query_id
    assert report.num_items == len(group)
    assert report.dcg_linear == lin
    assert report.ideal_dcg_linear == lin_ideal
    assert report.ndcg_linear == (lin / lin_ideal if lin_ideal else 1.0)
    assert report.dcg_classic == cls
    assert report.ideal_dcg_classic == cls_ideal
    assert report.ndcg_classic == (cls / cls_ideal if cls_ideal else 1.0)
    assert report.dcg_error_linear == lin_ideal - lin
    assert report.pairwise_loss == naive.unnormalized
    assert report.normalizer_z == naive.normalizer_z
    assert report.normalized_pairwise_loss == naive.normalized
    assert report.degenerate_linear == (lin_ideal == 0)
    assert report.degenerate_classic == (cls_ideal == 0.0)


def test_classical_dcg_keeps_the_rank_order_float_sum():
    grades = [3, 0, 30, 1, 0, 2, 17]
    report = compute_report(group_from_ranking(grades))
    expected = sum((2**g - 1) / math.log2(i + 1) for i, g in enumerate(grades, start=1))
    assert report.dcg_classic == expected == dcg_classic(grades)


def test_aggregate_ranks_each_group_once(monkeypatch):
    built = []

    def counted(group):
        built.append(group.query_id)
        return rank_view(group)

    monkeypatch.setattr(lindcg.report, "rank_view", counted)
    groups = [make_group([1, 0, 2], [0.3, 0.2, 0.1], query_id=q) for q in ("b", "a")]
    report = lindcg.report.build_aggregate_report(groups)
    assert built == ["b", "a"]  # once each, as the groups arrive
    assert [r.query_id for r in report.per_query] == ["a", "b"]
