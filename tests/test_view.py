"""The ranked view against the rebuild path it replaced and the naive oracles."""

import math
import sys
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lindcg.metrics
import lindcg.report
from helpers import (
    group_from_ranking,
    ideal,
    make_group,
    rebuilt_multipartite_record,
    view_integers,
)
from lindcg.core import RankedView, rank_view
from lindcg.metrics import MAX_CLASSIC_GRADE, _first_mismatch, compute_report, identity_sums
from lindcg.oracles import (
    dcg_classic,
    dcg_linear,
    pairwise_loss_naive,
    rank_by_score,
    threshold_decomposition,
)


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


def test_a_view_is_a_named_tuple_whose_length_is_its_field_count():
    view = rank_view(group_from_ranking([2, 0, 1]))
    assert RankedView._fields == ("grades", "levels", "counts", "discount_mass",
                                  "has_score_ties", "threshold_losses")
    assert (len(view), len(view.grades)) == (6, 3)
    assert view == tuple(getattr(view, field) for field in RankedView._fields)


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
    report = compute_report(group)
    assert (report.pairwise_loss, report.normalizer_z) == pairwise_loss_naive(group)
    assert report.identity == "passed"
    # One pair per run, k=0..2, 3..6 and 7..29, and each pair is equal.
    sums = identity_sums(view)
    assert view.run_widths == (3, 4, 23)
    assert sums.run_lhs == sums.run_losses == (2, 4, 4)
    assert len(view.levels) <= len(set(grades)) + 1
    # A failed run is named from the levels, as the run it stands for.
    off = sums._replace(run_lhs=(2, 4, 5))
    with mock.patch.object(lindcg.metrics, "identity_sums", lambda _: off):
        assert _first_mismatch(group) == "'q'[k=7..29]: error 5 != loss 4"


@settings(max_examples=200)
@given(tied_groups())
def test_identity_check_equals_the_rebuild_path_record_by_record(group):
    """The check's integers equal the rebuilt oracle's, pair by pair: each
    run's pair is the oracle's at every threshold of the run, and the runs
    end at the top grade, as the oracle's thresholds do."""
    per_k, split, total = view_integers(rank_view(group))
    oracle_per_k, oracle_split, oracle_total = rebuilt_multipartite_record(group)
    assert (per_k, split, total) == (oracle_per_k, oracle_split, oracle_total)
    assert len(per_k) == max(group.grades)
    assert total[1] == pairwise_loss_naive(group)[0]
    assert tuple(loss for _, loss in per_k) == threshold_decomposition(group)


@settings(max_examples=200)
@given(tied_groups())
def test_report_equals_the_single_purpose_helpers(group):
    report = compute_report(group)
    observed = rank_by_score(group)
    loss, z = pairwise_loss_naive(group)
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
    assert report.pairwise_loss == loss
    assert report.normalizer_z == z
    assert report.normalized_pairwise_loss == (loss / z if z else 0.0)
    assert report.degenerate_linear == (lin_ideal == 0)
    assert report.degenerate_classic == (cls_ideal == 0.0)
    assert report.identity == ("tie_flagged" if len(set(group.scores)) < len(group) else "passed")


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

    monkeypatch.setattr(lindcg.metrics, "rank_view", counted)
    groups = [make_group([1, 0, 2], [0.3, 0.2, 0.1], query_id=q) for q in ("b", "a")]
    report = lindcg.report.build_aggregate_report(groups)
    assert built == ["b", "a"]  # once each, as the groups arrive
    assert [r.query_id for r in report.per_query] == ["a", "b"]


def test_aggregate_computes_each_querys_linear_integers_once(monkeypatch):
    """``identity_sums`` computes a query's linear DCG, ideal DCG and weighted
    loss, and the report and the check both read its one result: over k
    tie-free groups it runs k times, and the run widths, discount masses and
    threshold losses that those integers come from are each read k times."""
    calls = Counter()
    identity_sums = lindcg.metrics.identity_sums

    def counted_sums(view):
        calls["identity_sums"] += 1
        return identity_sums(view)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").partition(".")[0] == "lindcg"
                and getattr(module, "identity_sums", None) is identity_sums):
            monkeypatch.setattr(module, "identity_sums", counted_sums)

    def counted(name, descriptor):
        def get(view):
            calls[name] += 1
            return descriptor.__get__(view)
        return property(get, getattr(descriptor, "__set__", None))

    for name in ("run_widths", "discount_mass", "threshold_losses"):
        monkeypatch.setattr(RankedView, name, counted(name, RankedView.__dict__[name]))

    rankings = [[2, 0, 1, 0, 1, 0, 0], [1, 0, 0, 1, 1, 0], [0, 3, 1], [4], [30, 0, 7, 7]]
    groups = [group_from_ranking(grades, query_id=f"q{i}") for i, grades in enumerate(rankings)]
    report = lindcg.report.build_aggregate_report(groups)
    assert [r.identity for r in report.per_query] == ["passed"] * len(groups)
    assert calls == dict.fromkeys(
        ("identity_sums", "run_widths", "discount_mass", "threshold_losses"), len(groups))


@st.composite
def tie_free_groups(draw):
    """Groups of up to 40 items with distinct scores and grades up to 4."""
    size = draw(st.integers(1, 40))
    grades = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    scores = draw(st.lists(st.integers(-99, 99), min_size=size, max_size=size, unique=True))
    return make_group(grades, scores)


@st.composite
def wide_grade_groups(draw):
    """Groups of up to 40 items with grades anywhere up to the classical cap of 30."""
    size = draw(st.integers(1, 40))
    grades = draw(st.lists(st.integers(0, 30), min_size=size, max_size=size))
    scores = draw(st.lists(st.integers(-20, 20), min_size=size, max_size=size))
    return make_group(grades, scores)


def _oracle_status(view):
    """The status read off the view's integers as the rebuilt oracle lays them
    out: ``tie_flagged`` for a tied view, else ``passed`` exactly when every
    pair, each threshold's, the split's and the total's, is equal."""
    if view.has_score_ties:
        return "tie_flagged"
    per_k, split, total = view_integers(view)
    return "passed" if all(a == b for a, b in (*per_k, split, total)) else "failed"


def _kept(group, view):
    """The statuses and failure lines ``build_aggregate_report`` keeps when ``group`` ranks as ``view``."""
    with mock.patch.object(lindcg.metrics, "rank_view", lambda _: view):
        report = lindcg.report.build_aggregate_report([group])
    return tuple(r.identity for r in report.per_query), report.failures


# The view's integers, with the largest index each may be corrupted at: the top
# level stays, and every changed level stays within 0..MAX_CLASSIC_GRADE, so
# compute_report still accepts the view.
_VIEW_INTEGERS = {"grades": 0, "levels": 1, "counts": 0, "discount_mass": 0,
                  "threshold_losses": 0}


@settings(max_examples=300, deadline=None)
@given(st.one_of(tie_free_groups(), tied_groups(), wide_grade_groups()),
       st.sampled_from([None, *_VIEW_INTEGERS]), st.integers(0, 39),
       st.sampled_from([-2, -1, 1, 2]), st.integers(1, 30))
# Level 29 + 2 would pass the cap of 30 below the top level, which compute_report refuses.
@example(make_group([29, 30, 0], [3.0, 2.0, 1.0]), "levels", 1, 2, 1)
def test_kept_status_is_the_records_verdict_on_any_view(group, field, position, change, shift):
    """The status compares every integer the oracle lays out: on the true view
    and on one with any one integer changed, at ``position`` modulo the indices
    it may be changed at, by ``change``, or, for a grade, by ``shift`` modulo 31.
    A failed status comes with one failure line, which names the query."""
    view = rank_view(group)
    if field is not None and len(getattr(view, field)) > _VIEW_INTEGERS[field]:
        values = list(getattr(view, field))
        index = position % (len(values) - _VIEW_INTEGERS[field])
        if field == "grades":
            values[index] = (values[index] + shift) % 31
        elif field == "levels" and not 0 <= values[index] + change <= MAX_CLASSIC_GRADE:
            values[index] -= change
        else:
            values[index] += change
        view = view._replace(**{field: tuple(values)})
    status = _oracle_status(view)
    statuses, failures = _kept(group, view)
    assert statuses == (status,)
    assert len(failures) == (status == "failed")
    assert all(line.startswith("'q'") for line in failures)


def _corrupted(field, index, change):
    """The group of grades 2, 0, 1, 0, 1, 0, 0 by rank, and its view with
    ``view.<field>[index]`` changed by ``change``."""
    group = group_from_ranking([2, 0, 1, 0, 1, 0, 0], query_id="m")
    view = rank_view(group)
    values = list(getattr(view, field))
    values[index] += change
    return group, view._replace(**{field: tuple(values)})


def test_a_corrupted_ranked_grade_fails_the_total_and_the_split():
    # The top item's grade; the levels, counts and masses stay.
    group, view = _corrupted("grades", 0, -1)
    sums = identity_sums(view)
    # The position sum is the DCG both the total and the split read.
    assert (sums.ideal_dcg - sums.dcg, sums.loss) == (9, 3)
    assert (sums.run_lhs == sums.run_losses, sums.dcg == sums.split_rhs) == (True, False)
    assert _kept(group, view) == (("failed",), ("'m': error 9 != loss 3",))


def test_a_corrupted_discount_mass_fails_the_runs_and_the_split_but_not_the_total():
    # The mass of grade 1, which the run k=0 and the split read.
    group, view = _corrupted("discount_mass", 1, 1)
    sums = identity_sums(view)
    # The total reads the position sum and the closed-form ideal, not the masses.
    assert (sums.ideal_dcg - sums.dcg, sums.loss) == (3, 3)
    assert (sums.run_lhs, sums.run_losses) == ((2, 0), (3, 0))
    assert (sums.dcg, sums.split_rhs) == (18, 19)
    assert _kept(group, view) == (("failed",), ("'m'[k=0]: error 2 != loss 3",))


def test_a_corrupted_run_loss_fails_that_run_and_the_total():
    group, view = _corrupted("threshold_losses", 1, 1)  # the loss of the run k=1
    sums = identity_sums(view)
    # The total is the runs' losses weighted by their widths, so it fails with the run.
    assert (sums.ideal_dcg - sums.dcg, sums.loss) == (3, 4)
    assert (sums.run_lhs, sums.run_losses) == ((3, 0), (3, 1))
    assert sums.dcg == sums.split_rhs
    assert _kept(group, view) == (("failed",), ("'m': error 3 != loss 4",))


# The failure line of each changed integer, named by its first unequal pair.
_FIRST_MISMATCH = {
    "dcg": "'m': error 2 != loss 3",
    "ideal_dcg": "'m': error 4 != loss 3",
    "loss": "'m': error 3 != loss 4",
    "run_lhs": "'m'[k=0]: error 4 != loss 3",
    "run_losses": "'m'[k=1]: error 0 != loss 1",
    "split_rhs": "'m'[split]: dcg 18 != sum over thresholds 19",
}


@pytest.mark.parametrize("field, index, failing", [
    ("dcg", None, "m,m[split]"),
    ("ideal_dcg", None, "m"),
    ("loss", None, "m"),
    ("run_lhs", 0, "m[k=0]"),
    ("run_losses", 1, "m[k=1]"),
    ("split_rhs", None, "m[split]"),
])
def test_each_integer_of_the_check_decides_the_status(field, index, failing):
    """No view change fails the top level alone: its two sides differ by the
    width-weighted sum of the runs' differences, whatever the view holds.  So
    each integer is changed in the check's sums instead, one at a time.
    ``failing`` names the parts whose pairs become unequal; the failure line
    names the first of them."""
    group = group_from_ranking([2, 0, 1, 0, 1, 0, 0], query_id="m")
    identity_sums = lindcg.metrics.identity_sums

    def off_by_one(view):
        sums = identity_sums(view)
        value = getattr(sums, field)
        if index is not None:
            value = (*value[:index], value[index] + 1, *value[index + 1:])
        else:
            value += 1
        return sums._replace(**{field: value})

    sums = off_by_one(rank_view(group))
    pairs = {"m": (sums.ideal_dcg - sums.dcg, sums.loss),
             "m[k=0]": (sums.run_lhs[0], sums.run_losses[0]),
             "m[k=1]": (sums.run_lhs[1], sums.run_losses[1]),
             "m[split]": (sums.dcg, sums.split_rhs)}
    assert [part for part, (a, b) in pairs.items() if a != b] == failing.split(",")
    # The report's status and the failure line read the sums alike.
    with mock.patch.object(lindcg.metrics, "identity_sums", off_by_one):
        report = lindcg.report.build_aggregate_report([group])
    assert tuple(r.identity for r in report.per_query) == ("failed",)
    assert report.failures == (_FIRST_MISMATCH[field],)
