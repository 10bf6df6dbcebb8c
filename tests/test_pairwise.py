import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import group_from_ranking, make_group, random_group
import lindcg.oracles
from lindcg.core import QueryGroup
from lindcg.errors import ThresholdOutOfRangeError
from lindcg.metrics import compute_report
from lindcg.oracles import (
    binarize,
    pairwise_loss_naive,
    rank_by_score,
    threshold_decomposition,
    threshold_run_losses,
)


def loss_and_z(group):
    """The weighted loss and its normalizer Z, as ``compute_report`` reports them."""
    report = compute_report(group)
    return report.pairwise_loss, report.normalizer_z


def test_naive_loss_golden_values():
    assert pairwise_loss_naive(group_from_ranking([1, 0, 0, 1, 1, 0]))[0] == 4
    assert pairwise_loss_naive(group_from_ranking([2, 0, 1, 0, 1, 0, 0]))[0] == 3
    assert pairwise_loss_naive(group_from_ranking([2, 1, 0]))[0] == 0


def test_normalizer_counts_cross_grade_pairs():
    assert pairwise_loss_naive(group_from_ranking([1, 0, 0, 1, 1, 0]))[1] == 9
    assert pairwise_loss_naive(group_from_ranking([2, 0, 1, 0, 1, 0, 0]))[1] == 14
    assert pairwise_loss_naive(group_from_ranking([3, 0]))[1] == 1


def test_normalized_loss_can_exceed_one():
    report = compute_report(group_from_ranking([0, 2]))
    assert report.pairwise_loss == 2
    assert report.normalizer_z == 1
    assert report.normalized_pairwise_loss == 2.0


def test_single_grade_group_is_degenerate():
    report = compute_report(make_group([1, 1, 1], [0.5, 0.2, 0.9]))
    assert report.pairwise_loss == 0
    assert report.normalizer_z == 0
    assert report.normalized_pairwise_loss == 0.0


def test_score_ties_never_count_as_misorderings():
    group = make_group([2, 1, 0, 2], [0.5, 0.5, 0.5, 0.5])
    assert pairwise_loss_naive(group)[0] == 0
    assert compute_report(group).pairwise_loss == 0


def test_fast_matches_naive_on_random_groups():
    rng = random.Random(99)
    for trial in range(300):
        group = random_group(rng, max_items=40, allow_ties=trial % 2 == 1)
        naive = pairwise_loss_naive(group)
        fast = loss_and_z(group)
        assert fast == naive, f"trial {trial}: {fast} != {naive}"


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(-3, 3)),
        min_size=1,
        max_size=25,
    )
)
def test_fast_matches_naive_with_heavy_integer_score_ties(pairs):
    group = QueryGroup(
        query_id="q",
        grades=tuple(g for g, _ in pairs),
        scores=tuple(float(s) for _, s in pairs),
    )
    assert loss_and_z(group) == pairwise_loss_naive(group)


def test_fast_handles_large_groups():
    rng = random.Random(7)
    grades = [rng.randrange(5) for _ in range(10_000)]
    scores = [rng.random() for _ in range(10_000)]
    big = make_group(grades, scores)
    assert compute_report(big).pairwise_loss > 0
    sub = make_group(grades[:500], scores[:500])
    assert loss_and_z(sub) == pairwise_loss_naive(sub)


def test_monotone_score_transforms_preserve_loss():
    rng = random.Random(21)
    for _ in range(50):
        group = random_group(rng, max_items=30, allow_ties=True)
        base = compute_report(group).pairwise_loss
        shifted = QueryGroup(
            query_id=group.query_id,
            grades=group.grades,
            scores=tuple(3.0 * s + 7.0 for s in group.scores),
        )
        assert compute_report(shifted).pairwise_loss == base


def test_loss_bounded_by_weight_cap_times_normalizer():
    rng = random.Random(33)
    for _ in range(100):
        group = random_group(rng, max_items=30, allow_ties=True)
        loss, z = loss_and_z(group)
        assert loss <= max(group.grades) * z


def test_reversed_bipartite_ranking_inverts_every_pair():
    for m in range(1, 7):
        for n in range(1, 7):
            group = group_from_ranking([0] * n + [1] * m)
            assert compute_report(group).pairwise_loss == m * n


def test_binarize_thresholds_a_three_grade_group():
    group = group_from_ranking([2, 1, 0])
    low = binarize(group, 0)
    assert low.grades == (1, 1, 0)
    high = binarize(group, 1)
    assert high.grades == (1, 0, 0)
    assert high.scores == group.scores


def test_binarize_rejects_out_of_range_thresholds():
    group = group_from_ranking([2, 1, 0])
    with pytest.raises(ThresholdOutOfRangeError):
        binarize(group, -1)
    with pytest.raises(ThresholdOutOfRangeError):
        binarize(group, 2)
    with pytest.raises(ThresholdOutOfRangeError):
        binarize(group_from_ranking([0, 0]), 0)  # no item above any threshold


@pytest.mark.parametrize("digits", [100, 5000])
@pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
def test_binarize_writes_at_most_forty_characters_of_each_number(digits, sign):
    """``str`` refuses an int of more than 4,300 digits, so the message
    writes the first 40 characters of the threshold and of the top grade."""
    top = 10 ** (digits - 1)
    group = QueryGroup("q", (top, 0), (0.5, 0.2))
    with pytest.raises(ThresholdOutOfRangeError) as raised:
        binarize(group, -top if sign else top)
    first = "1" + "0" * 39  # the first 40 characters of the top grade
    assert str(raised.value) == (f"threshold {(sign + first)[:40]}... outside"
                                 f" 0 <= k < {first}..., the top grade")


def test_binarize_sequence_matches_group_binarization():
    group = make_group([0, 2, 0, 1, 0, 1, 0], [0.4, 0.9, 0.1, 0.5, 0.6, 0.3, 0.2])
    seq = rank_by_score(group)
    assert seq == (2, 0, 1, 0, 1, 0, 0)
    assert rank_by_score(binarize(group, 0)) == (1, 0, 1, 0, 1, 0, 0)
    assert rank_by_score(binarize(group, 1)) == (1, 0, 0, 0, 0, 0, 0)
    for k in (0, 1):
        assert rank_by_score(binarize(group, k)) == tuple(1 if g > k else 0 for g in seq)


def test_threshold_decomposition_golden_values():
    vector = threshold_decomposition(group_from_ranking([2, 0, 1, 0, 1, 0, 0]))
    assert vector == (3, 0)
    assert sum(vector) == 3


def test_threshold_decomposition_of_bipartite_group_is_the_loss_itself():
    group = group_from_ranking([1, 0, 0, 1, 1, 0])
    vector = threshold_decomposition(group)
    assert vector == (4,)
    assert sum(vector) == compute_report(group).pairwise_loss


def test_threshold_decomposition_sums_to_weighted_loss():
    rng = random.Random(55)
    for _ in range(200):
        group = random_group(rng, max_items=40, allow_ties=True)
        loss = compute_report(group).pairwise_loss
        assert sum(threshold_decomposition(group)) == loss
        assert sum(width * run_loss for width, run_loss in threshold_run_losses(group)) == loss


@st.composite
def _gapped_groups(draw):
    top = draw(st.integers(1, 39))
    grades = draw(st.lists(st.integers(0, top), min_size=1, max_size=8))
    scores = draw(st.lists(st.integers(-2, 2), min_size=len(grades), max_size=len(grades)))
    return make_group(grades, scores)


@settings(max_examples=80, deadline=None)
@given(_gapped_groups())
@example(make_group([0, 199_999, 7, 150_000, 7], [0.3, 0.1, 0.9, 0.5, 0.2]))
def test_threshold_decomposition_matches_a_rebuild_at_every_threshold(group):
    rebuilt = tuple(
        pairwise_loss_naive(binarize(group, k))[0]
        for k in range(max(group.grades))
    )
    calls = []

    def counting_binarize(group, k):
        calls.append(k)
        return binarize(group, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lindcg.oracles, "binarize", counting_binarize)
        vector = threshold_decomposition(group)
    assert vector == rebuilt
    assert len(calls) <= len(set(group.grades)) + 1


def test_a_run_of_thresholds_is_one_entry_whatever_its_width():
    group = make_group([0, 10**12], [0.9, 0.1])
    assert threshold_run_losses(group) == ((10**12, 1),)


def test_perfect_ranking_decomposes_to_zeros():
    vector = threshold_decomposition(group_from_ranking([3, 2, 1, 0]))
    assert vector == (0, 0, 0)
