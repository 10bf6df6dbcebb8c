import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import group_from_ranking, make_group, random_group
import lindcg.pairwise
from lindcg.core import QueryGroup
from lindcg.errors import ThresholdOutOfRangeError
from lindcg.pairwise import (
    binarize,
    binarize_sequence,
    pairwise_loss_fast,
    pairwise_loss_naive,
    threshold_decomposition,
)


def test_naive_loss_golden_values():
    assert pairwise_loss_naive(group_from_ranking([1, 0, 0, 1, 1, 0])).unnormalized == 4
    assert pairwise_loss_naive(group_from_ranking([2, 0, 1, 0, 1, 0, 0])).unnormalized == 3
    assert pairwise_loss_naive(group_from_ranking([2, 1, 0])).unnormalized == 0


def test_normalizer_counts_cross_grade_pairs():
    assert pairwise_loss_naive(group_from_ranking([1, 0, 0, 1, 1, 0])).normalizer_z == 9
    assert pairwise_loss_naive(group_from_ranking([2, 0, 1, 0, 1, 0, 0])).normalizer_z == 14
    assert pairwise_loss_naive(group_from_ranking([3, 0])).normalizer_z == 1


def test_normalized_loss_can_exceed_one():
    value = pairwise_loss_fast(group_from_ranking([0, 2]))
    assert value.unnormalized == 2
    assert value.normalizer_z == 1
    assert value.normalized == 2.0


def test_single_grade_group_is_degenerate():
    value = pairwise_loss_fast(make_group([1, 1, 1], [0.5, 0.2, 0.9]))
    assert value.unnormalized == 0
    assert value.normalizer_z == 0
    assert value.normalized == 0.0
    assert value.degenerate


def test_score_ties_never_count_as_misorderings():
    group = make_group([2, 1, 0, 2], [0.5, 0.5, 0.5, 0.5])
    assert pairwise_loss_naive(group).unnormalized == 0
    assert pairwise_loss_fast(group).unnormalized == 0


def test_fast_matches_naive_on_random_groups():
    rng = random.Random(99)
    for trial in range(300):
        group = random_group(rng, max_items=40, allow_ties=trial % 2 == 1)
        naive = pairwise_loss_naive(group)
        fast = pairwise_loss_fast(group)
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
        num_grades=5,
    )
    assert pairwise_loss_fast(group) == pairwise_loss_naive(group)


def test_fast_handles_large_groups():
    rng = random.Random(7)
    grades = [rng.randrange(5) for _ in range(10_000)]
    scores = [rng.random() for _ in range(10_000)]
    big = make_group(grades, scores)
    value = pairwise_loss_fast(big)
    assert value.unnormalized > 0
    sub = make_group(grades[:500], scores[:500])
    assert pairwise_loss_fast(sub) == pairwise_loss_naive(sub)


def test_monotone_score_transforms_preserve_loss():
    rng = random.Random(21)
    for _ in range(50):
        group = random_group(rng, max_items=30, allow_ties=True)
        base = pairwise_loss_fast(group).unnormalized
        shifted = QueryGroup(
            query_id=group.query_id,
            grades=group.grades,
            scores=tuple(3.0 * s + 7.0 for s in group.scores),
            num_grades=group.num_grades,
        )
        assert pairwise_loss_fast(shifted).unnormalized == base


def test_loss_bounded_by_weight_cap_times_normalizer():
    rng = random.Random(33)
    for _ in range(100):
        group = random_group(rng, max_items=30, allow_ties=True)
        value = pairwise_loss_fast(group)
        assert value.unnormalized <= (group.num_grades - 1) * value.normalizer_z


def test_reversed_bipartite_ranking_inverts_every_pair():
    for m in range(1, 7):
        for n in range(1, 7):
            group = group_from_ranking([0] * n + [1] * m)
            assert pairwise_loss_fast(group).unnormalized == m * n


def test_binarize_thresholds_a_three_grade_group():
    group = group_from_ranking([2, 1, 0])
    low = binarize(group, 0)
    assert low.grades == (1, 1, 0)
    assert low.num_grades == 2
    high = binarize(group, 1)
    assert high.grades == (1, 0, 0)
    assert high.scores == group.scores


def test_binarize_rejects_out_of_range_thresholds():
    group = group_from_ranking([2, 1, 0])
    with pytest.raises(ThresholdOutOfRangeError):
        binarize(group, -1)
    with pytest.raises(ThresholdOutOfRangeError):
        binarize(group, 2)


def test_binarize_sequence_matches_group_binarization():
    from lindcg.core import sequence_from_grades

    seq = sequence_from_grades([2, 0, 1, 0, 1, 0, 0])
    assert binarize_sequence(seq, 0).grades == (1, 0, 1, 0, 1, 0, 0)
    assert binarize_sequence(seq, 1).grades == (1, 0, 0, 0, 0, 0, 0)


def test_threshold_decomposition_golden_values():
    vector = threshold_decomposition(group_from_ranking([2, 0, 1, 0, 1, 0, 0]))
    assert vector.per_threshold == (3, 0)
    assert vector.total() == 3


def test_threshold_decomposition_of_bipartite_group_is_the_loss_itself():
    group = group_from_ranking([1, 0, 0, 1, 1, 0])
    vector = threshold_decomposition(group)
    assert vector.per_threshold == (4,)
    assert vector.total() == pairwise_loss_fast(group).unnormalized


def test_threshold_decomposition_sums_to_weighted_loss():
    rng = random.Random(55)
    for _ in range(200):
        group = random_group(rng, max_items=40, allow_ties=True)
        assert threshold_decomposition(group).total() == pairwise_loss_fast(group).unnormalized


@st.composite
def _gapped_groups(draw):
    num_grades = draw(st.integers(2, 40))
    grades = draw(st.lists(st.integers(0, num_grades - 1), min_size=1, max_size=8))
    scores = draw(st.lists(st.integers(-2, 2), min_size=len(grades), max_size=len(grades)))
    return make_group(grades, scores, num_grades=num_grades)


@settings(max_examples=80, deadline=None)
@given(_gapped_groups())
@example(make_group([0, 199_999, 7, 150_000, 7], [0.3, 0.1, 0.9, 0.5, 0.2],
                    num_grades=200_000))
def test_threshold_decomposition_matches_a_rebuild_at_every_threshold(group):
    rebuilt = tuple(
        pairwise_loss_naive(binarize(group, k)).unnormalized
        for k in range(group.num_grades - 1)
    )
    calls = []

    def counting_binarize(group, k):
        calls.append(k)
        return binarize(group, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lindcg.pairwise, "binarize", counting_binarize)
        vector = threshold_decomposition(group)
    assert vector.per_threshold == rebuilt
    assert len(calls) <= len(set(group.grades)) + 1


def test_perfect_ranking_decomposes_to_zeros():
    vector = threshold_decomposition(group_from_ranking([3, 2, 1, 0], num_grades=4))
    assert vector.per_threshold == (0, 0, 0)
