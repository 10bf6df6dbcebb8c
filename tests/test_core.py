import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import ideal, make_group
from lindcg.core import QueryGroup, rank_view
from lindcg.errors import EmptyGroupError, InvalidGradeError, InvalidScoreError
from lindcg.metrics import compute_report
from lindcg.oracles import dcg_linear, has_score_ties, rank_by_score


def test_rank_by_score_orders_by_descending_score():
    group = make_group([1, 0, 1], [0.9, 0.1, 0.5])
    assert rank_by_score(group) == rank_view(group).grades == (1, 1, 0)


def test_rank_by_score_single_item():
    group = make_group([1], [0.42])
    assert rank_by_score(group) == rank_view(group).grades == (1,)


def test_rank_by_score_ties_break_by_input_index():
    group = make_group([0, 1], [0.5, 0.5])
    assert rank_by_score(group) == rank_view(group).grades == (0, 1)


def test_rank_by_score_is_deterministic():
    group = make_group([2, 0, 2, 1], [1.0, 1.0, 0.5, 1.0])
    assert rank_by_score(group) == rank_by_score(group) == (2, 0, 1, 2)
    assert rank_view(group) == rank_view(group)


def test_ideal_sequence_sorts_descending():
    # The view path's ideal DCG is the DCG of the non-increasing arrangement.
    for grades, expected in [
        ([1, 0, 0, 1, 1, 0], (1, 1, 1, 0, 0, 0)),
        ([2, 1, 1, 0, 0, 0, 0], (2, 1, 1, 0, 0, 0, 0)),
        ([1, 1, 1], (1, 1, 1)),
    ]:
        assert ideal(grades) == expected
        group = make_group(grades, range(len(grades)))
        assert compute_report(group).ideal_dcg_linear == dcg_linear(expected)


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=30),
    st.randoms(use_true_random=False),
)
def test_orderings_preserve_the_grade_multiset(grades, rng):
    scores = [rng.uniform(-5, 5) for _ in grades]
    group = make_group(grades, scores)
    assert sorted(rank_by_score(group)) == sorted(grades)
    assert sorted(rank_view(group).grades) == sorted(grades)


def test_ideal_sequence_maximizes_linear_dcg_exhaustively():
    # Every multiset over {0,1,2} up to size 6, every arrangement.
    for size in range(1, 7):
        for multiset in itertools.combinations_with_replacement(range(3), size):
            best = compute_report(make_group(multiset, range(size))).ideal_dcg_linear
            assert best == dcg_linear(ideal(multiset))
            for perm in itertools.permutations(multiset):
                assert dcg_linear(perm) <= best


def test_ideal_sequence_maximizes_linear_dcg_at_size_seven():
    rng = random.Random(11)
    for _ in range(15):
        multiset = tuple(rng.randrange(4) for _ in range(7))
        best = compute_report(make_group(multiset, range(7))).ideal_dcg_linear
        assert best == dcg_linear(ideal(multiset))
        for perm in itertools.permutations(multiset):
            assert dcg_linear(perm) <= best


def test_empty_group_is_rejected():
    with pytest.raises(EmptyGroupError):
        QueryGroup("q", (), ())


def test_a_group_is_compared_by_value_and_holds_tuples():
    group = QueryGroup("q", [1, 0], iter([0.5, 0.2]))
    assert (group.grades, group.scores, len(group)) == ((1, 0), (0.5, 0.2), 2)
    assert group == QueryGroup._from_checked("q", [1, 0], [0.5, 0.2])
    assert group != QueryGroup("r", (1, 0), (0.5, 0.2))
    assert group != ("q", (1, 0), (0.5, 0.2))
    assert repr(group) == "QueryGroup(query_id='q', grades=(1, 0), scores=(0.5, 0.2))"
    with pytest.raises(TypeError):
        hash(group)


def test_grade_and_score_columns_must_have_equal_length():
    with pytest.raises(ValueError):
        QueryGroup("q", (1, 0), (0.5,))
    with pytest.raises(ValueError):
        make_group([1], [0.5, 0.2])


def test_non_finite_scores_are_rejected():
    with pytest.raises(InvalidScoreError):
        make_group([1], [math.nan])
    with pytest.raises(InvalidScoreError):
        make_group([1], [math.inf])


def test_bad_grades_are_rejected():
    with pytest.raises(InvalidGradeError):
        make_group([-1], [0.5])
    with pytest.raises(InvalidGradeError, match="got 1.5"):
        make_group([1, 1.5], [0.5, 0.2])  # not an integer
    with pytest.raises(InvalidGradeError, match="got -3"):
        make_group([0, -3, -5], [0.5, 0.2, 0.1])  # the first offender is named


@pytest.mark.parametrize("digits", [100, 5000])
def test_a_bad_grade_message_writes_forty_characters_of_a_huge_grade(digits):
    # str() refuses an int of more than 4,300 digits.
    with pytest.raises(InvalidGradeError) as raised:
        QueryGroup("q", (-10 ** (digits - 1),), (0.5,))
    assert str(raised.value) == f"grade must be a non-negative integer, got -1{'0' * 38}..."


def test_grade_counts_and_ties():
    group = make_group([2, 0, 2, 1], [0.1, 0.2, 0.2, 0.4])
    view = rank_view(group)
    assert (view.levels, view.counts) == ((0, 1, 2), (1, 1, 2))
    assert has_score_ties(group) and view.has_score_ties
    untied = make_group([0, 1], [0.1, 0.2])
    assert not has_score_ties(untied) and not rank_view(untied).has_score_ties
