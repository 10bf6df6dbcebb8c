import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import make_group
from lindcg.core import (
    QueryGroup,
    RankedSequence,
    ideal_sequence,
    rank_by_score,
)
from lindcg.errors import EmptyGroupError, InvalidGradeError, InvalidScoreError
from lindcg.metrics import dcg_linear


def test_rank_by_score_orders_by_descending_score():
    group = make_group([1, 0, 1], [0.9, 0.1, 0.5])
    assert rank_by_score(group).grades == (1, 1, 0)


def test_rank_by_score_single_item():
    group = make_group([1], [0.42])
    assert rank_by_score(group).grades == (1,)


def test_rank_by_score_ties_break_by_input_index():
    group = make_group([0, 1], [0.5, 0.5])
    assert rank_by_score(group).grades == (0, 1)


def test_rank_by_score_is_deterministic():
    group = make_group([2, 0, 2, 1], [1.0, 1.0, 0.5, 1.0])
    assert rank_by_score(group) == rank_by_score(group)


def test_ideal_sequence_sorts_descending():
    assert ideal_sequence(make_group([1, 0, 0, 1, 1, 0], range(6))).grades == (1, 1, 1, 0, 0, 0)
    assert ideal_sequence(make_group([2, 1, 1, 0, 0, 0, 0], range(7))).grades == (2, 1, 1, 0, 0, 0, 0)
    assert ideal_sequence(make_group([1, 1, 1], range(3))).grades == (1, 1, 1)


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=30),
    st.randoms(use_true_random=False),
)
def test_orderings_preserve_the_grade_multiset(grades, rng):
    scores = [rng.uniform(-5, 5) for _ in grades]
    group = make_group(grades, scores)
    assert sorted(rank_by_score(group).grades) == sorted(grades)
    assert sorted(ideal_sequence(group).grades) == sorted(grades)


def test_ideal_sequence_maximizes_linear_dcg_exhaustively():
    # Every multiset over {0,1,2} up to size 6, every arrangement.
    for size in range(1, 7):
        for multiset in itertools.combinations_with_replacement(range(3), size):
            ideal = dcg_linear(ideal_sequence(make_group(multiset, range(size))))
            for perm in itertools.permutations(multiset):
                assert dcg_linear(RankedSequence(perm)) <= ideal


def test_ideal_sequence_maximizes_linear_dcg_at_size_seven():
    rng = random.Random(11)
    for _ in range(15):
        multiset = tuple(rng.randrange(4) for _ in range(7))
        ideal = dcg_linear(ideal_sequence(make_group(multiset, range(7))))
        for perm in itertools.permutations(multiset):
            assert dcg_linear(RankedSequence(perm)) <= ideal


def test_empty_group_is_rejected():
    with pytest.raises(EmptyGroupError):
        QueryGroup("q", (), (), 2)


def test_grade_and_score_columns_must_have_equal_length():
    with pytest.raises(ValueError):
        QueryGroup("q", (1, 0), (0.5,), 2)
    with pytest.raises(ValueError):
        make_group([1], [0.5, 0.2])


def test_empty_sequence_is_rejected():
    with pytest.raises(EmptyGroupError):
        RankedSequence(())


def test_non_finite_scores_are_rejected():
    with pytest.raises(InvalidScoreError):
        make_group([1], [math.nan])
    with pytest.raises(InvalidScoreError):
        make_group([1], [math.inf])


def test_bad_grades_are_rejected():
    with pytest.raises(InvalidGradeError):
        make_group([-1], [0.5])
    with pytest.raises(InvalidGradeError):
        make_group([2], [0.5], num_grades=2)  # grade outside alphabet
    with pytest.raises(InvalidGradeError, match="got 1.5"):
        make_group([1, 1.5], [0.5, 0.2], num_grades=3)  # not an integer
    with pytest.raises(InvalidGradeError, match="grade 3 outside"):
        make_group([0, 3, 5], [0.5, 0.2, 0.1], num_grades=3)  # the first offender is named
    with pytest.raises(InvalidGradeError):
        make_group([0], [0.5], num_grades=1)  # alphabet too small


def test_grade_counts_and_ties():
    group = make_group([2, 0, 2, 1], [0.1, 0.2, 0.2, 0.4])
    assert group.grade_counts() == (1, 1, 2)
    assert group.has_score_ties()
    assert not make_group([0, 1], [0.1, 0.2]).has_score_ties()
