import itertools
import random
import sys
import tracemalloc

import pytest

from helpers import dcg_error, group_from_ranking, make_group, random_group, view_integers
from lindcg.core import rank_view
from lindcg.errors import (
    EmptyGroupError,
    InvalidGradeError,
    NonBipartiteError,
    TooLargeError,
)
from lindcg.metrics import compute_report, identity_status, identity_sums
from lindcg.oracles import (
    ORACLE_SIZE_CAP,
    ExchangeSequence,
    binarize,
    brute_force_oracle,
    build_exchange_sequence,
    dcg_linear,
    exchange_decrements,
    pairwise_loss_naive,
    rank_by_score,
)


def test_exchange_sequence_for_golden_arrangement():
    ex = build_exchange_sequence([1, 0, 0, 1, 1, 0])
    assert ex.pairs == ((2, 1), (3, 2))
    assert (ex.m, ex.n) == (3, 3)
    assert exchange_decrements(ex) == [2, 2]
    assert ex.apply() == (1, 0, 0, 1, 1, 0)


def test_exchange_sequence_for_ideal_arrangement_is_empty():
    ex = build_exchange_sequence([1, 1, 0, 0])
    assert ex.pairs == ()
    assert exchange_decrements(ex) == []
    assert ex.apply() == (1, 1, 0, 0)


def test_exchange_sequence_for_fully_reversed_arrangement():
    ex = build_exchange_sequence([0, 0, 1, 1])
    assert ex.pairs == ((1, 1), (2, 2))
    assert sum(exchange_decrements(ex)) == 4
    assert ex.apply() == (0, 0, 1, 1)


def test_single_swap_decrement_is_one():
    ex = build_exchange_sequence([0, 1])
    assert ex.pairs == ((1, 1),)
    assert exchange_decrements(ex) == [1]


def test_exchange_builder_rejects_nonbinary_grades():
    with pytest.raises(NonBipartiteError):
        build_exchange_sequence([2, 0])


def test_exchange_sequence_validates_its_pairs():
    with pytest.raises(ValueError):
        ExchangeSequence(pairs=((1, 1), (2, 2)), m=1, n=2)  # more swaps than min(m, n)
    with pytest.raises(ValueError):
        ExchangeSequence(pairs=((2, 1), (2, 2)), m=3, n=3)  # i not strictly increasing
    with pytest.raises(ValueError):
        ExchangeSequence(pairs=((1, 2), (2, 1)), m=3, n=3)  # j decreases
    with pytest.raises(ValueError):
        ExchangeSequence(pairs=((4, 1),), m=3, n=3)  # i beyond the top block


def test_exchange_replay_reproduces_every_bipartite_arrangement():
    for m in range(5):
        for n in range(5):
            if m + n == 0:
                continue
            base = [1] * m + [0] * n
            for perm in set(itertools.permutations(base)):
                ex = build_exchange_sequence(perm)
                assert ex.apply() == perm
                assert sum(exchange_decrements(ex)) == compute_report(
                    group_from_ranking(list(perm))
                ).dcg_error_linear
                assert all(d >= 1 for d in exchange_decrements(ex))


def _checked(group):
    """The group's check: its status and its integers as ``view_integers`` lays them out."""
    view = rank_view(group)
    return identity_status(view, identity_sums(view)), view_integers(view)


def test_bipartite_identity_on_golden_arrangement():
    group = group_from_ranking([1, 0, 0, 1, 1, 0], query_id="g")
    status, (per_k, split, total) = _checked(group)
    assert status == "passed"
    assert total == (4, 4)
    assert per_k == ((4, 4),)
    assert split == (8, 8)
    # One integer off fails the check.
    view = rank_view(group)
    sums = identity_sums(view)
    assert identity_status(view, sums._replace(loss=sums.loss + 1)) == "failed"


def test_bipartite_identity_on_ideal_and_reversed_arrangements():
    assert _checked(group_from_ranking([1, 1, 0, 0])) == ("passed", (((0, 0),), (5, 5), (0, 0)))
    status, (_, _, total) = _checked(group_from_ranking([0, 0, 0, 1, 1]))
    assert status == "passed"
    assert total == (6, 6)  # 2*3 cross pairs, each inverted


def test_score_ties_break_the_identity_but_only_flag_the_record():
    group = make_group([0, 1], [0.5, 0.5])
    status, (_, _, total) = _checked(group)
    assert status == "tie_flagged"
    assert total == (1, 0)
    assert compute_report(group).identity == "tie_flagged"


def test_multipartite_identity_on_golden_arrangement():
    status, (per_k, split, total) = _checked(
        group_from_ranking([2, 0, 1, 0, 1, 0, 0], query_id="m"))
    assert status == "passed"
    assert total == (3, 3)
    assert per_k == ((3, 3), (0, 0))  # k=0 and k=1
    assert split == (18, 18)


def test_multipartite_identity_on_random_tie_free_groups():
    rng = random.Random(1234)
    for _ in range(150):
        group = random_group(rng, max_items=50, allow_ties=False)
        status, (per_k, split, total) = _checked(group)
        assert status == "passed", f"{group.query_id}: {total}"
        assert all(a == b for a, b in (*per_k, split, total))


def test_multipartite_details_stay_consistent_under_ties():
    rng = random.Random(4321)
    for _ in range(150):
        group = random_group(rng, max_items=40, allow_ties=True)
        _, (per_k, split, total) = _checked(group)
        # The per-threshold losses always sum to the weighted loss, and the
        # per-threshold DCG errors always sum to the full DCG error, with or
        # without ties; the split never depends on scores at all.
        assert sum(loss for _, loss in per_k) == total[1]
        assert sum(error for error, _ in per_k) == total[0]
        assert split[0] == split[1]


def test_oracle_on_smallest_binary_multiset():
    assert list(brute_force_oracle((1, 0))) == [((1, 0), 1, 0, 0), ((0, 1), 1, 1, 1)]


def test_oracle_counts_duplicate_permutations():
    results = list(brute_force_oracle((1, 1, 0, 0)))
    rankings = [ranking for ranking, *_ in results]
    # Each distinct grade pattern once, in descending order.
    assert rankings == sorted(set(itertools.permutations((1, 1, 0, 0))), reverse=True)
    assert len(rankings) == 6
    # Each stands for 2! * 2! literal index permutations, 4! in all.
    assert [count for _, count, _, _ in results] == [4] * 6
    assert sum(count for _, count, _, _ in results) == 24
    assert all(error == loss for _, _, error, loss in results)


def test_oracle_on_three_grade_multiset():
    results = {ranking: (error, loss) for ranking, _, error, loss in brute_force_oracle((2, 1, 0))}
    assert len(results) == 6
    assert all(error == loss for error, loss in results.values())
    assert results[0, 1, 2] == (4, 4)  # ideal 5, observed 1; pairs weigh 1+1+2


def test_oracle_rejects_oversized_multisets():
    with pytest.raises(TooLargeError):
        brute_force_oracle((0,) * (ORACLE_SIZE_CAP + 1))


def test_oracle_rejects_bad_multisets():
    with pytest.raises(EmptyGroupError):
        brute_force_oracle(())
    with pytest.raises(InvalidGradeError):
        brute_force_oracle((1, -1))
    with pytest.raises(InvalidGradeError):
        brute_force_oracle((1.5, 0))


@pytest.mark.parametrize("digits", [100, 5000])
def test_the_oracle_message_writes_forty_characters_of_a_huge_grade(digits):
    # str() refuses an int of more than 4,300 digits.
    with pytest.raises(InvalidGradeError) as raised:
        brute_force_oracle((-10 ** (digits - 1),))
    assert str(raised.value) == f"grade must be a non-negative integer, got -1{'0' * 38}..."


def test_the_exchange_message_writes_forty_digits_of_a_huge_grade():
    with pytest.raises(NonBipartiteError) as raised:
        build_exchange_sequence([10**4999, 0])  # str() refuses more than 4,300 digits
    assert str(raised.value) == f"grade 1{'0' * 39}... in a bipartite sequence"


def _traced_peak(grades):
    """The peak memory traced while every ranking of grades is checked."""
    tracemalloc.start()
    try:
        for _ in brute_force_oracle(grades):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_memory_does_not_follow_the_digits_of_the_grades():
    """8! rankings of eight distinct 400-digit grades hold no more memory than
    those of eight 1-digit grades, but for a few ints of the grades' size."""
    one_digit = _traced_peak(tuple(range(8)))
    grades = tuple(10**399 * (g + 1) + g for g in range(8))
    many_digits = _traced_peak(grades)
    # Both peaks are a few KB; the sums of one ranking are as long as its grades.
    assert many_digits - one_digit <= 8 * sys.getsizeof(grades[0])


def test_oracle_agrees_with_the_library_computations():
    results = {ranking: (error, loss)
               for ranking, _, error, loss in brute_force_oracle((2, 1, 1, 0))}
    for perm in set(itertools.permutations((2, 1, 1, 0))):
        group = group_from_ranking(list(perm))
        expected_lhs = compute_report(group).dcg_error_linear
        assert expected_lhs == dcg_error(group)
        expected_rhs, _ = pairwise_loss_naive(group)
        assert results[perm] == (expected_lhs, expected_rhs)


def test_dcg_splits_into_binarized_layers():
    for grades in [(2, 0, 1, 0, 1, 0, 0), (3, 1, 2, 0), (1, 1, 1), (4, 0)]:
        group = group_from_ranking(list(grades))
        total = sum(
            dcg_linear(rank_by_score(binarize(group, k))) for k in range(max(grades))
        )
        assert dcg_linear(grades) == total
        assert compute_report(group).dcg_linear == total
