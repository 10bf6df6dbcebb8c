import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import dcg_error, group_from_ranking, ideal, make_group, random_group
from lindcg.core import rank_view
from lindcg.errors import GradeTooLargeError
from lindcg.metrics import bipartite_ideal_dcg, compute_report
from lindcg.oracles import dcg_classic, dcg_linear, rank_by_score


def test_dcg_linear_golden_values():
    assert dcg_linear((1, 1, 1, 0, 0, 0)) == 12  # 5 + 4 + 3
    assert dcg_linear((1, 0, 0, 1, 1, 0)) == 8  # 5 + 2 + 1
    assert dcg_linear((0, 0, 0)) == 0
    assert compute_report(group_from_ranking([1, 0, 0, 1, 1, 0])).dcg_linear == 8


def test_last_position_contributes_nothing():
    assert dcg_linear((7,)) == 0
    assert dcg_linear((0, 3)) == 0
    assert compute_report(group_from_ranking([0, 3])).dcg_linear == 0


def test_ideal_dcg_linear_golden_values():
    def ideal_dcg_linear(group):
        return compute_report(group).ideal_dcg_linear

    assert ideal_dcg_linear(group_from_ranking([1, 0, 0, 1, 1, 0])) == 12  # 3*3 + 3*2/2
    assert ideal_dcg_linear(group_from_ranking([2, 0, 1, 0, 1, 0, 0])) == 21  # 2*6 + 5 + 4
    assert ideal_dcg_linear(make_group([0, 0, 0, 0], range(4))) == 0


def test_bipartite_closed_form_matches_sort_path():
    for m in range(13):
        for n in range(13):
            if m + n == 0:
                continue
            group = group_from_ranking([1] * m + [0] * n)
            assert compute_report(group).ideal_dcg_linear == bipartite_ideal_dcg(m, n)
            assert dcg_linear(ideal(group.grades)) == bipartite_ideal_dcg(m, n)


def test_ndcg_linear_golden_values():
    def ndcg_linear(group):
        return compute_report(group).ndcg_linear

    assert ndcg_linear(group_from_ranking([1, 0, 0, 1, 1, 0])) == 8 / 12
    assert ndcg_linear(group_from_ranking([1, 1, 0, 0])) == 1.0
    assert ndcg_linear(make_group([0, 0, 0], [0.3, 0.1, 0.2])) == 1.0


def test_dcg_classic_golden_values():
    assert dcg_classic((1,)) == 1.0
    assert dcg_classic((0, 0)) == 0.0
    assert dcg_classic((2, 1, 0)) == 3 / 1 + 1 / math.log2(3) + 0
    assert compute_report(group_from_ranking([2, 1, 0])).dcg_classic == dcg_classic((2, 1, 0))


def test_dcg_classic_grade_cap():
    assert dcg_classic((30,)) == 2**30 - 1
    assert compute_report(make_group([30], [0.5])).dcg_classic == 2**30 - 1
    with pytest.raises(GradeTooLargeError):
        compute_report(make_group([31], [0.5]))


@pytest.mark.parametrize("digits", [100, 5000])
def test_the_cap_message_writes_forty_digits_of_a_huge_grade(digits):
    # str() refuses an int of more than 4,300 digits.
    with pytest.raises(GradeTooLargeError) as raised:
        compute_report(make_group([10 ** (digits - 1)], [0.5]))
    assert str(raised.value) == f"grade 1{'0' * 39}... exceeds the classical-gain cap of 30"


def test_compute_report_takes_no_view():
    """A view built by hand, whose grades nothing checks, cannot reach the report:
    ``compute_report`` ranks the group itself."""
    group = make_group([29, 30, 0], [3.0, 2.0, 1.0])
    with pytest.raises(TypeError):
        compute_report(group, rank_view(group)._replace(grades=(31, 30, 0)))


def test_ndcg_classic_golden_values():
    def ndcg_classic(group):
        return compute_report(group).ndcg_classic

    assert ndcg_classic(group_from_ranking([2, 1, 0])) == 1.0
    assert ndcg_classic(make_group([0, 0], [0.1, 0.9])) == 1.0
    observed = 1 / 1 + 3 / math.log2(3)
    best = 3 / 1 + 1 / math.log2(3)
    assert ndcg_classic(group_from_ranking([1, 2, 0])) == observed / best


def test_dcg_error_linear_golden_values():
    for grades, expected in [
        ([1, 0, 0, 1, 1, 0], 4),  # 12 - 8
        ([2, 0, 1, 0, 1, 0, 0], 3),  # 21 - 18
        ([2, 1, 0, 0], 0),
    ]:
        group = group_from_ranking(grades)
        assert compute_report(group).dcg_error_linear == dcg_error(group) == expected


def test_single_item_group_is_linear_degenerate_only():
    report = compute_report(make_group([5], [0.9]))
    assert report.ideal_dcg_linear == 0
    assert report.ndcg_linear == 1.0
    assert report.degenerate_linear
    assert not report.degenerate_classic
    assert report.ndcg_classic == 1.0


def test_equality_with_ideal_holds_iff_non_increasing():
    cases = [(3, 6), (4, 4)]  # (alphabet size, max multiset size)
    for alphabet, max_size in cases:
        for size in range(1, max_size + 1):
            for multiset in itertools.combinations_with_replacement(range(alphabet), size):
                best = compute_report(make_group(multiset, range(size))).ideal_dcg_linear
                for perm in itertools.permutations(multiset):
                    value = dcg_linear(perm)
                    non_increasing = all(a >= b for a, b in zip(perm, perm[1:]))
                    assert (value == best) == non_increasing


def test_adjacent_swap_changes_dcg_by_grade_gap():
    rng = random.Random(11)
    for _ in range(100):
        grades = [rng.randrange(4) for _ in range(rng.randint(2, 12))]
        i = rng.randrange(len(grades) - 1)
        swapped = list(grades)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        delta = dcg_linear(grades) - dcg_linear(swapped)
        assert delta == grades[i] - grades[i + 1]
        view_delta = (compute_report(group_from_ranking(grades)).dcg_linear
                      - compute_report(group_from_ranking(swapped)).dcg_linear)
        assert view_delta == delta


@given(st.integers(min_value=0, max_value=10_000))
def test_ndcg_values_stay_in_unit_interval(seed):
    group = random_group(random.Random(seed), max_items=30, allow_ties=True)
    report = compute_report(group)
    assert 0.0 <= report.ndcg_linear <= 1.0
    assert 0.0 <= report.ndcg_classic <= 1.0


def test_ndcg_identity_by_cross_multiplication():
    rng = random.Random(5)
    for _ in range(200):
        group = random_group(rng, max_items=60, allow_ties=True)
        report = compute_report(group)
        observed = dcg_linear(rank_by_score(group))
        best = dcg_linear(ideal(group.grades))
        assert (report.dcg_linear, report.ideal_dcg_linear) == (observed, best)
        # ndcg == 1 - error/ideal as exact rationals.
        assert observed == best - report.dcg_error_linear
        if best:
            assert report.ndcg_linear == observed / best


def test_compute_report_is_internally_consistent():
    group = group_from_ranking([1, 0, 0, 1, 1, 0], query_id="golden")
    report = compute_report(group)
    assert report.query_id == "golden"
    assert report.num_items == 6
    assert report.dcg_error_linear == report.ideal_dcg_linear - report.dcg_linear
    assert report.dcg_error_linear >= 0
    assert report.pairwise_loss == 4
    assert report.normalizer_z == 9
    assert report.normalized_pairwise_loss == 4 / 9
    assert report.ideal_dcg_classic == dcg_classic(ideal(group.grades))
    assert not (report.degenerate_linear or report.degenerate_classic)
