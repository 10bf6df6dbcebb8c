"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line on the real stderr so a full run
doubles as a checklist, then asserts.  All equalities are exact integer
comparisons; the only tolerances anywhere are the stated wall-clock
budgets.
"""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import ACCEPTANCE_LINES
from helpers import group_from_ranking, ideal, random_group
from lindcg.metrics import bipartite_ideal_dcg, compute_report
from lindcg.oracles import (
    binarize,
    brute_force_oracle,
    build_exchange_sequence,
    dcg_linear,
    exchange_decrements,
    has_score_ties,
    pairwise_loss_naive,
    rank_by_score,
    threshold_decomposition,
)


def _announce(criterion: int, description: str, passed: bool, detail: str = "") -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {description}"
    if detail:
        line += f" ({detail})"
    # Recorded for the terminal-summary checklist; the direct print shows up
    # in captured output when a criterion fails or capture is off.
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stderr__, flush=True)


@pytest.fixture(scope="module")
def random_groups():
    """1000 seeded random groups, |S| <= 200, L in {2..5}, score ties included."""
    rng = random.Random(91)
    return [
        random_group(rng, max_items=200, max_grades=5, allow_ties=True,
                     query_id=f"r{i}")
        for i in range(1000)
    ]


def _timed_metric_bundle(grades_in_rank_order):
    """Compute (ideal, observed, error, loss) for a ranked arrangement, timed."""
    group = group_from_ranking(grades_in_rank_order)
    start = time.perf_counter()
    report = compute_report(group)
    elapsed = time.perf_counter() - start
    values = (report.ideal_dcg_linear, report.dcg_linear,
              report.dcg_error_linear, report.pairwise_loss)
    return values, elapsed


def test_criterion_1_golden_bipartite_group():
    arrangement = [1, 0, 0, 1, 1, 0]
    oracle = {ranking: (error, loss)
              for ranking, _, error, loss in brute_force_oracle((1, 1, 1, 0, 0, 0))}
    witness = oracle[(1, 0, 0, 1, 1, 0)]

    _timed_metric_bundle(arrangement)  # warm-up
    values, elapsed = _timed_metric_bundle(arrangement)

    ok = witness == (4, 4) and values == (12, 8, 4, 4) and elapsed < 0.001
    _announce(
        1,
        "golden bipartite arrangement gives ideal 12, observed 8, error 4, loss 4",
        ok,
        f"{elapsed * 1000:.3f} ms",
    )
    assert witness == (4, 4)
    assert values == (12, 8, 4, 4)
    assert elapsed < 0.001


def test_criterion_2_golden_multipartite_group():
    arrangement = [2, 0, 1, 0, 1, 0, 0]
    oracle = {ranking: (error, loss)
              for ranking, _, error, loss in brute_force_oracle((2, 1, 1, 0, 0, 0, 0))}
    witness = oracle[(2, 0, 1, 0, 1, 0, 0)]

    _timed_metric_bundle(arrangement)  # warm-up
    values, elapsed = _timed_metric_bundle(arrangement)

    ok = witness == (3, 3) and values == (21, 18, 3, 3) and elapsed < 0.001
    _announce(
        2,
        "golden three-grade arrangement gives ideal 21, observed 18, error 3, loss 3",
        ok,
        f"{elapsed * 1000:.3f} ms",
    )
    assert witness == (3, 3)
    assert values == (21, 18, 3, 3)
    assert elapsed < 0.001


def test_criterion_3_exhaustive_identity_to_size_seven():
    start = time.perf_counter()
    permutations = failures = 0
    for size in range(1, 8):
        for multiset in itertools.combinations_with_replacement(range(4), size):
            for _, count, error, loss in brute_force_oracle(multiset):
                permutations += count
                if error != loss:
                    failures += count
    elapsed = time.perf_counter() - start

    ok = failures == 0 and permutations == 672_984 and elapsed < 60.0
    _announce(
        3,
        "DCG error equals weighted loss on every permutation of every grade "
        "multiset (size <= 7, 4 grades)",
        ok,
        f"{permutations} permutations, {failures} failures, {elapsed:.1f} s",
    )
    assert failures == 0
    assert permutations == 672_984
    assert elapsed < 60.0


def test_criterion_4_threshold_decomposition(random_groups):
    loss_failures = dcg_failures = 0
    for group in random_groups:
        report = compute_report(group)
        if sum(threshold_decomposition(group)) != report.pairwise_loss:
            loss_failures += 1
        layered = sum(
            dcg_linear(rank_by_score(binarize(group, k)))
            for k in range(max(group.grades))
        )
        observed = dcg_linear(rank_by_score(group))
        if not observed == report.dcg_linear == layered:
            dcg_failures += 1

    ok = loss_failures == 0 and dcg_failures == 0
    _announce(
        4,
        "per-threshold losses sum to the weighted loss and binarized DCGs sum "
        "to the DCG on 1000 random groups",
        ok,
        f"loss failures {loss_failures}, dcg failures {dcg_failures}",
    )
    assert loss_failures == 0
    assert dcg_failures == 0


def test_criterion_5_exchange_construction_exhaustive():
    checked = failures = 0
    for m in range(7):
        for n in range(7):
            if m + n == 0:
                continue
            for ones_at in itertools.combinations(range(m + n), m):
                top = set(ones_at)
                pattern = tuple(1 if i in top else 0 for i in range(m + n))
                ex = build_exchange_sequence(pattern)
                decrements = exchange_decrements(ex)
                error = bipartite_ideal_dcg(m, n) - dcg_linear(pattern)
                good = (
                    len(ex.pairs) <= min(m, n)
                    and ex.apply() == pattern
                    and all(d >= 1 for d in decrements)
                    and sum(decrements) == error
                )
                checked += 1
                if not good:
                    failures += 1

    ok = failures == 0
    _announce(
        5,
        "exchange sequences replay every bipartite arrangement (m, n <= 6) with "
        "unit-positive decrements summing to the DCG error",
        ok,
        f"{checked} arrangements, {failures} failures",
    )
    assert failures == 0


def test_criterion_6_fast_counter_equals_naive(random_groups):
    reports = map(compute_report, random_groups)
    failures = sum(
        1 for g, r in zip(random_groups, reports)
        if (r.pairwise_loss, r.normalizer_z) != pairwise_loss_naive(g)
    )
    tied = sum(1 for g in random_groups if has_score_ties(g))

    ok = failures == 0 and tied > 0
    _announce(
        6,
        "fast pairwise counter equals the naive counter on 1000 random groups",
        ok,
        f"{tied} groups carry score ties, {failures} mismatches",
    )
    assert failures == 0
    assert tied > 0


def test_criterion_7_bipartite_ideal_closed_form():
    failures = 0
    for m in range(51):
        for n in range(51):
            if m + n == 0:
                continue
            group = group_from_ranking([1] * m + [0] * n)
            if compute_report(group).ideal_dcg_linear != bipartite_ideal_dcg(m, n):
                failures += 1

    ok = failures == 0
    _announce(
        7,
        "ideal linear DCG equals m*n + m(m-1)/2 for all m, n <= 50",
        ok,
        f"{failures} failures",
    )
    assert failures == 0


def test_criterion_8_ndcg_identity(random_groups):
    failures = 0
    for group in random_groups:
        report = compute_report(group)
        best = report.ideal_dcg_linear
        observed = dcg_linear(rank_by_score(group))
        # ndcg = 1 - error/ideal cross-multiplied by the ideal value.
        if best != dcg_linear(ideal(group.grades)):
            failures += 1
        elif best - report.dcg_error_linear != observed:
            failures += 1
        elif best and report.ndcg_linear != observed / best:
            failures += 1

    ok = failures == 0
    _announce(
        8,
        "NDCG equals one minus the error ratio, checked as exact integers on "
        "the criterion-4 groups",
        ok,
        f"{failures} failures",
    )
    assert failures == 0


def test_criterion_9_cli_verify_determinism():
    cmd = [
        sys.executable, "-m", "lindcg.cli", "verify",
        "--seed", "42", "--trials", "500",
        "--max-items", "100", "--max-grades", "5",
    ]
    # The child does not see pytest's pythonpath setting; give it the same src.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)

    clean = (
        first.returncode == 0
        and second.returncode == 0
        and b"failures=0" in first.stdout
        and b"result: PASS" in first.stdout
    )
    identical = first.stdout == second.stdout and first.stderr == second.stderr
    _announce(
        9,
        "verify --seed 42 --trials 500 --max-items 100 --max-grades 5 exits 0 "
        "with byte-identical output twice",
        clean and identical,
        f"exit codes {first.returncode}/{second.returncode}",
    )
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert b"identity_failures=0 decomposition_failures=0" in first.stdout
    assert b"result: PASS" in first.stdout
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
