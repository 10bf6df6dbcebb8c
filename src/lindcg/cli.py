"""Command-line surface: metrics reports, identity verification, permutation oracle.

Exit codes: 0 on success / all checks passed, 1 when any identity check
failed, 2 for usage or parse errors.
"""

from __future__ import annotations

import itertools
import random
import sys

import click

from .core import QueryGroup
from .equivalence import brute_force_oracle, verify_multipartite_identity
from .errors import LindcgError, TooLargeError
from .io import parse_svmlight, parse_tsv
from .metrics import MAX_CLASSIC_GRADE
from .pairwise import pairwise_loss_fast, threshold_decomposition
from .report import build_aggregate_report, render_csv, render_json, render_text

EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@click.group()
def main() -> None:
    """Ranking metrics and exact identity checks for graded ranking data."""


def _load_groups(input_path: str, fmt: str, scores_path: str | None,
                 num_grades: int | None) -> list[QueryGroup]:
    """Parse the input and group it by query; the parsed columns are freed on return."""
    if fmt == "tsv":
        dataset = parse_tsv(input_path, num_grades=num_grades)
    else:
        dataset = parse_svmlight(input_path, scores=scores_path, num_grades=num_grades)
    # Before any per-query work, so a huge grade costs no more than a small one.
    dataset.check_grade_cap(MAX_CLASSIC_GRADE)
    return dataset.query_groups()


@main.command("metrics")
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Dataset file to evaluate.")
@click.option("--format", "fmt", type=click.Choice(["tsv", "svmlight"]),
              default="tsv", show_default=True, help="Input file format.")
@click.option("--scores", "scores_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="Companion score file (svmlight format only).")
@click.option("--num-grades", type=int, default=None,
              help="Grade-alphabet size L; inferred as max grade + 1 when omitted.")
@click.option("--output", "output_fmt", type=click.Choice(["json", "text", "csv"]),
              default="text", show_default=True, help="Report format.")
def metrics_cmd(input_path: str, fmt: str, scores_path: str | None,
                num_grades: int | None, output_fmt: str) -> None:
    """Compute per-query and aggregate ranking metrics for a dataset."""
    if num_grades is not None and num_grades < 2:
        raise click.UsageError(f"--num-grades must be at least 2, got {num_grades}")
    if scores_path is not None and fmt != "svmlight":
        raise click.UsageError("--scores is only valid with --format svmlight")
    try:
        groups = _load_groups(input_path, fmt, scores_path, num_grades)
    except LindcgError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    report = build_aggregate_report(groups)
    renderer = {"json": render_json, "text": render_text, "csv": render_csv}[output_fmt]
    click.echo(renderer(report), nl=False)


def _random_tie_free_group(rng: random.Random, max_items: int,
                           max_grades: int, index: int) -> QueryGroup:
    size = rng.randint(1, max_items)
    num_grades = rng.randint(2, max_grades)
    grades = [rng.randrange(num_grades) for _ in range(size)]
    scores: list[float] = []
    seen: set[float] = set()
    while len(scores) < size:
        score = rng.random()
        if score not in seen:
            seen.add(score)
            scores.append(score)
    return QueryGroup.build(f"trial-{index}", grades, scores, num_grades)


@main.command("verify")
@click.option("--trials", type=int, default=1000, show_default=True,
              help="Number of random groups to check.")
@click.option("--max-items", type=int, default=100, show_default=True,
              help="Largest random group size.")
@click.option("--max-grades", type=int, default=5, show_default=True,
              help="Largest grade-alphabet size L.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Random seed; fixed seed gives byte-identical output.")
@click.option("--exhaustive-limit", type=int, default=5, show_default=True,
              help="Run every permutation of every grade multiset up to this size.")
def verify_cmd(trials: int, max_items: int, max_grades: int, seed: int,
               exhaustive_limit: int) -> None:
    """Check DCG error == pairwise loss exhaustively and on random groups."""
    if trials < 0:
        raise click.UsageError(f"--trials must be >= 0, got {trials}")
    if max_items < 1:
        raise click.UsageError(f"--max-items must be >= 1, got {max_items}")
    if max_grades < 2:
        raise click.UsageError(f"--max-grades must be >= 2, got {max_grades}")
    if not 0 <= exhaustive_limit <= 8:
        raise click.UsageError(
            f"--exhaustive-limit must be in 0..8, got {exhaustive_limit}"
        )

    multisets = permutations = exhaustive_failures = 0
    for size in range(1, exhaustive_limit + 1):
        for multiset in itertools.combinations_with_replacement(range(max_grades), size):
            multisets += 1
            for record in brute_force_oracle(multiset):
                permutations += 1
                if not record.passed:
                    exhaustive_failures += 1
    click.echo(
        f"exhaustive: multisets={multisets} permutations={permutations}"
        f" failures={exhaustive_failures}"
    )

    rng = random.Random(seed)
    identity_failures = decomposition_failures = 0
    for index in range(trials):
        group = _random_tie_free_group(rng, max_items, max_grades, index)
        record = verify_multipartite_identity(group)
        if not (record.passed and all(d.passed for d in record.details)):
            identity_failures += 1
        decomposition = threshold_decomposition(group)
        if decomposition.total() != pairwise_loss_fast(group).unnormalized:
            decomposition_failures += 1
    click.echo(
        f"random: groups={trials} identity_failures={identity_failures}"
        f" decomposition_failures={decomposition_failures}"
    )

    total = exhaustive_failures + identity_failures + decomposition_failures
    click.echo("result: " + ("PASS" if total == 0 else f"FAIL ({total} failures)"))
    if total:
        sys.exit(EXIT_CHECK_FAILED)


@main.command("oracle")
@click.option("--grades", "grades_spec", required=True,
              help="Comma-separated grade multiset, e.g. '2,1,1,0'.")
def oracle_cmd(grades_spec: str) -> None:
    """Run the exhaustive permutation check for one grade multiset."""
    try:
        grades = tuple(int(part) for part in grades_spec.split(","))
    except ValueError:
        raise click.UsageError(f"--grades must be comma-separated integers, got {grades_spec!r}")
    try:
        records = brute_force_oracle(grades)
    except TooLargeError as exc:
        raise click.UsageError(str(exc))
    except LindcgError as exc:
        raise click.UsageError(str(exc))

    # Identical grade patterns repeat under permutation; tabulate them once.
    tally: dict[str, list] = {}
    for record in records:
        entry = tally.setdefault(record.instance_id, [0, record])
        entry[0] += 1
    width = max(len(pattern) for pattern in tally)
    click.echo(
        f"{'ranking'.ljust(width)}  perms  dcg_error  pair_loss  ok"
    )
    failures = 0
    for pattern in sorted(tally, key=lambda p: tuple(-int(g) for g in p.split(","))):
        count, record = tally[pattern]
        ok = "yes" if record.passed else "NO"
        if not record.passed:
            failures += count
        click.echo(
            f"{pattern.ljust(width)}  {count:5d}  {record.lhs:9d}  {record.rhs:9d}  {ok}"
        )
    click.echo(
        f"permutations={len(records)} distinct={len(tally)} failures={failures}"
    )
    if failures:
        sys.exit(EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
