"""Command-line surface: metrics reports, identity verification, permutation oracle.

``metrics`` runs the ranked-view path on a dataset.  It reads every
input, a path or a pipe, once into its query groups, and then evaluates
and writes them a query at a time.  ``verify``
and ``oracle`` confirm the identity with the independent test oracles of
``lindcg.oracles``: the permutation oracle and the threshold
decomposition.  ``verify`` also checks its random groups by the status
that ``metrics`` reports for each query.

Every subcommand writes its stdout through ``_echo_pieces``.  Every
report format writes query ids as they were read: JSON escapes their
control characters, and text and CSV keep them as they are, on a pipe and
on a terminal alike, so a terminal interprets an escape sequence in an id.

Exit codes: 0 on success / all checks passed, 1 when any identity check
failed, 2 for usage or parse errors.  A reader that closes stdout early,
as ``| head`` does, changes no exit code.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import sys
from typing import Iterable

import click

from .core import QueryGroup, rank_view
from .errors import LindcgError
from .io import _grouped, _parse_grade, _quoted, _rows, _shortened
from .metrics import identity_status, identity_sums
from .report import WRITERS, build_aggregate_report

EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# Largest exhaustive pass `verify` starts, in distinct rankings, each of which
# it checks once.  The slowest pass it admits, --exhaustive-limit 1 with
# --max-grades 5,000,000, took 17 to 19 s on a 2-vCPU Xeon host, and the
# largest admitted pass of each other limit 13 to 18 s: about 20 s.
MAX_EXHAUSTIVE_RANKINGS = 5_000_000
# Largest random group `verify` draws, in its items times the distinct grades
# they can hold, min(--max-items, --max-grades): the sweep of `rank_view` and
# the threshold decomposition cost O(items x distinct grades).  The slowest
# group it admits, 4,000,000 items over grades 0 and 1, took 20 to 24 s on a
# 2-vCPU Xeon host and peaked at 430 MB; 2,666,666 items over three grades
# took 16 s: about 20 s.
MAX_RANDOM_ITEM_GRADES = 8_000_000


class _Integer(click.types.IntParamType):
    """click's integer type, whose message quotes at most 40 characters of a value."""

    def convert(self, value, param, ctx):
        try:
            return int(value)
        except ValueError:
            self.fail(f"{_quoted(value)} is not a valid integer.", param, ctx)


@click.group()
def main() -> None:
    """Ranking metrics and exact identity checks for graded ranking data."""


def _echo_pieces(pieces: Iterable[str]) -> None:
    """Write pieces of output to stdout as they are, and flush it once.

    Every subcommand writes its stdout here, through the text stream that
    click resolves, whose own buffer batches the pieces.  That stream is
    ``sys.stdout`` unless its encoding is ASCII; click's default ``errors``
    of "strict" would also wrap a stdout that has another error handler,
    as under the C locale, and flush that wrapper at every line.  Query ids
    are written as they were read: JSON escapes their control characters,
    and text and CSV reports keep them, escape sequences included, on a
    pipe and on a terminal alike.  Once the reader has closed stdout, the
    rest goes to devnull.
    """
    stream = click.get_text_stream("stdout", errors=None)
    try:
        stream.writelines(pieces)
        stream.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does, which is no failed
        # check.  Python flushes stdout again at exit, so point it at devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


@main.command("metrics")
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Dataset file to evaluate.")
@click.option("--format", "fmt", type=click.Choice(["tsv", "svmlight"]),
              default="tsv", show_default=True, help="Input file format.")
@click.option("--scores", "scores_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="Companion score file (svmlight format only).")
@click.option("--num-grades", type=_Integer(), default=None,
              help="Reject any grade at or above this grade-alphabet size.")
@click.option("--output", "output_fmt", type=click.Choice(tuple(WRITERS)),
              default="text", show_default=True, help="Report format.")
def metrics_cmd(input_path: str, fmt: str, scores_path: str | None,
                num_grades: int | None, output_fmt: str) -> None:
    """Compute per-query and aggregate ranking metrics for a dataset."""
    if num_grades is not None and num_grades < 2:
        raise click.UsageError(f"--num-grades must be at least 2, got {_shortened(num_grades)}")
    if scores_path is not None and fmt != "svmlight":
        raise click.UsageError("--scores is only valid with --format svmlight")
    try:
        report = build_aggregate_report(_grouped(_rows(input_path, fmt, scores_path, num_grades)))
    except LindcgError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    _echo_pieces(WRITERS[output_fmt](report))
    if report.verification_summary.failed:
        sys.exit(EXIT_CHECK_FAILED)


def _random_tie_free_group(rng: random.Random, max_items: int,
                           max_grades: int, index: int) -> QueryGroup:
    size = rng.randint(1, max_items)
    alphabet = rng.randint(2, max_grades)  # drawn, so a seed keeps giving the same groups
    grades = [rng.randrange(alphabet) for _ in range(size)]
    scores: dict[float, None] = {}  # distinct, in the order drawn
    while len(scores) < size:
        scores[rng.random()] = None
    return QueryGroup(f"trial-{index}", grades, scores)


@main.command("verify")
@click.option("--trials", type=_Integer(), default=1000, show_default=True,
              help="Number of random groups to check.")
@click.option("--max-items", type=_Integer(), default=100, show_default=True,
              help="Largest random group size.")
@click.option("--max-grades", type=_Integer(), default=5, show_default=True,
              help="Largest grade-alphabet size L.")
@click.option("--seed", type=_Integer(), default=0, show_default=True,
              help="Random seed; fixed seed gives byte-identical output.")
@click.option("--exhaustive-limit", type=_Integer(), default=5, show_default=True,
              help="Run every permutation of every grade multiset up to this size.")
def verify_cmd(trials: int, max_items: int, max_grades: int, seed: int,
               exhaustive_limit: int) -> None:
    """Check DCG error == pairwise loss exhaustively and on random groups."""
    # Imported here, as in oracle_cmd, so that `metrics` never loads the oracles.
    from .oracles import ORACLE_SIZE_CAP, brute_force_oracle, threshold_run_losses

    if trials < 0:
        raise click.UsageError(f"--trials must be >= 0, got {_shortened(trials)}")
    if max_items < 1:
        raise click.UsageError(f"--max-items must be >= 1, got {_shortened(max_items)}")
    if max_grades < 2:
        raise click.UsageError(f"--max-grades must be >= 2, got {_shortened(max_grades)}")
    if not 0 <= exhaustive_limit <= ORACLE_SIZE_CAP:
        raise click.UsageError(f"--exhaustive-limit must be in 0..{ORACLE_SIZE_CAP},"
                               f" got {_shortened(exhaustive_limit)}")
    # The distinct rankings of the multisets of s grades below L are the L**s
    # sequences of s such grades.
    planned = sum(max_grades**size for size in range(1, exhaustive_limit + 1))
    if planned > MAX_EXHAUSTIVE_RANKINGS:
        raise click.UsageError(
            f"--max-grades {_shortened(max_grades)} with --exhaustive-limit {exhaustive_limit}"
            f" makes {_shortened(planned)} rankings, more than {MAX_EXHAUSTIVE_RANKINGS:,}"
            " (about 20 s); lower --max-grades or --exhaustive-limit"
        )
    largest = max_items * min(max_items, max_grades)
    if trials and largest > MAX_RANDOM_ITEM_GRADES:
        raise click.UsageError(
            f"--max-items {_shortened(max_items)} with --max-grades {_shortened(max_grades)}"
            f" makes groups of up to {_shortened(largest)} item-grades, more than"
            f" {MAX_RANDOM_ITEM_GRADES:,} (about 20 s); lower --max-items or --max-grades"
        )

    multisets = permutations = exhaustive_failures = 0
    # combinations_with_replacement copies its pool into a tuple first.  The
    # budget keeps --max-grades small above size 1, so only size 1 runs lazily.
    grades = range(max_grades)
    for size in range(1, exhaustive_limit + 1):
        for multiset in (zip(grades) if size == 1
                         else itertools.combinations_with_replacement(grades, size)):
            multisets += 1
            for _, count, dcg_error, loss in brute_force_oracle(multiset):
                permutations += count
                if dcg_error != loss:
                    exhaustive_failures += count
    _echo_pieces([
        f"exhaustive: multisets={multisets} permutations={permutations}"
        f" failures={exhaustive_failures}\n"
    ])

    rng = random.Random(seed)
    identity_failures = decomposition_failures = 0
    for index in range(trials):
        group = _random_tie_free_group(rng, max_items, max_grades, index)
        view = rank_view(group)
        sums = identity_sums(view)
        # The status `metrics` reports, so a fault in it cannot pass here.
        if identity_status(view, sums) != "passed":
            identity_failures += 1
        # Summing by run keeps the cost off the grade values, which reach --max-grades.
        if sum(width * loss for width, loss in threshold_run_losses(group)) != sums.loss:
            decomposition_failures += 1
    _echo_pieces([
        f"random: groups={trials} identity_failures={identity_failures}"
        f" decomposition_failures={decomposition_failures}\n"
    ])

    total = exhaustive_failures + identity_failures + decomposition_failures
    _echo_pieces(["result: " + ("PASS" if total == 0 else f"FAIL ({total} failures)") + "\n"])
    if total:
        sys.exit(EXIT_CHECK_FAILED)


@main.command("oracle")
@click.option("--grades", "grades_spec", required=True,
              help="Comma-separated grade multiset, e.g. '2,1,1,0'.")
def oracle_cmd(grades_spec: str) -> None:
    """Run the exhaustive permutation check for one grade multiset."""
    from .oracles import brute_force_oracle

    grades = []
    for part in grades_spec.split(","):
        # The file readers' rule: ASCII digits only, no "_" separators, not negative.
        grade, reason = _parse_grade(part.strip(), None)
        if reason:
            raise click.UsageError(f"--grades {_quoted(grades_spec)}: {reason}")
        grades.append(grade)
    try:
        rankings = brute_force_oracle(grades)
    except LindcgError as exc:
        raise click.UsageError(str(exc))

    width = len(",".join(map(str, grades)))  # that of every ranking
    failures = 0

    def lines() -> Iterable[str]:
        nonlocal failures
        yield f"{'ranking'.ljust(width)}  perms  dcg_error  pair_loss  ok\n"
        for distinct, (ranking, count, dcg_error, loss) in enumerate(rankings, 1):
            ok = "yes" if dcg_error == loss else "NO"
            failures += 0 if dcg_error == loss else count
            yield f"{','.join(map(str, ranking))}  {count:5d}  {dcg_error:9d}  {loss:9d}  {ok}\n"
        yield (f"permutations={math.factorial(len(grades))} distinct={distinct}"
               f" failures={failures}\n")

    pieces = lines()
    _echo_pieces(pieces)
    for _ in pieces:  # the reader closed stdout early: finish the count of failures
        pass
    if failures:
        sys.exit(EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
