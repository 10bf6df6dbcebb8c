"""Command-line surface: metrics reports, identity verification, permutation oracle.

``metrics`` runs the ranked-view path on a dataset.  It reads every
input, a path or a pipe, once into its query groups, and then evaluates
and writes them a query at a time.  ``verify``
and ``oracle`` confirm the identity with the independent test oracles of
``lindcg.oracles``: the permutation oracle and the threshold
decomposition.  ``verify`` also checks its random groups by the status
that ``metrics`` reports for each query.

``main(argv)`` parses the command line with the standard library's
``argparse`` and returns the exit code.  No option takes a prefix of its
name.  A message about any value quotes at most 40 characters of it.  A
usage fault that a subcommand finds after parsing goes through that
subcommand's parser, as the parser's own faults do: a usage line and one
message line on stderr.

Every subcommand writes its stdout through ``_echo_pieces``.  Every
report format writes query ids as they were read: JSON escapes their
control characters, and text and CSV keep them as they are, on a pipe and
on a terminal alike, so a terminal interprets an escape sequence in an id.

Exit codes: 0 on success / all checks passed, 1 when any identity check
failed, 2 for usage or parse errors and for an input that cannot be
opened or read.  ``metrics`` checks a path only by reading it: the
reader's ``OSError`` becomes one stderr line, such as ``error: cannot read
'run.txt': No such file or directory``, and nothing on stdout.  A
``metrics`` run that exits 1 writes one line to stderr after its report.
It names the first unequal pair of each failed query's check, for the
first 20 queries by id, and counts the rest:
``identity check failed: 'm': error 9 != loss 3; 'n'[k=0..2]: error 4 != loss 5; and 9980 more``.
A passing run writes nothing to stderr.  A reader that closes stdout
early, as ``| head`` does, changes no exit code.
"""

from __future__ import annotations

import argparse
import codecs
import io
import itertools
import math
import os
import random
import re
import sys
from typing import Iterable

from .core import QueryGroup, rank_view
from .errors import LindcgError, _listed
from .io import _KEPT_FAULTS, _grouped, _parse_grade, _quoted, _rows, _shortened
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


class _UsageError(Exception):
    """A usage fault found once the arguments are parsed: the parser of the
    subcommand that raises it reports it and exits 2."""


def _integer(value: str) -> int:
    """An integer option's value.  The message for one ``int`` refuses, such as
    a number of more than the 4,300 digits it reads, quotes at most 40
    characters of it."""
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{_quoted(value)} is not a valid integer") from None


def _is_ascii(encoding: str | None) -> bool:
    try:
        return codecs.lookup(encoding or "ascii").name == "ascii"
    except LookupError:
        return False


def _echo_pieces(pieces: Iterable[str]) -> None:
    """Write pieces of output to stdout as they are, and flush it once.

    Every subcommand writes its stdout here, through ``sys.stdout`` itself,
    whose own buffer batches the pieces, whatever its error handler.  Only
    an ASCII stdout, or one that names no encoding, is repaired: the pieces
    then go to its binary buffer as UTF-8, with "replace" for what UTF-8
    cannot encode, so a query id outside ASCII is written, not refused.
    Query ids are written as they were read: JSON escapes their control
    characters, and text and CSV reports keep them, escape sequences
    included, on a pipe and on a terminal alike.  Once the reader has
    closed stdout, the rest goes to devnull.
    """
    stream = sys.stdout
    if _is_ascii(getattr(stream, "encoding", None)) and hasattr(stream, "buffer"):
        stream = io.TextIOWrapper(stream.buffer, "utf-8", "replace")
    try:
        stream.writelines(pieces)
        stream.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does, which is no failed
        # check.  Python flushes stdout again at exit, so point it at devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    finally:
        if stream is not sys.stdout:
            stream.detach()  # leaves sys.stdout's buffer open


def metrics_cmd(input_path: str, fmt: str, scores_path: str | None,
                num_grades: int | None, output_fmt: str) -> int:
    """Compute per-query and aggregate ranking metrics for a dataset."""
    if num_grades is not None and num_grades < 2:
        raise _UsageError(f"--num-grades must be at least 2, got {_shortened(num_grades)}")
    if scores_path is not None and fmt != "svmlight":
        raise _UsageError("--scores is only valid with --format svmlight")
    try:
        report = build_aggregate_report(_grouped(_rows(input_path, fmt, scores_path, num_grades)))
    except LindcgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # the reader's open or read, which names the path
        print(f"error: cannot read {_quoted(exc.filename)}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    _echo_pieces(WRITERS[output_fmt](report))
    failures = report.failures
    if not failures:
        return 0
    print("identity check failed: " + _listed(failures[:_KEPT_FAULTS], len(failures)),
          file=sys.stderr)
    return EXIT_CHECK_FAILED


def _random_tie_free_group(rng: random.Random, max_items: int,
                           max_grades: int, index: int) -> QueryGroup:
    size = rng.randint(1, max_items)
    alphabet = rng.randint(2, max_grades)  # drawn, so a seed keeps giving the same groups
    grades = [rng.randrange(alphabet) for _ in range(size)]
    scores: dict[float, None] = {}  # distinct, in the order drawn
    while len(scores) < size:
        scores[rng.random()] = None
    return QueryGroup(f"trial-{index}", grades, scores)


def verify_cmd(trials: int, max_items: int, max_grades: int, seed: int,
               exhaustive_limit: int) -> int:
    """Check DCG error == pairwise loss exhaustively and on random groups."""
    # Imported here, as in oracle_cmd, so that `metrics` never loads the oracles.
    from .oracles import ORACLE_SIZE_CAP, brute_force_oracle, threshold_run_losses

    if trials < 0:
        raise _UsageError(f"--trials must be >= 0, got {_shortened(trials)}")
    if max_items < 1:
        raise _UsageError(f"--max-items must be >= 1, got {_shortened(max_items)}")
    if max_grades < 2:
        raise _UsageError(f"--max-grades must be >= 2, got {_shortened(max_grades)}")
    if not 0 <= exhaustive_limit <= ORACLE_SIZE_CAP:
        raise _UsageError(f"--exhaustive-limit must be in 0..{ORACLE_SIZE_CAP},"
                          f" got {_shortened(exhaustive_limit)}")
    # The distinct rankings of the multisets of s grades below L are the L**s
    # sequences of s such grades.
    planned = sum(max_grades**size for size in range(1, exhaustive_limit + 1))
    if planned > MAX_EXHAUSTIVE_RANKINGS:
        raise _UsageError(
            f"--max-grades {_shortened(max_grades)} with --exhaustive-limit {exhaustive_limit}"
            f" makes {_shortened(planned)} rankings, more than {MAX_EXHAUSTIVE_RANKINGS:,}"
            " (about 20 s); lower --max-grades or --exhaustive-limit"
        )
    largest = max_items * min(max_items, max_grades)
    if trials and largest > MAX_RANDOM_ITEM_GRADES:
        raise _UsageError(
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
    return EXIT_CHECK_FAILED if total else 0


def oracle_cmd(grades_spec: str) -> int:
    """Run the exhaustive permutation check for one grade multiset."""
    from .oracles import brute_force_oracle

    grades = []
    for part in grades_spec.split(","):
        # The file readers' rule: ASCII digits only, no "_" separators, not negative.
        grade, reason = _parse_grade(part.strip(), None, capped=False)
        if reason:
            raise _UsageError(f"--grades {_quoted(grades_spec)}: {reason}")
        grades.append(grade)
    try:
        rankings = brute_force_oracle(grades)
    except LindcgError as exc:
        raise _UsageError(str(exc)) from None

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
    return EXIT_CHECK_FAILED if failures else 0


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose messages quote at most 40 characters of a
    value, which argparse's own echo whole.  Each subcommand's parser is one too."""

    def _check_value(self, action, value):
        # argparse checks every choice here, the subcommand's name included.
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {_quoted(value)} (choose from {choices})")

    def parse_args(self, args=None, namespace=None):
        options, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {_listed([_quoted(extras[0])], len(extras))}")
        return options

    def error(self, message):
        # --help=V or -hV: raised deep in argparse, with V's repr.
        ignored = re.fullmatch(r"(argument [^:]+: ignored explicit argument )(.*)", message, re.S)
        if ignored:
            import ast
            message = ignored[1] + _quoted(ast.literal_eval(ignored[2]))
        super().error(message)


def _subcommand(commands, command, name: str) -> argparse.ArgumentParser:
    """The parser of subcommand ``name``, which runs ``command``."""
    doc = command.__doc__
    parser = commands.add_parser(name, allow_abbrev=False, help=doc, description=doc)
    parser.set_defaults(command=command, parser=parser)
    return parser


def _parser() -> argparse.ArgumentParser:
    """The parser of ``lindcg``.  No option takes a prefix of its name."""
    parser = _Parser(
        prog="lindcg", allow_abbrev=False,
        description="Ranking metrics and exact identity checks for graded ranking data.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    metrics = _subcommand(commands, metrics_cmd, "metrics")
    metrics.add_argument("--input", dest="input_path", required=True, metavar="PATH",
                         help="Dataset file to evaluate.")
    metrics.add_argument("--format", dest="fmt", choices=("tsv", "svmlight"), default="tsv",
                         help="Input file format (default: %(default)s).")
    metrics.add_argument("--scores", dest="scores_path", metavar="PATH",
                         help="Companion score file (svmlight format only).")
    metrics.add_argument("--num-grades", type=_integer, metavar="N",
                         help="Reject any grade at or above this grade-alphabet size.")
    metrics.add_argument("--output", dest="output_fmt", choices=tuple(WRITERS), default="text",
                         help="Report format (default: %(default)s).")

    verify = _subcommand(commands, verify_cmd, "verify")
    for option, default, text in (
            ("--trials", 1000, "Number of random groups to check"),
            ("--max-items", 100, "Largest random group size"),
            ("--max-grades", 5, "Largest grade-alphabet size L"),
            ("--seed", 0, "Random seed; fixed seed gives byte-identical output"),
            ("--exhaustive-limit", 5,
             "Run every permutation of every grade multiset up to this size")):
        verify.add_argument(option, type=_integer, default=default, metavar="N",
                            help=f"{text} (default: %(default)s).")

    oracle = _subcommand(commands, oracle_cmd, "oracle")
    oracle.add_argument("--grades", dest="grades_spec", required=True, metavar="GRADES",
                        help="Comma-separated grade multiset, e.g. '2,1,1,0'.")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run ``lindcg`` with ``argv``, by default ``sys.argv[1:]``, and return its exit code.

    A usage error, and ``--help``, exit through argparse: 2 and 0.
    """
    options = vars(_parser().parse_args(argv))
    command, parser = options.pop("command"), options.pop("parser")
    try:
        return command(**options)
    except _UsageError as exc:
        parser.error(str(exc))


def _exit_with_main(args: list[str], standalone_mode: bool = True) -> None:
    sys.exit(main(args))


# The benchmark's in-process entry point: perfbench/run.py calls
# ``main.main(args, standalone_mode=False)``, until it calls ``main(argv)``.
main.main = _exit_with_main


if __name__ == "__main__":
    sys.exit(main())
