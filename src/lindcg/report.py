"""Per-query and aggregate reporting with deterministic rendering.

Output is byte-stable for a given input: queries are sorted by query id,
integers are emitted exactly, and every float is formatted to 6
significant digits.  JSON is the machine-readable format; text is an
aligned-column view; CSV carries the per-query rows only.  A query's
columns are declared once, as the fields of the ``MetricReport``
NamedTuple: ``MetricReport._fields`` names the keys of each query's JSON
object and the CSV header, in order.  ``VerificationSummary`` and
``AggregateReport`` are NamedTuples too.

The aggregate keeps each query's ``MetricReport``, its status included,
and one line naming the first unequal pair of each failed check.  Each
format has one writer, a generator that yields its text in pieces: the
head, one piece per query and the tail.  ``WRITERS`` maps each format's
name to its writer, ``json_pieces``, ``text_pieces`` or ``csv_pieces``;
``lindcg metrics`` offers those names and writes the pieces as they come,
and ``"".join(json_pieces(report))`` is the whole report as one string.

The JSON report is exactly ``json.dumps(obj, indent=2)`` of the report's
object plus a newline, but only its head goes through ``json.dumps``.
Each query's object fills one ``%`` template, built from
``MetricReport._fields`` in that layout: strings through
``json.encoder.encode_basestring_ascii``, floats rounded by ``_sig6``,
flags as ``true`` or ``false``, ints as they are.  That is about twice as
fast as the C encoder on a dict per query, which it replaced.
"""

from __future__ import annotations

import json
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NamedTuple

from .core import QueryGroup
from .metrics import MetricReport, _first_mismatch, compute_report


class VerificationSummary(NamedTuple):
    """Counts of identity checks: tie-afflicted instances are tallied apart."""

    passed: int
    failed: int
    tie_flagged: int


class AggregateReport(NamedTuple):
    """Per-query reports plus dataset-level aggregates.

    ``failures`` holds one line for each query whose ``identity`` is
    ``failed``, in the order of ``per_query``: its quoted id, the first
    unequal part of its check and that part's two integers, such as
    ``'q'[k=0..2]: error 4 != loss 5``.  Means are arithmetic over
    all queries, degenerate ones included (they contribute their
    conventional 1.0).
    """

    per_query: tuple[MetricReport, ...]
    failures: tuple[str, ...]
    mean_ndcg_linear: float
    mean_ndcg_classic: float
    total_pairwise_loss: int
    verification_summary: VerificationSummary


def build_aggregate_report(groups: Iterable[QueryGroup]) -> AggregateReport:
    """Evaluate metrics and identity checks for every group, sorted by query id.

    Each group is evaluated as it arrives and ranked once, for its report,
    status included; only a failed check ranks it again, to name its first
    unequal pair.  Only the per-query results are kept, so a generator of
    groups, such as ``io._grouped``'s, is held one group at a time, and an
    input error that it raises while it is consumed propagates from here.
    The results are sorted by query id at the end, stably, so groups of one
    id keep their order.
    """
    per_query = []
    failures = []
    for group in groups:
        per_query.append(report := compute_report(group))
        if report.identity == "failed":
            failures.append((group.query_id, _first_mismatch(group)))
    per_query.sort(key=attrgetter("query_id"))
    failures.sort(key=itemgetter(0))
    identities = [r.identity for r in per_query]

    n = len(per_query)
    return AggregateReport(
        per_query=tuple(per_query),
        failures=tuple(line for _, line in failures),
        mean_ndcg_linear=sum(r.ndcg_linear for r in per_query) / n if n else 0.0,
        mean_ndcg_classic=sum(r.ndcg_classic for r in per_query) / n if n else 0.0,
        total_pairwise_loss=sum(r.pairwise_loss for r in per_query),
        verification_summary=VerificationSummary(
            *map(identities.count, ("passed", "failed", "tie_flagged"))),
    )


def _sig6(value: float) -> float:
    # float() of the 6-significant-digit text round-trips to that exact
    # text under repr, which keeps JSON output byte-stable.
    return float(f"{value:.6g}")


_FLAGS = ("false", "true")


def _cells(r: MetricReport, quote) -> tuple:
    """The report's fields as JSON and CSV write them: the strings through
    ``quote``, floats rounded by ``_sig6`` and flags as ``true`` or ``false``."""
    return (quote(r[0]), *r[1:4], *map(_sig6, r[4:8]), *r[8:11], _sig6(r[11]),
            _FLAGS[r[12]], _FLAGS[r[13]], quote(r[14]))


# A query's object as indent=2 lays it out at depth 3.  %s of a float is its repr.
_QUERY_JSON = "    {\n%s\n    }" % ",\n".join(f'      "{name}": %s' for name in MetricReport._fields)


def json_pieces(report: AggregateReport) -> Iterator[str]:
    """The JSON report: the head, one piece per query, then the tail."""
    head = json.dumps({
        "num_queries": len(report.per_query),
        "mean_ndcg_linear": _sig6(report.mean_ndcg_linear),
        "mean_ndcg_classic": _sig6(report.mean_ndcg_classic),
        "total_pairwise_loss": report.total_pairwise_loss,
        "verification": report.verification_summary._asdict(),
        "queries": [],
    }, indent=2)
    if not report.per_query:
        yield head + "\n"
        return
    yield head.removesuffix("[]\n}") + "[\n"
    separator = ""
    for r in report.per_query:
        yield separator + _QUERY_JSON % _cells(r, encode_basestring_ascii)
        separator = ",\n"
    yield "\n  ]\n}\n"


class _Line:
    """A file for ``csv.writer`` whose ``write`` returns the row's text, so
    that ``writerow`` returns it too."""

    @staticmethod
    def write(text: str) -> str:
        return text


def csv_pieces(report: AggregateReport) -> Iterator[str]:
    """The CSV report: the header row, then one row per query."""
    import csv  # here, so that start-up loads it only for a CSV report

    writer = csv.writer(_Line(), lineterminator="\n")
    yield writer.writerow(MetricReport._fields)
    for r in report.per_query:
        yield writer.writerow(_cells(r, str))


# The text report's columns up to its identity and flags: (header, MetricReport field).
_TEXT_COLUMNS = (
    ("query", "query_id"),
    ("items", "num_items"),
    ("ndcg_lin", "ndcg_linear"),
    ("ndcg_cls", "ndcg_classic"),
    ("dcg", "dcg_linear"),
    ("ideal", "ideal_dcg_linear"),
    ("error", "dcg_error_linear"),
    ("loss", "pairwise_loss"),
    ("norm_loss", "normalized_pairwise_loss"),
)
_TEXT_HEADER = (*(header for header, _ in _TEXT_COLUMNS), "identity", "flags")
_text_fields = attrgetter(*(field for _, field in _TEXT_COLUMNS))
_TEXT_STATUS = {"passed": "ok", "failed": "FAIL", "tie_flagged": "ties"}
_TEXT_PAD = 40  # the widest a column is padded, as fault messages quote a cell


def _text_cell(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def text_pieces(report: AggregateReport) -> Iterator[str]:
    """The text report: the header line, one line per query, then the summary.

    Each column is padded to its widest cell, but to no more than
    ``_TEXT_PAD`` characters: a longer cell, such as a long query id, is
    written whole and shifts only its own row.  Every row is formatted
    before the first line is yielded.
    """
    rows = [
        (*map(_text_cell, _text_fields(r)), _TEXT_STATUS[r.identity],
         ",".join(compress(("deg-lin", "deg-cls"), (r.degenerate_linear, r.degenerate_classic))))
        for r in report.per_query
    ]
    widths = [min(max(map(len, column)), _TEXT_PAD) for column in zip(_TEXT_HEADER, *rows)]
    for row in (_TEXT_HEADER, *rows):
        yield "  ".join(map(str.ljust, row, widths)).rstrip() + "\n"
    summary = report.verification_summary
    yield (
        f"\nqueries={len(report.per_query)}"
        f" mean_ndcg_linear={report.mean_ndcg_linear:.6g}"
        f" mean_ndcg_classic={report.mean_ndcg_classic:.6g}"
        f" total_pairwise_loss={report.total_pairwise_loss}\n"
        f"identity_checks: passed={summary.passed} failed={summary.failed}"
        f" tie_flagged={summary.tie_flagged}\n"
    )


# Each report format's name, as ``lindcg metrics --output`` takes it, and its writer.
WRITERS = {"json": json_pieces, "text": text_pieces, "csv": csv_pieces}
