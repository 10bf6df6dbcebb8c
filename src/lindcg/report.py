"""Per-query and aggregate reporting with deterministic rendering.

Output is byte-stable for a given input: queries are sorted by query id,
integers are emitted exactly, and every float is formatted to 6
significant digits.  JSON is the machine-readable format; text is an
aligned-column view; CSV carries the per-query rows only.

The JSON report is exactly ``json.dumps(to_json_dict(report), indent=2)``
plus a newline, but only its small head goes through the indenting
encoder, which is pure Python.  Each query's flat dict is encoded by the C
encoder with ``",\n      "`` between items, which puts every key on its own
line six spaces in, as ``indent=2`` does at that depth; the fixed outer
layout, ``"    {\n      "`` before each query, ``"\n    }"`` after it and
``",\n"`` between queries, is added around it.
"""

from __future__ import annotations

import csv
import io as _io
import json
from dataclasses import dataclass
from typing import Sequence

from .core import QueryGroup, rank_view
from .equivalence import VerificationRecord, verify_multipartite_identity
from .metrics import MetricReport, compute_report


@dataclass(frozen=True, slots=True)
class VerificationSummary:
    """Counts of identity checks: tie-afflicted instances are tallied apart."""

    passed: int
    failed: int
    tie_flagged: int


@dataclass(frozen=True, slots=True)
class AggregateReport:
    """Per-query reports plus dataset-level aggregates.

    Means are arithmetic over all queries, degenerate ones included (they
    contribute their conventional 1.0).
    """

    per_query: tuple[MetricReport, ...]
    verifications: tuple[VerificationRecord, ...]
    mean_ndcg_linear: float
    mean_ndcg_classic: float
    total_pairwise_loss: int
    verification_summary: VerificationSummary


def _record_ok(record: VerificationRecord) -> bool:
    return record.passed and all(d.passed for d in record.details)


def build_aggregate_report(groups: Sequence[QueryGroup]) -> AggregateReport:
    """Evaluate metrics and identity checks for every group, sorted by query id.

    Each group is ranked once; its view serves both the report and the check.
    """
    per_query, verifications = [], []
    for group in sorted(groups, key=lambda g: g.query_id):
        view = rank_view(group)
        per_query.append(compute_report(group, view))
        verifications.append(verify_multipartite_identity(group, view))

    n = len(per_query)
    passed = failed = tie_flagged = 0
    for record in verifications:
        if record.tie_afflicted:
            tie_flagged += 1
        elif _record_ok(record):
            passed += 1
        else:
            failed += 1
    return AggregateReport(
        per_query=tuple(per_query),
        verifications=tuple(verifications),
        mean_ndcg_linear=sum(r.ndcg_linear for r in per_query) / n if n else 0.0,
        mean_ndcg_classic=sum(r.ndcg_classic for r in per_query) / n if n else 0.0,
        total_pairwise_loss=sum(r.pairwise_loss for r in per_query),
        verification_summary=VerificationSummary(passed, failed, tie_flagged),
    )


def _sig6(value: float) -> float:
    # float() of the 6-significant-digit text round-trips to that exact
    # text under repr, which keeps JSON output byte-stable.
    return float(f"{value:.6g}")


def _identity_status(record: VerificationRecord) -> str:
    if record.tie_afflicted:
        return "tie_flagged"
    return "passed" if _record_ok(record) else "failed"


def _query_dict(report: MetricReport, record: VerificationRecord) -> dict:
    return {
        "query_id": report.query_id,
        "num_items": report.num_items,
        "dcg_linear": report.dcg_linear,
        "ideal_dcg_linear": report.ideal_dcg_linear,
        "ndcg_linear": _sig6(report.ndcg_linear),
        "dcg_classic": _sig6(report.dcg_classic),
        "ideal_dcg_classic": _sig6(report.ideal_dcg_classic),
        "ndcg_classic": _sig6(report.ndcg_classic),
        "dcg_error_linear": report.dcg_error_linear,
        "pairwise_loss": report.pairwise_loss,
        "normalizer_z": report.normalizer_z,
        "normalized_pairwise_loss": _sig6(report.normalized_pairwise_loss),
        "degenerate_linear": report.degenerate_linear,
        "degenerate_classic": report.degenerate_classic,
        "identity": _identity_status(record),
    }


def _summary_dict(report: AggregateReport) -> dict:
    summary = report.verification_summary
    return {
        "num_queries": len(report.per_query),
        "mean_ndcg_linear": _sig6(report.mean_ndcg_linear),
        "mean_ndcg_classic": _sig6(report.mean_ndcg_classic),
        "total_pairwise_loss": report.total_pairwise_loss,
        "verification": {
            "passed": summary.passed,
            "failed": summary.failed,
            "tie_flagged": summary.tie_flagged,
        },
    }


def to_json_dict(report: AggregateReport) -> dict:
    return {
        **_summary_dict(report),
        "queries": [
            _query_dict(r, v) for r, v in zip(report.per_query, report.verifications)
        ],
    }


# A flat query dict encoded by the C encoder in the layout indent=2 gives it
# at depth 3: each key on its own line, six spaces in.
_QUERY_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))


def render_json(report: AggregateReport) -> str:
    """``json.dumps(to_json_dict(report), indent=2)`` and a newline, byte for byte."""
    head = json.dumps({**_summary_dict(report), "queries": []}, indent=2)
    if not report.per_query:
        return head + "\n"
    queries = ",\n".join(
        "    {\n      " + _QUERY_ENCODER.encode(_query_dict(r, v))[1:-1] + "\n    }"
        for r, v in zip(report.per_query, report.verifications)
    )
    return head.removesuffix("[]\n}") + "[\n" + queries + "\n  ]\n}\n"


_CSV_COLUMNS = (
    "query_id",
    "num_items",
    "dcg_linear",
    "ideal_dcg_linear",
    "ndcg_linear",
    "dcg_classic",
    "ideal_dcg_classic",
    "ndcg_classic",
    "dcg_error_linear",
    "pairwise_loss",
    "normalizer_z",
    "normalized_pairwise_loss",
    "degenerate_linear",
    "degenerate_classic",
    "identity",
)


def render_csv(report: AggregateReport) -> str:
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in to_json_dict(report)["queries"]:
        writer.writerow(
            ["true" if v is True else "false" if v is False else v for v in
             (row[c] for c in _CSV_COLUMNS)]
        )
    return buffer.getvalue()


def render_text(report: AggregateReport) -> str:
    header = (
        "query",
        "items",
        "ndcg_lin",
        "ndcg_cls",
        "dcg",
        "ideal",
        "error",
        "loss",
        "norm_loss",
        "identity",
        "flags",
    )
    rows = []
    for r, v in zip(report.per_query, report.verifications):
        flags = []
        if r.degenerate_linear:
            flags.append("deg-lin")
        if r.degenerate_classic:
            flags.append("deg-cls")
        status = {"passed": "ok", "failed": "FAIL", "tie_flagged": "ties"}[
            _identity_status(v)
        ]
        rows.append(
            (
                r.query_id,
                str(r.num_items),
                f"{r.ndcg_linear:.6g}",
                f"{r.ndcg_classic:.6g}",
                str(r.dcg_linear),
                str(r.ideal_dcg_linear),
                str(r.dcg_error_linear),
                str(r.pairwise_loss),
                f"{r.normalized_pairwise_loss:.6g}",
                status,
                ",".join(flags),
            )
        )
    widths = [
        max(len(header[col]), max((len(row[col]) for row in rows), default=0))
        for col in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    summary = report.verification_summary
    lines.append("")
    lines.append(
        f"queries={len(report.per_query)}"
        f" mean_ndcg_linear={report.mean_ndcg_linear:.6g}"
        f" mean_ndcg_classic={report.mean_ndcg_classic:.6g}"
        f" total_pairwise_loss={report.total_pairwise_loss}"
    )
    lines.append(
        f"identity_checks: passed={summary.passed} failed={summary.failed}"
        f" tie_flagged={summary.tie_flagged}"
    )
    return "\n".join(lines) + "\n"
