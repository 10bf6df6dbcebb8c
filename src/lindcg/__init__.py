"""Linear-discount and classical NDCG, weighted pairwise ranking loss, and
exact identity checks between the DCG error and the pairwise loss.

The package exports the ranked-view path that ``lindcg metrics`` runs, the
readers, which return query groups, the report, its three writers and the
errors that path raises.  Each writer, ``json_pieces``, ``text_pieces`` or
``csv_pieces``, yields its format's text in pieces, as ``lindcg metrics``
writes them; ``"".join(json_pieces(report))`` is the JSON report whole.
The independent test oracles are in ``lindcg.oracles``; the errors only
they raise stay in ``lindcg.errors``.
"""

from .core import QueryGroup, RankedView, rank_view
from .errors import (
    EmptyFileError,
    EmptyGroupError,
    GradeTooLargeError,
    InvalidGradeError,
    InvalidScoreError,
    LindcgError,
    ParseError,
    ScoreCountMismatchError,
)
from .io import parse_svmlight, parse_tsv
from .metrics import MetricReport, bipartite_ideal_dcg, compute_report
from .report import (
    AggregateReport,
    VerificationSummary,
    build_aggregate_report,
    csv_pieces,
    json_pieces,
    text_pieces,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateReport",
    "EmptyFileError",
    "EmptyGroupError",
    "GradeTooLargeError",
    "InvalidGradeError",
    "InvalidScoreError",
    "LindcgError",
    "MetricReport",
    "ParseError",
    "QueryGroup",
    "RankedView",
    "ScoreCountMismatchError",
    "VerificationSummary",
    "bipartite_ideal_dcg",
    "build_aggregate_report",
    "compute_report",
    "csv_pieces",
    "json_pieces",
    "parse_svmlight",
    "parse_tsv",
    "rank_view",
    "text_pieces",
]
