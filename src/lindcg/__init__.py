"""Linear-discount and classical NDCG, weighted pairwise ranking loss, and
exact identity checks between the DCG error and the pairwise loss.

The package exports the ranked-view path that ``lindcg metrics`` runs, the
readers, which return query groups, the report and the errors that path
raises.  The independent test oracles are in ``lindcg.oracles``; the errors
only they raise stay in ``lindcg.errors``.
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
from .metrics import (
    MetricReport,
    VerificationRecord,
    bipartite_ideal_dcg,
    compute_report,
    verify_multipartite_identity,
)
from .report import (
    AggregateReport,
    VerificationSummary,
    build_aggregate_report,
    render_csv,
    render_json,
    render_text,
    to_json_dict,
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
    "VerificationRecord",
    "VerificationSummary",
    "bipartite_ideal_dcg",
    "build_aggregate_report",
    "compute_report",
    "parse_svmlight",
    "parse_tsv",
    "rank_view",
    "render_csv",
    "render_json",
    "render_text",
    "to_json_dict",
    "verify_multipartite_identity",
]
