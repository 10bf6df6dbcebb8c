"""Linear-discount and classical NDCG, weighted pairwise ranking loss, and
exact identity checks between the DCG error and the pairwise loss.

The package exports the ranked-view path that ``lindcg metrics`` runs, the
readers, the report and the errors.  The independent test oracles are in
``lindcg.oracles``.
"""

from .core import QueryGroup, RankedView, rank_view
from .equivalence import VerificationRecord, verify_multipartite_identity
from .errors import (
    EmptyFileError,
    EmptyGroupError,
    GradeTooLargeError,
    InvalidGradeError,
    InvalidScoreError,
    LindcgError,
    NonBipartiteError,
    ParseError,
    ScoreCountMismatchError,
    ThresholdOutOfRangeError,
    TooLargeError,
)
from .io import DatasetFile, parse_svmlight, parse_tsv
from .metrics import MetricReport, bipartite_ideal_dcg, compute_report
from .pairwise import PairwiseLossValue, loss_from_view
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
    "DatasetFile",
    "EmptyFileError",
    "EmptyGroupError",
    "GradeTooLargeError",
    "InvalidGradeError",
    "InvalidScoreError",
    "LindcgError",
    "MetricReport",
    "NonBipartiteError",
    "PairwiseLossValue",
    "ParseError",
    "QueryGroup",
    "RankedView",
    "ScoreCountMismatchError",
    "ThresholdOutOfRangeError",
    "TooLargeError",
    "VerificationRecord",
    "VerificationSummary",
    "bipartite_ideal_dcg",
    "build_aggregate_report",
    "compute_report",
    "loss_from_view",
    "parse_svmlight",
    "parse_tsv",
    "rank_view",
    "render_csv",
    "render_json",
    "render_text",
    "to_json_dict",
    "verify_multipartite_identity",
]
