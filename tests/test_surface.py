"""The package's public names change only on purpose."""

import lindcg

PUBLIC = [
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


def test_the_public_names_are_pinned_and_resolve():
    assert sorted(lindcg.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(lindcg, name)] == []


def test_verification_record_is_defined_beside_its_only_producer():
    assert lindcg.VerificationRecord.__module__ == "lindcg.metrics"
    assert lindcg.verify_multipartite_identity.__module__ == "lindcg.metrics"
