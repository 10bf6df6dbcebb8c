"""The package's public names change only on purpose, and its value types stay plain."""

import ast
from pathlib import Path

import lindcg

PACKAGE = Path(lindcg.__file__).parent

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


def test_the_public_names_are_pinned_and_resolve():
    assert sorted(lindcg.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(lindcg, name)] == []


def test_each_report_format_has_one_writer():
    """The exported writers are the report's only text path, with no joined twin."""
    assert lindcg.report.WRITERS == {
        "json": lindcg.json_pieces, "text": lindcg.text_pieces, "csv": lindcg.csv_pieces}
    twins = {"render_json", "render_text", "render_csv", "to_json_dict"}
    assert twins & (set(vars(lindcg)) | set(vars(lindcg.report))) == set()


def dataclasses_imports(source: str) -> list[int]:
    """The line of each statement in the source that imports ``dataclasses``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if any(module.partition(".")[0] == "dataclasses" for module in modules):
            found.append(node.lineno)
    return found


def test_no_module_imports_dataclasses():
    """Every value type is a NamedTuple or a plain slotted class."""
    users = {path.stem: dataclasses_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: lines for module, lines in users.items() if lines} == {}


def test_the_dataclasses_check_catches_each_import():
    assert dataclasses_imports("import dataclasses") == [1]
    assert dataclasses_imports("import os, dataclasses as dc") == [1]
    assert dataclasses_imports("x = 1\nfrom dataclasses import dataclass") == [2]
    assert dataclasses_imports("def f():\n    from dataclasses import replace") == [2]
    assert dataclasses_imports("from typing import NamedTuple\nimport dataclass") == []
