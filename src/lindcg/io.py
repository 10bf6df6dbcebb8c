"""Dataset ingestion: TSV and LETOR/SVMLight readers.

TSV grammar: one record per line, ``query_id <TAB> grade <TAB> score``.
LETOR grammar: ``grade qid:ID feat:val ...`` with feature vectors ignored;
scores come either from a trailing ``# score=V`` comment on each line, where
``score`` must start a token, or from a companion predictions file with
exactly one score per data row.  Grades and scores are ASCII: Python's
``_`` digit separators and non-ASCII digits are rejected.
In both formats lines whose first non-blank character is ``#`` and blank
lines are skipped, input is UTF-8, and file order defines the tie-break
index within each query.

Every malformed line is collected with its line number and reason; the
parse fails at the end if any line was rejected, so accepted + rejected
always accounts for every non-comment, non-blank line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from .core import QueryGroup, RatedItem
from .errors import (
    EmptyFileError,
    GradeTooLargeError,
    ParseError,
    ScoreCountMismatchError,
)

_SCORE_COMMENT = re.compile(r"(?<!\S)score\s*=\s*(\S+)")


@dataclass(frozen=True, slots=True)
class DatasetRecord:
    """One parsed line: query id, integer grade, model score."""

    query_id: str
    grade: int
    score: float


@dataclass(frozen=True, slots=True)
class DatasetFile:
    """Parsed records in file order plus the optional declared alphabet size."""

    records: tuple[DatasetRecord, ...]
    declared_num_grades: int | None = None

    def num_grades(self) -> int:
        """Grade-alphabet size: declared, or inferred globally as max grade + 1.

        Inference is global across queries (never per query) so pair
        weights stay comparable; the floor of 2 keeps all-zero datasets
        valid.
        """
        if self.declared_num_grades is not None:
            return self.declared_num_grades
        return max(2, max(r.grade for r in self.records) + 1)

    def check_grade_cap(self, cap: int) -> None:
        """Raise GradeTooLargeError naming the first record whose grade exceeds cap."""
        for rec in self.records:
            if rec.grade > cap:
                raise GradeTooLargeError(
                    f"query {rec.query_id!r}: grade {rec.grade} exceeds "
                    f"the classical-gain cap of {cap}"
                )

    def query_groups(self) -> list[QueryGroup]:
        """Assemble one QueryGroup per query id, sorted by query id.

        Items keep file order within each query, which fixes the
        score-tie-break index.
        """
        num_grades = self.num_grades()
        by_query: dict[str, list[RatedItem]] = {}
        for rec in self.records:
            by_query.setdefault(rec.query_id, []).append(
                RatedItem(rec.grade, rec.score)
            )
        return [
            QueryGroup(query_id, tuple(items), num_grades)
            for query_id, items in sorted(by_query.items())
        ]


def _read_lines(source) -> list[str]:
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    return text.splitlines()


def _skippable(line: str) -> bool:
    stripped = line.strip()
    return not stripped or stripped.startswith("#")


def _parse_grade(text: str, declared: int | None) -> tuple[int | None, str | None]:
    try:
        # int() would also read '_' digit separators and non-ASCII digits.
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        grade = int(text)
    except ValueError:
        return None, f"grade {text!r} is not an integer"
    if grade < 0:
        return None, f"negative grade {grade}"
    if declared is not None and grade >= declared:
        return None, f"grade {grade} outside declared alphabet of {declared}"
    return grade, None


def _parse_score(text: str) -> tuple[float | None, str | None]:
    try:
        # float() would also read '_' digit separators and non-ASCII digits.
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        score = float(text)
    except ValueError:
        return None, f"score {text!r} is not a number"
    if not math.isfinite(score):
        return None, f"non-finite score {text!r}"
    return score, None


def parse_tsv(source, num_grades: int | None = None) -> DatasetFile:
    """Parse ``query_id <TAB> grade <TAB> score`` lines from a path or stream."""
    records = []
    errors: list[tuple[int, str]] = []
    for lineno, line in enumerate(_read_lines(source), start=1):
        if _skippable(line):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            errors.append((lineno, f"expected 3 tab-separated fields, got {len(fields)}"))
            continue
        query_id = fields[0].strip()
        if not query_id:
            errors.append((lineno, "empty query id"))
            continue
        grade, reason = _parse_grade(fields[1].strip(), num_grades)
        if reason:
            errors.append((lineno, reason))
            continue
        score, reason = _parse_score(fields[2].strip())
        if reason:
            errors.append((lineno, reason))
            continue
        records.append(DatasetRecord(query_id, grade, score))
    if errors:
        raise ParseError(errors, accepted_count=len(records))
    if not records:
        raise EmptyFileError("no records after discarding comments and blank lines")
    return DatasetFile(tuple(records), num_grades)


def _read_score_file(source) -> list[float]:
    scores = []
    errors: list[tuple[int, str]] = []
    for lineno, line in enumerate(_read_lines(source), start=1):
        if _skippable(line):
            continue
        score, reason = _parse_score(line.strip())
        if reason:
            errors.append((lineno, f"score file: {reason}"))
            continue
        scores.append(score)
    if errors:
        raise ParseError(errors, accepted_count=len(scores))
    return scores


def parse_svmlight(
    source,
    scores=None,
    num_grades: int | None = None,
) -> DatasetFile:
    """Parse LETOR-style ``grade qid:ID feat:val ...`` lines.

    Feature vectors are discarded.  With ``scores`` given (path or stream,
    one float per line) the companion file supplies every score and must
    match the data-row count exactly; otherwise each line must carry a
    trailing ``# score=V`` comment.
    """
    lines = _read_lines(source)
    score_list = _read_score_file(scores) if scores is not None else None

    data_rows = sum(1 for line in lines if not _skippable(line))
    if score_list is not None and len(score_list) != data_rows:
        raise ScoreCountMismatchError(
            f"{data_rows} data rows but {len(score_list)} scores in the companion file"
        )

    records = []
    errors: list[tuple[int, str]] = []
    row_index = 0
    for lineno, line in enumerate(lines, start=1):
        if _skippable(line):
            continue
        body, _, comment = line.partition("#")
        row = row_index
        row_index += 1
        tokens = body.split()
        if len(tokens) < 2:
            errors.append((lineno, "expected 'grade qid:ID ...'"))
            continue
        grade, reason = _parse_grade(tokens[0], num_grades)
        if reason:
            errors.append((lineno, reason))
            continue
        if not tokens[1].startswith("qid:") or len(tokens[1]) == 4:
            errors.append((lineno, f"second token {tokens[1]!r} is not 'qid:ID'"))
            continue
        query_id = tokens[1][4:]
        if score_list is not None:
            score = score_list[row]
        else:
            match = _SCORE_COMMENT.search(comment)
            if not match:
                errors.append((lineno, "missing score (no companion file and no '# score=V')"))
                continue
            score, reason = _parse_score(match.group(1))
            if reason:
                errors.append((lineno, reason))
                continue
        records.append(DatasetRecord(query_id, grade, score))
    if errors:
        raise ParseError(errors, accepted_count=len(records))
    if not records:
        raise EmptyFileError("no records after discarding comments and blank lines")
    return DatasetFile(tuple(records), num_grades)
