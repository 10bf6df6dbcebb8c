"""Dataset ingestion: TSV and LETOR/SVMLight readers.

TSV grammar: one record per line, ``query_id <TAB> grade <TAB> score``.
LETOR grammar: ``grade qid:ID feat:val ...`` with feature vectors ignored;
scores come either from a trailing ``# score=V`` comment on each line, where
``score`` must start a token, or from a companion predictions file with
exactly one score per data row.  Grades and scores are ASCII: Python's
``_`` digit separators and non-ASCII digits are rejected.
In both formats lines end where ``str.splitlines`` ends them, lines whose
first non-blank character is ``#`` and blank lines are skipped, input is
UTF-8 with an optional leading byte-order mark, and file order defines the
tie-break index within each query.  Input is read in blocks, never whole,
straight into three parallel columns: query id, grade and score.

A TSV block is parsed a column at a time.  Its lines are joined and checked
in whole-block passes: the text is ASCII with no ``#``, every line has
exactly two tabs, no stripped query id is empty, the grade and score cells
hold no ``_``, ``int`` and ``float`` read every cell, every grade lies in
the alphabet and every score is finite.  A block that passes is split into
its three columns at once.  A block that fails any check is parsed again
line by line with the rules above; that path alone sees comment lines,
blank lines, non-ASCII text and malformed lines, and it gives every error
its line number.  The SVMLight and score-file readers take the same blocks
line by line.

Every malformed line, including a data line that is not valid UTF-8, is
collected with its line number and reason; the parse fails at the end if any
line was rejected, so accepted + rejected always accounts for every
non-comment, non-blank line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .core import QueryGroup
from .errors import (
    EmptyFileError,
    GradeTooLargeError,
    ParseError,
    ScoreCountMismatchError,
)

_SCORE_COMMENT = re.compile(r"(?<!\S)score\s*=\s*(\S+)")
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # those of str.splitlines
_UNDECODABLE = re.compile("[\udc80-\udcff]")  # bytes that errors="surrogateescape" kept
_BLOCK_CHARS = 1 << 16


@dataclass(frozen=True, slots=True)
class DatasetFile:
    """Parsed rows as parallel columns in file order, plus the declared alphabet size."""

    query_ids: tuple[str, ...]
    grades: tuple[int, ...]
    scores: tuple[float, ...]
    declared_num_grades: int | None = None

    def num_grades(self) -> int:
        """Grade-alphabet size: declared, or inferred globally as max grade + 1.

        Inference is global across queries (never per query) so pair
        weights stay comparable; the floor of 2 keeps all-zero datasets
        valid.
        """
        if self.declared_num_grades is not None:
            return self.declared_num_grades
        return max(2, max(self.grades) + 1)

    def check_grade_cap(self, cap: int) -> None:
        """Raise GradeTooLargeError naming the first row whose grade exceeds cap."""
        if max(self.grades, default=0) > cap:
            row = next(i for i, grade in enumerate(self.grades) if grade > cap)
            raise GradeTooLargeError(
                f"query {self.query_ids[row]!r}: grade {self.grades[row]} exceeds "
                f"the classical-gain cap of {cap}"
            )

    def query_groups(self) -> list[QueryGroup]:
        """Assemble one QueryGroup per query id, sorted by query id.

        Items keep file order within each query, which fixes the
        score-tie-break index.
        """
        num_grades = self.num_grades()
        by_query: dict[str, tuple[list[int], list[float]]] = {}
        for query_id, grade, score in zip(self.query_ids, self.grades, self.scores, strict=True):
            columns = by_query.get(query_id) or by_query.setdefault(query_id, ([], []))
            columns[0].append(grade)
            columns[1].append(score)
        return [
            QueryGroup(query_id, tuple(grades), tuple(scores), num_grades)
            for query_id, (grades, scores) in sorted(by_query.items())
        ]


def _read_blocks(source):
    """Yield (number of the first line, lines) for each block of a path or stream.

    A line that runs on past the end of a block is held back for the next
    one, so a block may hold no lines at all.
    """
    stream = source if hasattr(source, "read") else open(
        source, encoding="utf-8", errors="surrogateescape", newline="")
    try:
        lineno, pending = 1, ""
        block = stream.read(_BLOCK_CHARS).removeprefix("\ufeff")
        while text := pending + block:
            lines = text.splitlines()
            block = stream.read(_BLOCK_CHARS)
            pending = ""
            if block:  # the last line may go on, and a final "\r" may pair with a "\n"
                pending = lines.pop() + (text[-1] if text[-1] in _LINE_BREAKS else "")
            yield lineno, lines
            lineno += len(lines)
    finally:
        if stream is not source:
            stream.close()


def _data_lines(blocks, errors: list[tuple[int, str]]):
    """Yield (line number, line) for each non-blank, non-comment line of the blocks.

    A line that is not valid UTF-8 goes to ``errors`` instead.
    """
    for first, lines in blocks:
        for lineno, line in enumerate(lines, first):
            stripped = line.lstrip()
            if not stripped or stripped[0] == "#":
                continue
            if not line.isascii() and _UNDECODABLE.search(line):
                errors.append((lineno, "invalid UTF-8"))
            else:
                yield lineno, line


def _read_lines(source, errors: list[tuple[int, str]]):
    """Yield (line number, line) for each non-blank, non-comment line of a path or stream."""
    return _data_lines(_read_blocks(source), errors)


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


def _tsv_columns(lines: list[str], num_grades: int | None):
    """The query-id, grade and score columns of a block, or None if a line needs the line rules.

    Every check runs over the whole block at once.  Joined with "\n" and
    split at tabs and before each "\n", a block whose every line has exactly
    two tabs gives three cells per line, and each line's "\n" leads its
    query-id cell, where stripping removes it.  ASCII text keeps ``int`` and
    ``float`` to ASCII digits, and the whitespace they skip is whitespace
    ``str.strip`` removes, so a cell reads as its stripped text would.
    """
    text = "\n".join(lines)
    if not text.isascii() or "#" in text:
        return None
    cells = text.replace("\n", "\t\n").split("\t")
    if len(cells) != 3 * len(lines):
        return None
    query_ids = list(map(str.strip, cells[0::3]))
    grade_cells, score_cells = cells[1::3], cells[2::3]
    if not all(query_ids):
        return None
    for column in (grade_cells, score_cells):
        joined = "".join(column)
        if "_" in joined or "\n" in joined:
            return None
    try:
        grades = list(map(int, grade_cells))
        scores = list(map(float, score_cells))
    except ValueError:
        return None
    if grades and (min(grades) < 0 or num_grades is not None and max(grades) >= num_grades):
        return None
    if not all(map(math.isfinite, scores)):
        return None
    return query_ids, grades, scores


def parse_tsv(source, num_grades: int | None = None) -> DatasetFile:
    """Parse ``query_id <TAB> grade <TAB> score`` lines from a path or stream.

    Each block is read a column at a time; a block that fails a whole-block
    check is read again line by line, which gives every error its line.
    """
    query_ids, grades, scores = [], [], []
    seen: dict[str, str] = {}  # one string per distinct query id, shared by its rows
    errors: list[tuple[int, str]] = []
    for first, lines in _read_blocks(source):
        columns = _tsv_columns(lines, num_grades)
        if columns is not None:
            block_ids, block_grades, block_scores = columns
            query_ids.extend(map(seen.setdefault, block_ids, block_ids))
            grades.extend(block_grades)
            scores.extend(block_scores)
            continue
        for lineno, line in _data_lines([(first, lines)], errors):
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
            query_ids.append(seen.setdefault(query_id, query_id))
            grades.append(grade)
            scores.append(score)
    if errors:
        raise ParseError(errors, accepted_count=len(grades))
    if not grades:
        raise EmptyFileError("no records after discarding comments and blank lines")
    return DatasetFile(tuple(query_ids), tuple(grades), tuple(scores), num_grades)


def _read_score_file(source) -> list[float]:
    scores = []
    errors: list[tuple[int, str]] = []
    for lineno, line in _read_lines(source, errors):
        score, reason = _parse_score(line.strip())
        if reason:
            errors.append((lineno, reason))
            continue
        scores.append(score)
    if errors:
        errors = [(lineno, f"score file: {reason}") for lineno, reason in errors]
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
    row_scores = _read_score_file(scores) if scores is not None else []
    query_ids, grades = [], []
    seen: dict[str, str] = {}  # one string per distinct query id, shared by its rows
    errors: list[tuple[int, str]] = []
    for lineno, line in _read_lines(source, errors):
        body, _, comment = line.partition("#")
        tokens = body.split(None, 2)  # the features are never read
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
        if scores is None:
            match = _SCORE_COMMENT.search(comment)
            if not match:
                errors.append((lineno, "missing score (no companion file and no '# score=V')"))
                continue
            score, reason = _parse_score(match.group(1))
            if reason:
                errors.append((lineno, reason))
                continue
            row_scores.append(score)
        query_id = tokens[1][4:]
        query_ids.append(seen.setdefault(query_id, query_id))
        grades.append(grade)
    # Every data row was either accepted or rejected.
    data_rows = len(grades) + len(errors)
    if scores is not None and len(row_scores) != data_rows:
        raise ScoreCountMismatchError(
            f"{data_rows} data rows but {len(row_scores)} scores in the companion file"
        )
    if errors:
        raise ParseError(errors, accepted_count=len(grades))
    if not grades:
        raise EmptyFileError("no records after discarding comments and blank lines")
    return DatasetFile(tuple(query_ids), tuple(grades), tuple(row_scores), num_grades)
