r"""Dataset ingestion: TSV and LETOR/SVMLight readers.

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
of about 1,000 lines (four times as wide for long SVMLight lines), and
each block becomes one chunk of three parallel columns: query id, grade
and score.  ``_grouped`` collects the rows of every chunk by query id,
each query's grades as bytes and its scores as doubles, and once the input
is read yields the ``QueryGroup``s one at a time, each built only when it
is asked for; ``parse_tsv`` and ``parse_svmlight`` return them as a list.
It builds them without ``QueryGroup``'s second check of every value, which
the readers have already checked.  Every input, a path or a pipe, is read
this way, once.

One reader, ``_read_blocks``, cuts the input into blocks of whole lines,
each handed on as clean text or as its ``str.splitlines`` lines.  A line
costs time linear in its length.

Each block is first read a column at a time, with whole-block checks:

* A TSV block is checked in whole-block passes, a clean block as the
  text it is and any other block joined from its lines: the text is
  ASCII with no ``#``, every line has exactly two tabs, no stripped query
  id is empty, the grade and score cells hold no ``_``, ``float`` reads
  every score, and every score is finite.  No grade is negative, at or
  above a declared ``num_grades`` or above the classical-gain cap
  ``MAX_CLASSIC_GRADE``.  A grade column of canonical cells (``2``, not
  ``02`` or ``+2``) is looked up in a table, any other read by ``int``.
  A block that passes is split into its three columns.
* A clean score-file block is split at ``\n``: it holds no ``_``, every
  line is one number that ``float`` reads, and every score is finite.
* With a score file, a clean SVMLight block is read head-only: one match
  of ``grade qid:ID`` per line, so the features are never built, and the
  grades get the TSV grade checks.  Without one, every line needs its
  ``# score=`` comment, so every SVMLight block is read line by line.

A block that fails any check is parsed again line by line with the rules
above; that path alone sees comment lines, blank lines, non-ASCII text and
malformed lines, and it gives every error its line number.  A score file
is read in step with its data: each data block pulls the scores it needs,
a score-file block at a time.

The parsers and ``lindcg metrics`` read the chunks through ``_rows``,
which alone decides which input fault is reported.  Every malformed line,
including a data line that is not valid UTF-8, is counted, the first 20
are kept with their line number and reason, and the input is read to its
end before any fault is raised, so accepted + rejected always accounts
for every non-comment, non-blank line.  A fault message quotes at most
the first 40 characters of a cell, followed by ``...``, and writes a
number of more than 40 characters as its first 40 and ``...``, unquoted.
"""

from __future__ import annotations

import math
import re
from array import array
from functools import partial
from itertools import chain, islice

from .core import QueryGroup
from .errors import (
    EmptyFileError,
    ParseError,
    ScoreCountMismatchError,
    _quoted,
    _shortened,
)
from .metrics import MAX_CLASSIC_GRADE

_SCORE_COMMENT = re.compile(r"(?<!\S)score\s*=\s*(\S+)")
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # those of str.splitlines
_UNDECODABLE = re.compile("[\udc80-\udcff]")  # bytes that errors="surrogateescape" kept
# ASCII text with none of these holds no comment, "\n" is its only str.splitlines
# break, and space, tab and "\n" are its only str.split whitespace.
_UNCLEAN = "#\r\x0b\x0c\x1c\x1d\x1e\x1f"
_HEAD = re.compile(r"[ \t]*([^ \t\n]+)[ \t]+qid:([^ \t\n]+)")  # "grade qid:ID" of a clean line
_BLOCK_CHARS = 1 << 14  # about 1,000 TSV or score-file lines
_SVMLIGHT_SCALE = 4  # SVMLight lines are long: wider blocks read faster
_KEPT_FAULTS = 20  # rejected lines a ParseError names; it counts them all


class _Faults:
    """The rejected lines of one file: a count of every one, and the first ``_KEPT_FAULTS``.

    ``append`` takes a ``(line number, reason)`` pair, and ``len`` gives
    the count, so a reader appends to it as it would to a list, and a file
    of many malformed lines costs the memory of a few.
    """

    def __init__(self):
        self.kept: list[tuple[int, str]] = []
        self.count = 0

    def append(self, fault: tuple[int, str]) -> None:
        if self.count < _KEPT_FAULTS:
            self.kept.append(fault)
        self.count += 1

    def __len__(self) -> int:  # also its truth: a collector with no fault is false
        return self.count


def _read_blocks(source, scale=1):
    r"""Yield each block of a path or stream, as clean text or as a list of lines.

    Each read takes ``scale * _BLOCK_CHARS`` characters, so a block holds
    at most that and one line.  A block is clean when it is ASCII and holds none of ``_UNCLEAN``: then
    "\n" is its only line break, and space and tab are the only whitespace
    inside a line.  A clean block is handed on as text of whole lines, each
    ending in "\n"; any other block as its ``str.splitlines`` lines.  A line
    that runs on past the end of a block is collected piece by piece until
    a line break ends it, so a line costs time linear in its length.  A
    block is handed on as soon as it is read, never after the next one.
    This is the only code that opens a path; its ``OSError`` names the path.
    """
    stream = source if hasattr(source, "read") else open(
        source, encoding="utf-8", errors="surrogateescape", newline="")
    size = scale * _BLOCK_CHARS
    try:
        pieces = []  # the start of a line that runs on past the end of its block
        # A first block that is only the byte-order mark must not end the input.
        block = stream.read(size).removeprefix("\ufeff") or stream.read(size)
        while block:
            cut = _complete_lines_end(block)
            if cut:
                pieces.append(block[:cut])
                yield _handed_on("".join(pieces))
                pieces = []
            if cut < len(block):
                pieces.append(block[cut:])
            block = stream.read(size)
        if pieces:  # the last line, with no line break after it or a "\r" held back
            yield _handed_on("".join(pieces))
    except OSError as exc:  # a read error names no file
        exc.filename = exc.filename or getattr(stream, "name", None)
        raise
    finally:
        if stream is not source:
            stream.close()


def _handed_on(text: str):
    """A block of whole lines as ``_read_blocks`` hands it on: clean text, or its lines."""
    if text.isascii() and not any(map(text.__contains__, _UNCLEAN)):
        return text if text[-1] == "\n" else text + "\n"
    return text.splitlines()


def _complete_lines_end(block: str) -> int:
    r"""The length of the longest prefix of block that text read after it cannot extend.

    That prefix ends at the last "\n", or, in a block without one, at the
    last line break other than a final "\r", which may pair with a "\n".
    """
    end = block.rfind("\n") + 1
    if end:
        return end
    last = block.splitlines(keepends=True)[-1]
    if last[-1] in _LINE_BREAKS and last[-1] != "\r":
        return len(block)
    return len(block) - len(last)


def _data_lines(first: int, lines: list[str], errors: _Faults):
    """Yield (line number, line) for each non-blank, non-comment line, numbered from first.

    A line that is not valid UTF-8 goes to ``errors`` instead.
    """
    for lineno, line in enumerate(lines, first):
        stripped = line.lstrip()
        if not stripped or stripped[0] == "#":
            continue
        if not line.isascii() and _UNDECODABLE.search(line):
            errors.append((lineno, "invalid UTF-8"))
        else:
            yield lineno, line


def _read_chunks(source, read_block, read_lines, scale=1):
    """Yield the columns of each block of a path or stream, one block at a time.

    ``read_block`` takes a block of ``_read_blocks`` and returns its
    columns, one entry per line, or None if a line needs the line rules.
    ``read_lines`` then takes the number of the block's first line and its
    lines, and returns the columns of the lines it accepts.  Lines are
    numbered as ``str.splitlines`` numbers them.
    """
    lineno = 1
    for block in _read_blocks(source, scale):
        columns = read_block(block)
        if columns is None:
            lines = block.splitlines() if isinstance(block, str) else block
            columns = read_lines(lineno, lines)
            lineno += len(lines)
        else:
            lineno += len(columns[0])
        yield columns


def _grouped(chunks):
    """Yield one QueryGroup per query id of the chunks' rows, sorted by query id.

    Items keep file order within each query, which fixes the
    score-tie-break index.  Every chunk is read before the first group is
    yielded, and until then each query's rows are held as bytes and
    doubles: its grades in an ``array('B')`` and its scores in an
    ``array('d')``.  So until the last row is read, memory follows the rows
    and the queries: about 9 to 10 bytes a row, and about 355 bytes a query
    for its two arrays, its tuple, its dict entry and its id, measured with
    ``tracemalloc`` on CPython 3.11.  The chunk in flight adds about 0.3 MB
    on TSV and 0.5 MB on SVMLight data with a score file.  A group is built
    only when it is yielded, and its arrays are dropped then, so a caller
    that evaluates each group in turn holds one group's tuples at a time.
    """
    by_query: dict[str, tuple[array, array]] = {}
    for chunk_ids, chunk_grades, chunk_scores in chunks:
        for query_id, grade, score in zip(chunk_ids, chunk_grades, chunk_scores, strict=True):
            # "B" holds 0 to 255: the readers reject a negative grade and one above
            # MAX_CLASSIC_GRADE, so no grade can overflow it.
            columns = by_query.get(query_id) or by_query.setdefault(
                query_id, (array("B"), array("d")))
            columns[0].append(grade)
            columns[1].append(score)
    for query_id in sorted(by_query):
        yield QueryGroup._from_checked(query_id, *by_query.pop(query_id))


def _parse_grade(text: str, declared: int | None,
                 capped: bool = True) -> tuple[int | None, str | None]:
    try:
        # int() would also read '_' digit separators and non-ASCII digits.
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        grade = int(text)
    except ValueError:
        return None, f"grade {_quoted(text)} is not an integer"
    if grade < 0:
        return None, f"negative grade {_shortened(grade)}"
    if declared is not None and grade >= declared:
        return None, (f"grade {_shortened(grade)} outside declared alphabet"
                      f" of {_shortened(declared)}")
    if capped and grade > MAX_CLASSIC_GRADE:
        return None, (f"grade {_shortened(grade)} exceeds the classical-gain cap"
                      f" of {MAX_CLASSIC_GRADE}")
    return grade, None


def _parse_score(text: str) -> tuple[float | None, str | None]:
    try:
        # float() would also read '_' digit separators and non-ASCII digits.
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        score = float(text)
    except ValueError:
        return None, f"score {_quoted(text)} is not a number"
    if not math.isfinite(score):
        return None, f"non-finite score {_quoted(text)}"
    return score, None


def _grade_column(cells, table: dict[str, int]):
    """The grades of a column of cells, or None if a cell needs the line rules.

    ``table`` maps the canonical cell of each grade in range to the grade.
    Any other column is read by ``int``: no ``_``, no "\n" of a misaligned
    line, and every grade in ``range(len(table))``.
    """
    try:
        return list(map(table.__getitem__, cells))
    except KeyError:
        pass
    joined = "".join(cells)
    if "_" in joined or "\n" in joined:
        return None
    try:
        grades = list(map(int, cells))
    except ValueError:
        return None
    if min(grades) < 0 or max(grades) >= len(table):  # the lookup took an empty column
        return None
    return grades


def _tsv_columns(block, table: dict[str, int], seen: dict[str, str]):
    """The query-id, grade and score columns of a block, or None if a line needs the line rules.

    Every check runs over the whole block at once.  A clean block is checked
    as the text it is; a list of lines is first joined into that form, each
    line ending in "\n".  Split at tabs and before each "\n", text whose
    every line has exactly two tabs gives three cells per line and one
    empty cell after the last "\n", and each line's "\n" leads the next
    line's query-id cell, where stripping removes it.  ASCII text keeps
    ``int`` and ``float`` to ASCII digits, and the whitespace they skip is
    whitespace ``str.strip`` removes, so a cell reads as its stripped text
    would.  ``_grade_column`` reads the grades.
    """
    text = block if isinstance(block, str) else "\n".join(block) + "\n"
    if not text.isascii() or "#" in text:
        return None
    cells = text.replace("\n", "\t\n").split("\t")
    if len(cells) != 3 * text.count("\n") + 1:
        return None
    del cells[-1]  # the "\n" after the last line
    query_ids = list(map(str.strip, cells[0::3]))
    score_cells = cells[2::3]
    if not all(query_ids):
        return None
    grades = _grade_column(cells[1::3], table)
    joined = "".join(score_cells)
    if grades is None or "_" in joined or "\n" in joined:
        return None
    try:
        scores = list(map(float, score_cells))
    except ValueError:
        return None
    if not all(map(math.isfinite, scores)):
        return None
    return list(map(seen.setdefault, query_ids, query_ids)), grades, scores


def _tsv_lines(first: int, lines: list[str], num_grades: int | None, seen: dict[str, str],
               errors: _Faults):
    """The columns of the TSV lines the line rules accept; the rest go to ``errors``."""
    query_ids, grades, scores = [], [], []
    for lineno, line in _data_lines(first, lines, errors):
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
    return query_ids, grades, scores


def _tsv_chunks(source, num_grades: int | None, table: dict[str, int], errors: _Faults):
    """Yield the query-id, grade and score columns of each block of a TSV source.

    Each block is read a column at a time; a block that fails a whole-block
    check is read again line by line, which gives every error its line.
    """
    # One string per distinct query id, shared by its rows, so a block's query-id
    # column holds one string per query, not one per row.
    seen: dict[str, str] = {}
    return _read_chunks(source, partial(_tsv_columns, table=table, seen=seen),
                        partial(_tsv_lines, num_grades=num_grades, seen=seen, errors=errors))


def parse_tsv(source, num_grades: int | None = None) -> list[QueryGroup]:
    """Parse ``query_id <TAB> grade <TAB> score`` lines from a path or stream.

    Returns one group per query, sorted by query id, with items in file order.
    """
    return list(_grouped(_rows(source, "tsv", num_grades=num_grades)))


def _score_column(block):
    """The scores of a clean block, one a line, or None if a line needs the line rules.

    Each line must be a whole ``float``, so a blank line, or a line of two
    numbers, sends the block to the line rules.
    """
    if not isinstance(block, str) or "_" in block:
        return None
    cells = block.split("\n")
    del cells[-1]  # the empty cell after the final "\n"
    try:
        scores = list(map(float, cells))
    except ValueError:
        return None
    if not all(map(math.isfinite, scores)):
        return None
    return (scores,)


def _score_lines(first: int, lines: list[str], errors: _Faults):
    """The scores of the score-file lines the line rules accept; the rest go to ``errors``."""
    scores = []
    for lineno, line in _data_lines(first, lines, errors):
        score, reason = _parse_score(line.strip())
        if reason:
            errors.append((lineno, reason))
            continue
        scores.append(score)
    return (scores,)


def _svmlight_heads(block, table: dict[str, int], seen: dict[str, str]):
    """The query-id and grade columns of a clean block, or None if a line needs the line rules.

    Only each line's ``grade qid:ID`` head is matched; the features after
    it are skipped unread.  ``_grade_column`` reads the grades.
    """
    if not isinstance(block, str):
        return None
    match, find = _HEAD.match, block.find
    heads = []
    pos, end = 0, len(block)
    while pos < end:
        head = match(block, pos)
        if head is None:
            return None
        heads.append(head.groups())
        pos = find("\n", head.end()) + 1
    grade_cells, query_ids = zip(*heads)
    grades = _grade_column(grade_cells, table)
    if grades is None:
        return None
    return list(map(seen.setdefault, query_ids, query_ids)), grades


def _svmlight_lines(first: int, lines: list[str], num_grades: int | None, seen: dict[str, str],
                    errors: _Faults, inline: bool):
    """The columns of the SVMLight lines the line rules accept; the rest go to ``errors``.

    With ``inline``, each line's score comes from its ``# score=V`` comment
    and the columns are query ids, grades and scores; otherwise the score
    file supplies the scores, and the columns are query ids and grades.
    """
    query_ids, grades, scores = [], [], []
    for lineno, line in _data_lines(first, lines, errors):
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
            errors.append((lineno, f"second token {_quoted(tokens[1])} is not 'qid:ID'"))
            continue
        if inline:
            match = _SCORE_COMMENT.search(comment)
            if not match:
                errors.append((lineno, "missing score (no companion file and no '# score=V')"))
                continue
            score, reason = _parse_score(match.group(1))
            if reason:
                errors.append((lineno, reason))
                continue
            scores.append(score)
        query_id = tokens[1][4:]
        query_ids.append(seen.setdefault(query_id, query_id))
        grades.append(grade)
    return (query_ids, grades, scores) if inline else (query_ids, grades)


def _svmlight_chunks(source, scores, num_grades: int | None, table: dict[str, int],
                     errors: _Faults, score_errors: _Faults):
    """Yield the query-id, grade and score columns of each block of an SVMLight source.

    With a score file, each block's scores are pulled from it as the block
    needs them, one score-file block at a time, and a final chunk with no
    rows holds the scores left after the last data row.  So the columns of
    a chunk differ in length only where the score count does not match the
    data rows.  Score-file errors go to ``score_errors``.
    """
    seen: dict[str, str] = {}  # one string per distinct query id, as in _tsv_chunks
    read_lines = partial(_svmlight_lines, num_grades=num_grades, seen=seen, errors=errors,
                         inline=scores is None)
    if scores is None:
        # Every row needs a "# score=" comment, which no clean block holds.
        yield from _read_chunks(source, lambda block: None, read_lines, _SVMLIGHT_SCALE)
        return
    score_column = chain.from_iterable(
        column for column, in _read_chunks(
            scores, _score_column, partial(_score_lines, errors=score_errors)))
    read_block = partial(_svmlight_heads, table=table, seen=seen)
    for query_ids, grades in _read_chunks(source, read_block, read_lines, _SVMLIGHT_SCALE):
        yield query_ids, grades, list(islice(score_column, len(grades)))
    yield [], [], list(score_column)


def parse_svmlight(
    source,
    scores=None,
    num_grades: int | None = None,
) -> list[QueryGroup]:
    """Parse LETOR-style ``grade qid:ID feat:val ...`` lines into query groups.

    Returns one group per query, sorted by query id, with items in file
    order, as ``parse_tsv`` does.  Feature vectors are discarded.  With
    ``scores`` given (path or stream, one float per line) the companion
    file supplies every score and must match the data-row count exactly;
    otherwise each line must carry a trailing ``# score=V`` comment, and
    every block is read line by line.
    """
    return list(_grouped(_rows(source, "svmlight", scores, num_grades)))


def _rows(source, fmt: str, scores=None, num_grades: int | None = None):
    """Yield the query-id, grade and score columns of each block of a ``fmt`` source.

    ``fmt`` is "tsv" or "svmlight"; a ``scores`` file of an SVMLight source
    is read in step with the data.  From the first block with a fault on,
    nothing is yielded.  A fault is a rejected line of either file, or
    score and grade columns of different lengths.  Both files are still
    read to their end, and then one error is raised, the first of: an
    error in the score file, a score count that does not match the data
    rows, the malformed data lines, and no rows at all.  A ``ParseError``
    counts every malformed line of its file and names the first
    ``_KEPT_FAULTS``.  A grade is malformed when it is negative, at or above
    ``num_grades`` or above ``MAX_CLASSIC_GRADE``, so the whole-block checks
    compare it with one bound, ``min(num_grades, MAX_CLASSIC_GRADE + 1)``.
    """
    errors, score_errors = _Faults(), _Faults()
    bound = (MAX_CLASSIC_GRADE + 1 if num_grades is None
             else min(num_grades, MAX_CLASSIC_GRADE + 1))
    table = {str(grade): grade for grade in range(bound)}
    if fmt == "tsv":
        chunks = _tsv_chunks(source, num_grades, table, errors)
    else:
        chunks = _svmlight_chunks(source, scores, num_grades, table, errors, score_errors)
    rows = scored = 0
    for query_ids, grades, row_scores in chunks:
        rows += len(grades)
        scored += len(row_scores)
        # Counts once apart stay apart: the score file ran out, or its extras came last.
        if not (errors or score_errors) and rows == scored:
            yield query_ids, grades, row_scores
    if score_errors:
        kept = [(lineno, f"score file: {reason}") for lineno, reason in score_errors.kept]
        raise ParseError(kept, accepted_count=scored, rejected_count=len(score_errors))
    # Every data row was either accepted or rejected.
    data_rows = rows + len(errors)
    if scores is not None and scored != data_rows:
        raise ScoreCountMismatchError(
            f"{data_rows} data rows but {scored} scores in the companion file"
        )
    if errors:
        raise ParseError(errors.kept, accepted_count=rows, rejected_count=len(errors))
    if not rows:
        raise EmptyFileError("no records after discarding comments and blank lines")
