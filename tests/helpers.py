"""Shared builders for test groups, and oracle compositions the tests share."""

from __future__ import annotations

import io
import math
import random
import re
import socket
from contextlib import contextmanager, redirect_stderr, redirect_stdout

from lindcg.cli import main
from lindcg.core import QueryGroup, RankedView
from lindcg.errors import EmptyFileError, ParseError, ScoreCountMismatchError
from lindcg.metrics import identity_sums
from lindcg.oracles import binarize, dcg_linear, pairwise_loss_naive, rank_by_score

# A ParseError counts every rejected line of its file and names the first 20.
KEPT_FAULTS = 20


def run_main(argv):
    """``lindcg argv`` run in this process: (exit code, stdout, stderr).

    The code is what ``main`` returns, or what it exits with, as argparse
    does on a usage error and after ``--help``.  Any other exception
    propagates, so a traceback fails the test.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


@contextmanager
def unix_socket(path):
    """A UNIX socket bound at ``path`` while the block runs: a path that exists,
    and that ``open`` refuses with ENXIO.  A socket's path must be short,
    about 100 bytes at most."""
    with socket.socket(socket.AF_UNIX) as sock:
        sock.bind(str(path))
        yield str(path)


def ideal(grades):
    """The grades in non-increasing order: the ranking of highest linear DCG."""
    return tuple(sorted(grades, reverse=True))


def dcg_error(group: QueryGroup) -> int:
    """Ideal minus observed linear DCG, from the oracle references."""
    return dcg_linear(ideal(group.grades)) - dcg_linear(rank_by_score(group))


def grouped(query_ids, grades, scores) -> list[QueryGroup]:
    """Parallel columns as the readers return them: one group per query id,
    sorted by id, with items in column order."""
    rows: dict[str, list[tuple[int, float]]] = {}
    for query_id, grade, score in zip(query_ids, grades, scores, strict=True):
        rows.setdefault(query_id, []).append((grade, score))
    return [QueryGroup(query_id, *zip(*items)) for query_id, items in sorted(rows.items())]


def make_group(grades, scores, query_id="q"):
    return QueryGroup(query_id, grades, map(float, scores))


def group_from_ranking(grades_in_rank_order, query_id="q"):
    """Group whose score-induced ranking is exactly the given grade order."""
    n = len(grades_in_rank_order)
    scores = [float(n - i) for i in range(n)]
    return make_group(grades_in_rank_order, scores, query_id)


def random_group(rng: random.Random, max_items=50, max_grades=5,
                 allow_ties=False, query_id="q"):
    """Seeded random group; with allow_ties, roughly half draw tie-prone scores."""
    size = rng.randint(1, max_items)
    alphabet = rng.randint(2, max_grades)
    grades = [rng.randrange(alphabet) for _ in range(size)]
    if allow_ties and rng.random() < 0.5:
        # Coarse integer grid forces score collisions.
        scores = [float(rng.randint(0, max(1, size // 3))) for _ in range(size)]
    else:
        scores = []
        seen = set()
        while len(scores) < size:
            s = rng.random()
            if s not in seen:
                seen.add(s)
                scores.append(s)
    return make_group(grades, scores, query_id)


def rebuilt_multipartite_record(group: QueryGroup):
    """The multipartite check's integers, assembled from binarized copies of the group.

    Returns ``(per_threshold, split, total)``: the ``(DCG error, loss)`` pair
    of each threshold k from 0 below the top grade, the ``(DCG, sum over
    thresholds)`` pair of the split and the ``(DCG error, weighted loss)``
    pair of the whole group.  Each threshold pair builds the group binarized
    at k, ranks it again and counts its loss over every item pair; the split
    binarizes the observed ranking once per threshold.  An oracle for the
    ranked-view check, which reads one sweep of the full grades instead.
    """
    observed = rank_by_score(group)
    thresholds = range(max(group.grades))
    per_threshold = []
    for k in thresholds:
        sub = binarize(group, k)
        per_threshold.append((dcg_error(sub), pairwise_loss_naive(sub)[0]))
    split = (dcg_linear(observed),
             sum(dcg_linear(1 if g > k else 0 for g in observed) for k in thresholds))
    total = (dcg_error(group), pairwise_loss_naive(group)[0])
    return tuple(per_threshold), split, total


def view_integers(view: RankedView):
    """The view's ``identity_sums`` laid out as ``rebuilt_multipartite_record``
    lays out the oracle's: each run's pair repeated once for every threshold
    of the run, then the split and the total pairs."""
    sums = identity_sums(view)
    per_threshold = tuple(pair for width, pair in zip(view.run_widths,
                                                      zip(sums.run_lhs, sums.run_losses))
                          for _ in range(width))
    return per_threshold, (sums.dcg, sums.split_rhs), (sums.ideal_dcg - sums.dcg, sums.loss)


def _data_lines_by_line(text: str, errors: list):
    """(line number, line) of each non-blank, non-comment line; undecodable lines go to errors."""
    for lineno, line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        if not line.strip() or line.strip().startswith("#"):
            continue
        if re.search("[\udc80-\udcff]", line):
            errors.append((lineno, "invalid UTF-8"))
        else:
            yield lineno, line


def _quoted_by_line(cell: str) -> str:
    """The cell as a fault message quotes it: its repr, cut to 40 characters and "..."."""
    return repr(cell) if len(cell) <= 40 else repr(cell[:40]) + "..."


def _number_by_line(number: int) -> str:
    """The number as a fault message writes it: unquoted, cut to 40 characters and "..."."""
    text = str(number)
    return text if len(text) <= 40 else text[:40] + "..."


def _grade_by_line(text: str, num_grades):
    """(grade, None) for an ASCII integer grade the readers accept, else (None, reason)."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        return None, f"grade {_quoted_by_line(text)} is not an integer"
    grade = int(text)
    if grade < 0:
        return None, f"negative grade {_number_by_line(grade)}"
    if num_grades is not None and grade >= num_grades:
        return None, (f"grade {_number_by_line(grade)} outside declared alphabet"
                      f" of {_number_by_line(num_grades)}")
    if grade > 30:  # 2**grade - 1, the classical gain, is exact in a double up to 30
        return None, f"grade {_number_by_line(grade)} exceeds the classical-gain cap of 30"
    return grade, None


def _score_by_line(text: str):
    """(score, None) for a finite ASCII number without digit separators, else (None, reason)."""
    try:
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        score = float(text)
    except ValueError:
        return None, f"score {_quoted_by_line(text)} is not a number"
    if not math.isfinite(score):
        return None, f"non-finite score {_quoted_by_line(text)}"
    return score, None


def parse_tsv_by_line(text: str, num_grades=None):
    """TSV text parsed one line at a time with the documented rules.

    Returns ``(query_ids, grades, scores, errors)``, the columns of the
    accepted rows and the ``(line number, reason)`` of each rejected line.
    An oracle for the column-at-a-time block parse of ``parse_tsv``.
    """
    query_ids, grades, scores, errors = [], [], [], []
    for lineno, line in _data_lines_by_line(text, errors):
        fields = [field.strip() for field in line.split("\t")]
        if len(fields) != 3:
            errors.append((lineno, f"expected 3 tab-separated fields, got {len(fields)}"))
            continue
        query_id, grade_text, score_text = fields
        if not query_id:
            errors.append((lineno, "empty query id"))
            continue
        grade, reason = _grade_by_line(grade_text, num_grades)
        if reason:
            errors.append((lineno, reason))
            continue
        score, reason = _score_by_line(score_text)
        if reason:
            errors.append((lineno, reason))
            continue
        query_ids.append(query_id)
        grades.append(grade)
        scores.append(score)
    return tuple(query_ids), tuple(grades), tuple(scores), errors


def parse_svmlight_by_line(text: str, scores: str | None = None, num_grades=None):
    """SVMLight text, with an optional score-file text, parsed one line at a time.

    Returns the query groups that ``parse_svmlight`` returns, or raises
    the error it raises: the score file's malformed lines first, then a
    score count that differs from the data rows, then the data's malformed
    lines, then an empty file.  An oracle for the head-only block reads of
    ``parse_svmlight`` and of its score-file reader.
    """
    row_scores = []
    if scores is not None:
        errors = []
        for lineno, line in _data_lines_by_line(scores, errors):
            score, reason = _score_by_line(line.strip())
            if reason:
                errors.append((lineno, reason))
            else:
                row_scores.append(score)
        if errors:
            raise ParseError([(n, f"score file: {reason}") for n, reason in errors[:KEPT_FAULTS]],
                             accepted_count=len(row_scores), rejected_count=len(errors))
    query_ids, grades, errors = [], [], []
    for lineno, line in _data_lines_by_line(text, errors):
        body, _, comment = line.partition("#")
        tokens = body.split()
        if len(tokens) < 2:
            errors.append((lineno, "expected 'grade qid:ID ...'"))
            continue
        grade, reason = _grade_by_line(tokens[0], num_grades)
        if reason:
            errors.append((lineno, reason))
            continue
        if not tokens[1].startswith("qid:") or tokens[1] == "qid:":
            errors.append((lineno, f"second token {_quoted_by_line(tokens[1])} is not 'qid:ID'"))
            continue
        if scores is None:
            found = re.search(r"(?:^|\s)score\s*=\s*(\S+)", comment)
            if not found:
                errors.append((lineno, "missing score (no companion file and no '# score=V')"))
                continue
            score, reason = _score_by_line(found[1])
            if reason:
                errors.append((lineno, reason))
                continue
            row_scores.append(score)
        query_ids.append(tokens[1][4:])
        grades.append(grade)
    data_rows = len(grades) + len(errors)
    if scores is not None and len(row_scores) != data_rows:
        raise ScoreCountMismatchError(
            f"{data_rows} data rows but {len(row_scores)} scores in the companion file")
    if errors:
        raise ParseError(errors[:KEPT_FAULTS], accepted_count=len(grades),
                         rejected_count=len(errors))
    if not grades:
        raise EmptyFileError("no records after discarding comments and blank lines")
    return grouped(query_ids, grades, row_scores)
