"""The query-at-a-time stream of ``lindcg metrics`` against the in-memory path."""

import io
import math
import random
import tracemalloc
import weakref
from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lindcg.io
from lindcg.core import QueryGroup
from lindcg.errors import LindcgError
from lindcg.io import _grouped, _rows, _stream_groups, _StreamAbandoned
from lindcg.report import build_aggregate_report, render_json

_QUERY_IDS = ("a", "b", "c", "d")
_FAULTS = (None, None, None, "malformed", "grade 31", "bad score", "few scores", "many scores")


@st.composite
def _cases(draw):
    """An input of contiguous queries, with at most one reappearing id and one fault."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=len(_QUERY_IDS)))
    rows = [
        (query_id, draw(st.sampled_from([0, 0, 1, 2, 3, 30])),
         draw(st.sampled_from(["0.5", "0.25", "1", "-2", "3e-1", "7"])))
        for query_id, size in zip(_QUERY_IDS, sizes) for _ in range(size)
    ]
    return {
        "fmt": draw(st.sampled_from(["tsv", "scores", "inline"])),
        "rows": rows,
        "breaks": draw(st.lists(st.sampled_from(["\n", "\n", "\r\n"]),
                                min_size=len(rows) + 1, max_size=len(rows) + 1)),
        "comments": draw(st.lists(st.integers(0, len(rows)), max_size=2)),
        "reappear": draw(st.one_of(st.none(), st.integers(0, len(rows)))),
        "fault": draw(st.sampled_from(_FAULTS)),
        "at": draw(st.integers(0, len(rows) - 1)),
        "num_grades": draw(st.sampled_from([None, None, 4])),
        "block_chars": draw(st.integers(1, 64)),
    }


def _texts(case):
    """The data text, the score-file text or None, and whether the queries are contiguous."""
    rows = list(case["rows"])
    if case["reappear"] is not None:
        rows.insert(case["reappear"], ("a", 1, "0.5"))  # "a" comes first, so it has finished
    fault, at = case["fault"], min(case["at"], len(rows) - 1)
    query_id, grade, score = rows[at]
    if fault == "grade 31":
        rows[at] = (query_id, 31, score)
    elif fault == "bad score":
        rows[at] = (query_id, grade, "nan")
    fmt = case["fmt"]
    lines = []
    for query_id, grade, score in rows:
        if fmt == "tsv":
            lines.append(f"{query_id}\t{grade}\t{score}")
        else:
            comment = f" # score={score}" if fmt == "inline" else ""
            lines.append(f"{grade} qid:{query_id} 1:0.5{comment}")
    if fault == "malformed":
        lines[at] = "x qid:a" if fmt != "tsv" else "a\t1"
    score_lines = [score for _, _, score in rows]
    if fault == "few scores":
        del score_lines[at]
    elif fault == "many scores":
        score_lines.insert(at, "0.5")
    for position in sorted(case["comments"], reverse=True):
        lines.insert(min(position, len(lines)), "# a comment")
        score_lines.insert(min(position, len(score_lines)), "# a comment")
    breaks = case["breaks"]
    text = "".join(line + end for line, end in zip(lines, breaks * 2))
    scores = "".join(line + end for line, end in zip(score_lines, breaks * 2))
    runs = [query_id for query_id, _ in groupby(query_id for query_id, _, _ in rows)]
    return text, scores if fmt == "scores" else None, len(runs) == len(set(runs))


def _in_memory(fmt, text, scores, num_grades):
    """The rendered report of the in-memory path, or the type and message of its error."""
    scores = None if scores is None else io.StringIO(scores)
    try:
        # The groups are a generator, which raises _rows' error only as it is consumed.
        report = build_aggregate_report(_grouped(_rows(io.StringIO(text), fmt, scores,
                                                       num_grades)))
    except LindcgError as error:
        return type(error), str(error)
    return render_json(report)


def _streamed(fmt, text, scores, num_grades):
    """The rendered report of the stream, the type and message of its error, or None if
    the stream gave up."""
    scores = None if scores is None else io.StringIO(scores)
    try:
        return render_json(build_aggregate_report(
            _stream_groups(io.StringIO(text), fmt, scores, num_grades)))
    except LindcgError as error:
        return type(error), str(error)
    except _StreamAbandoned:
        return None


def _case(fmt, rows, **changes):
    case = {"fmt": fmt, "rows": rows, "breaks": ["\n"] * (len(rows) + 1), "comments": [],
            "reappear": None, "fault": None, "at": 0, "num_grades": None, "block_chars": 64}
    return {**case, **changes}


_ROWS = [("a", 2, "0.5"), ("a", 0, "0.25"), ("b", 1, "1"), ("b", 3, "1"), ("c", 0, "-2")]


@settings(max_examples=200, deadline=None)
@given(case=_cases())
@example(case=_case("tsv", _ROWS, reappear=5))  # "a" again as the last row
@example(case=_case("scores", _ROWS, reappear=5, block_chars=1))
@example(case=_case("inline", _ROWS, reappear=3, breaks=["\r\n"] * 6, comments=[2]))
@example(case=_case("scores", _ROWS, fault="few scores", at=4))
@example(case=_case("scores", _ROWS, fault="many scores", at=4))
@example(case=_case("scores", _ROWS, fault="bad score", at=4, block_chars=3))
@example(case=_case("tsv", _ROWS, fault="grade 31", at=4, block_chars=1))
@example(case=_case("inline", _ROWS, fault="malformed", at=4, comments=[0, 5]))
def test_the_stream_gives_the_in_memory_report_or_gives_up(case):
    """The stream and the in-memory path give the same report or the same error, or
    the stream gives up.

    It may give up only on input whose queries are interleaved, where the
    CLI then runs the in-memory path.
    """
    text, scores, contiguous = _texts(case)
    fmt = "tsv" if case["fmt"] == "tsv" else "svmlight"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lindcg.io, "_BLOCK_CHARS", case["block_chars"])
        expected = _in_memory(fmt, text, scores, case["num_grades"])
        streamed = _streamed(fmt, text, scores, case["num_grades"])
    if streamed is None:
        assert not contiguous
    else:
        assert streamed == expected


class _Recorded(io.StringIO):
    """A text stream that counts the characters read from it."""

    consumed = 0

    def read(self, size=-1):
        text = super().read(size)
        self.consumed += len(text)
        return text


class _Tracked(QueryGroup):
    """A QueryGroup that a weak reference can follow."""

    __slots__ = ("__weakref__",)


def _line_ends(lines):
    """The offset just past each line of the joined text."""
    ends, total = [], 0
    for line in lines:
        total += len(line)
        ends.append(total)
    return ends


@pytest.mark.parametrize("fmt", ["tsv", "svmlight"])
def test_the_stream_frees_each_query_and_reads_no_block_ahead(monkeypatch, fmt):
    """Each query is yielded once the block holding the next query's first line is
    read, with the score file read only as far as those rows need, and every query
    yielded before is freed: the rows held follow the largest query and one block."""
    block = 64
    sizes = [7, 30, 1, 12, 25, 3]
    query_ids = [f"q{index}" for index, size in enumerate(sizes) for _ in range(size)]
    if fmt == "tsv":
        lines = [f"{query_id}\t{i % 3}\t0.{i}\n" for i, query_id in enumerate(query_ids)]
    else:
        lines = [f"{i % 3} qid:{query_id} 1:0.5 2:0.25\n" for i, query_id in enumerate(query_ids)]
    score_lines = [f"0.{i}\n" for i in range(len(query_ids))]
    text, line_ends, score_ends = "".join(lines), _line_ends(lines), _line_ends(score_lines)
    firsts = [query_ids.index(f"q{index}") for index in range(len(sizes))]

    def whole_blocks(offset):
        return math.ceil(offset / block) * block

    def stream():
        data = _Recorded(text)
        scores = _Recorded("".join(score_lines))
        return data, scores, _stream_groups(data, fmt, scores if fmt == "svmlight" else None)

    monkeypatch.setattr(lindcg.io, "_BLOCK_CHARS", block)
    monkeypatch.setattr(lindcg.io, "QueryGroup", _Tracked)
    data, scores, groups = stream()
    refs = []
    index = 0
    for group in groups:
        assert all(ref() is None for ref in refs)  # every query yielded before is freed
        refs.append(weakref.ref(group))
        first = firsts[index]
        assert group.grades == tuple(i % 3 for i in range(first, first + sizes[index]))
        if index + 1 < len(sizes):
            # Yielded once the next query's first line is read, and no later.
            assert data.consumed <= whole_blocks(line_ends[firsts[index + 1]])
            rows_read = text.count("\n", 0, data.consumed)
            if fmt == "svmlight":  # the score file is read in step, a block at a time
                assert scores.consumed <= whole_blocks(score_ends[rows_read - 1])
        if index == 0:  # neither file has been read whole
            assert data.consumed < len(text)
            assert fmt == "tsv" or scores.consumed < score_ends[-1]
        index += 1
    assert index == len(sizes)

    def watched(groups):
        refs = []
        for group in groups:
            # The report has let go of every group but the one it evaluated last.
            assert all(ref() is None for ref in refs[:-1])
            refs.append(weakref.ref(group))
            yield group

    report = build_aggregate_report(watched(stream()[2]))
    assert [r.num_items for r in report.per_query] == sizes


def test_the_in_memory_path_holds_a_row_in_a_few_bytes(tmp_path):
    """Interleaved rows wait for the end of the input as a grade byte and a score
    double, and each group is built only when it is evaluated, so the traced peak
    follows the rows, not Python objects built around them."""
    rng = random.Random(0)
    query_ids = [f"q{query:04d}" for query in range(1000) for _ in range(100)]
    rng.shuffle(query_ids)
    path = tmp_path / "interleaved.tsv"
    path.write_text("".join(f"{query_id}\t{rng.randrange(5)}\t{rng.random():.6f}\n"
                            for query_id in query_ids), encoding="utf-8")
    tracemalloc.start()
    try:
        report = build_aggregate_report(_grouped(_rows(str(path), "tsv")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.per_query) == 1000
    # About 26 bytes a row, blocks and per-query results included; 55 when every row
    # was held as a float and two list slots until the report was built.
    assert peak / len(query_ids) < 40
