"""What the input path of ``lindcg metrics`` holds while it reads."""

import io
import math
import random
import tracemalloc

import lindcg.io
from lindcg.io import _grouped, _rows
from lindcg.report import build_aggregate_report


class _Recorded(io.StringIO):
    """A text stream that counts the characters read from it."""

    consumed = 0

    def read(self, size=-1):
        text = super().read(size)
        self.consumed += len(text)
        return text


def _line_ends(lines):
    """The offset just past each line of the joined text."""
    ends, total = [], 0
    for line in lines:
        total += len(line)
        ends.append(total)
    return ends


def test_rows_pull_a_score_block_only_as_the_data_rows_need_it(monkeypatch):
    """Each chunk of an SVMLight source comes as soon as its data block is read, and
    the score file is read, a block at a time, only as far as the chunks so far need:
    the score text held follows one data block, not the score file."""
    block = 64
    lines = [f"{i % 3} qid:q{i // 9} 1:0.5 2:0.25\n" for i in range(200)]
    score_lines = [f"0.{i}\n" for i in range(len(lines))]
    text, line_ends, score_ends = "".join(lines), _line_ends(lines), _line_ends(score_lines)

    def whole_blocks(offset):
        return math.ceil(offset / block) * block

    monkeypatch.setattr(lindcg.io, "_BLOCK_CHARS", block)
    data, scores = _Recorded(text), _Recorded("".join(score_lines))
    rows = 0
    for _, grades, row_scores in _rows(data, "svmlight", scores):
        assert row_scores == [float(f"0.{i}") for i in range(rows, rows + len(grades))]
        rows += len(grades)
        if rows < len(lines):  # the last chunk holds the scores left after the data
            assert data.consumed <= whole_blocks(line_ends[rows - 1])
            assert scores.consumed <= whole_blocks(score_ends[rows - 1])
            assert scores.consumed < score_ends[-1]
    assert rows == len(lines)


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
