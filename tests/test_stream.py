"""What the input path of ``lindcg metrics`` holds while it reads."""

import io
import math
import random
import tracemalloc

import pytest

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

    def whole_blocks(offset, width=block):
        return math.ceil(offset / width) * width

    monkeypatch.setattr(lindcg.io, "_BLOCK_CHARS", block)
    data, scores = _Recorded(text), _Recorded("".join(score_lines))
    rows = 0
    for _, grades, row_scores in _rows(data, "svmlight", scores):
        assert row_scores == [float(f"0.{i}") for i in range(rows, rows + len(grades))]
        rows += len(grades)
        if rows < len(lines):  # the last chunk holds the scores left after the data
            # SVMLight data is read in blocks _SVMLIGHT_SCALE times as wide.
            assert data.consumed <= whole_blocks(line_ends[rows - 1],
                                                 lindcg.io._SVMLIGHT_SCALE * block)
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
    # About 16 bytes a row, blocks and per-query results included; 27 with blocks of
    # 65,536 characters.
    assert peak / len(query_ids) < 25


def _block_width(block):
    """The characters of a block as ``_read_blocks`` hands it on, each line break one."""
    return len(block) if isinstance(block, str) else sum(map(len, block)) + len(block)


@pytest.mark.parametrize("fmt", ["tsv", "scored", "inline"])
def test_each_reader_reads_blocks_of_its_own_width(monkeypatch, fmt):
    """Each reader reads its source ``_BLOCK_CHARS`` characters at a time, SVMLight data
    ``_SVMLIGHT_SCALE`` times that, with the size read when the reader starts: so a
    block holds one read's whole lines and at most one line begun in the read before."""
    block = 32
    rows = range(300)
    if fmt == "tsv":
        data, scores = "".join(f"q{i % 7}\t{i % 3}\t{i / 7}\n" for i in rows), None
    elif fmt == "scored":
        data = "".join(f"{i % 3} qid:q{i % 7} 1:{i / 8} 2:0.5\n" for i in rows)
        scores = "".join(f"{i / 16}\n" for i in rows)
    else:
        data, scores = "".join(f"{i % 3} qid:q{i % 7} 1:0.5 # score={i / 8}\n" for i in rows), None
    streams = {io.StringIO(data): block if fmt == "tsv" else lindcg.io._SVMLIGHT_SCALE * block}
    if scores:
        streams[io.StringIO(scores)] = block
    widths = {stream: [] for stream in streams}
    read_blocks = lindcg.io._read_blocks

    def recorded(source, *scale):
        for handed in read_blocks(source, *scale):
            widths[source].append(_block_width(handed))
            yield handed

    monkeypatch.setattr(lindcg.io, "_read_blocks", recorded)
    monkeypatch.setattr(lindcg.io, "_BLOCK_CHARS", block)
    data_stream, *score_stream = streams
    chunks = list(_rows(data_stream, "tsv" if fmt == "tsv" else "svmlight",
                        *score_stream))
    assert sum(len(grades) for _, grades, _ in chunks) == len(rows)
    for stream, size in streams.items():
        text = stream.getvalue()
        longest = max(map(len, text.splitlines(keepends=True)))
        assert sum(widths[stream]) == len(text)
        assert len(widths[stream]) > 2
        for width in widths[stream][:-1]:  # the last block is what is left
            assert size - longest < width <= size + longest, (fmt, size, width)


@pytest.mark.parametrize("fmt", ["tsv", "svmlight"])
def test_a_block_in_flight_costs_a_few_hundred_kilobytes(tmp_path, fmt):
    """About 100,000 rows read whole: the traced peak stays within a few hundred
    kilobytes of the columns held once the last row is read, since no more than one
    block's text, cells and column lists are alive at a time."""
    rng = random.Random(0)
    query_ids = [f"q{query:04d}" for query in range(1000) for _ in range(100)]
    path = tmp_path / f"rows.{fmt}"
    if fmt == "tsv":
        rng.shuffle(query_ids)  # interleaved
        path.write_text("".join(f"{query_id}\t{rng.randrange(5)}\t{rng.random():.6f}\n"
                                for query_id in query_ids), encoding="utf-8")
        args = (str(path), "tsv")
        bound = 500_000
    else:
        features = [" ".join(f"{k}:{rng.random():.4f}" for k in range(1, 11))
                    for _ in range(64)]
        path.write_text("".join(f"{rng.randrange(5)} qid:{query_id} {rng.choice(features)}\n"
                                for query_id in query_ids), encoding="utf-8")
        scores = tmp_path / "rows.scores"
        scores.write_text("".join(f"{rng.random():.6f}\n" for _ in query_ids),
                          encoding="utf-8")
        args = (str(path), "svmlight", str(scores))
        bound = 800_000
    tracemalloc.start()
    try:
        groups = _grouped(_rows(*args))
        next(groups)  # every row is read before the first group is built
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    groups.close()
    # About 0.36 MB on TSV and 0.57 MB on SVMLight lines of about 100 characters with a
    # score file; 1.3 to 1.4 MB if every reader reads 65,536 characters at a time.
    assert peak - held < bound
