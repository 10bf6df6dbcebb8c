import errno
import inspect
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections.abc import Iterator
from functools import partial
from pathlib import Path

import pytest

import lindcg
import lindcg.cli
import lindcg.io
import lindcg.metrics
import lindcg.oracles
import lindcg.report
from helpers import run_main, unix_socket
from lindcg.cli import MAX_EXHAUSTIVE_RANKINGS, MAX_RANDOM_ITEM_GRADES

DATA = Path(__file__).parent / "data"

GOLDEN_TSV = (
    "g\t1\t6\n"
    "g\t0\t5\n"
    "g\t0\t4\n"
    "g\t1\t3\n"
    "g\t1\t2\n"
    "g\t0\t1\n"
    "a\t2\t0.5\n"
)


@pytest.fixture()
def golden_file(tmp_path):
    path = tmp_path / "golden.tsv"
    path.write_text(GOLDEN_TSV, encoding="utf-8")
    return str(path)


def test_metrics_json_reports_golden_values(golden_file):
    code, stdout, stderr = run_main(["metrics", "--input", golden_file, "--output", "json"])
    assert code == 0, stderr
    payload = json.loads(stdout)
    assert payload["num_queries"] == 2
    assert payload["verification"] == {"passed": 2, "failed": 0, "tie_flagged": 0}
    by_id = {row["query_id"]: row for row in payload["queries"]}
    golden = by_id["g"]
    assert golden["dcg_linear"] == 8
    assert golden["ideal_dcg_linear"] == 12
    assert golden["ndcg_linear"] == 0.666667
    assert golden["dcg_error_linear"] == 4
    assert golden["pairwise_loss"] == 4
    assert golden["normalizer_z"] == 9
    assert golden["identity"] == "passed"
    assert by_id["a"]["degenerate_linear"] is True
    # Queries are emitted in sorted order.
    assert [row["query_id"] for row in payload["queries"]] == ["a", "g"]


def test_metrics_json_output_is_byte_identical_across_runs(golden_file):
    args = ["metrics", "--input", golden_file, "--output", "json"]
    first = run_main(args)
    assert first[0] == 0
    assert run_main(args) == first


def test_metrics_text_output(golden_file):
    code, stdout, stderr = run_main(["metrics", "--input", golden_file])
    assert code == 0
    assert "identity_checks: passed=2 failed=0 tie_flagged=0" in stdout
    assert "queries=2" in stdout


def test_metrics_csv_output(golden_file):
    code, stdout, stderr = run_main(["metrics", "--input", golden_file, "--output", "csv"])
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("query_id,")
    assert lines[2].startswith("g,6,8,12,")


def test_metrics_rejects_malformed_input(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("q\tnot_a_grade\t0.5\n", encoding="utf-8")
    code, stdout, stderr = run_main(["metrics", "--input", str(bad)])
    assert code == 2
    assert "error:" in stderr
    assert "line 1" in stderr


def test_metrics_rejects_comment_only_input(tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("# nothing here\n", encoding="utf-8")
    code, stdout, stderr = run_main(["metrics", "--input", str(empty)])
    assert code == 2


def test_metrics_rejects_missing_file(tmp_path):
    code, stdout, stderr = run_main(["metrics", "--input", str(tmp_path / "absent.tsv")])
    assert code == 2
    assert stderr.endswith(": No such file or directory\n")


SCORED = str(DATA / "metrics_scored.svmlight")
# The arguments of `metrics` that read a path as its input, and as its scores.
PATH_ARGS = [
    lambda path: ["--input", path],
    lambda path: ["--input", SCORED, "--format", "svmlight", "--scores", path],
]


def _assert_cannot_read(run, path):
    """``run``, a ``run_main`` result, exited 2 with no stdout and one short
    stderr line that names ``path``."""
    code, stdout, stderr = run
    assert (code, stdout) == (2, "")
    assert stderr.startswith(f"error: cannot read {path!r}: "), stderr
    assert stderr.count("\n") == 1 and stderr.endswith("\n")
    assert len(stderr.encode()) < 1024


@pytest.mark.parametrize("make_args", PATH_ARGS, ids=["input", "scores"])
def test_a_socket_path_exits_2_with_one_line_naming_it(tmp_path, monkeypatch, make_args):
    """A socket exists and is no directory, but ``open`` refuses it (ENXIO)."""
    monkeypatch.chdir(tmp_path)
    with unix_socket("in.sock") as path:
        _assert_cannot_read(run_main(["metrics", *make_args(path)]), path)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc/self/mem")
@pytest.mark.parametrize("make_args", PATH_ARGS, ids=["input", "scores"])
def test_a_read_error_exits_2_with_one_line_naming_the_path(make_args):
    """/proc/self/mem opens, and its first read fails with EIO, an error that
    names no file: the reader names the path."""
    run = run_main(["metrics", *make_args("/proc/self/mem")])
    _assert_cannot_read(run, "/proc/self/mem")
    assert run[2].endswith(": Input/output error\n")


def test_metrics_num_grades_must_cover_observed_grades(golden_file):
    code, stdout, stderr = run_main(["metrics", "--input", golden_file, "--num-grades", "2"])
    assert code == 2  # the file holds a grade-2 item


def test_metrics_num_grades_lower_bound(golden_file):
    code, stdout, stderr = run_main(["metrics", "--input", golden_file, "--num-grades", "1"])
    assert code == 2


def test_metrics_scores_option_requires_svmlight(golden_file):
    code, stdout, stderr = run_main(["metrics", "--input", golden_file,
                                       "--scores", golden_file])
    assert code == 2


def test_metrics_reads_svmlight_with_companion_scores(tmp_path):
    data = tmp_path / "train.txt"
    data.write_text(
        "1 qid:1 1:0.1 2:0.2\n0 qid:1 1:0.3\n1 qid:2 1:0.5 # score=9.9\n",
        encoding="utf-8",
    )
    preds = tmp_path / "preds.txt"
    preds.write_text("0.9\n0.4\n0.7\n", encoding="utf-8")
    code, stdout, stderr = run_main([
        "metrics",
        "--input", str(data),
        "--format", "svmlight",
        "--scores", str(preds),
        "--output", "json",
    ])
    assert code == 0, stderr
    payload = json.loads(stdout)
    assert payload["num_queries"] == 2
    assert {row["query_id"] for row in payload["queries"]} == {"1", "2"}
    assert payload["queries"][0]["ndcg_linear"] == 1.0


def test_metrics_flags_tie_afflicted_queries(tmp_path):
    data = tmp_path / "ties.tsv"
    data.write_text("q\t0\t0.5\nq\t1\t0.5\n", encoding="utf-8")
    code, stdout, stderr = run_main(["metrics", "--input", str(data), "--output", "json"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["verification"]["tie_flagged"] == 1
    assert payload["queries"][0]["identity"] == "tie_flagged"


def test_metrics_json_matches_the_golden_report():
    # Tied groups, an all-zero group, a single item and sparse grades up to 30.
    code, stdout, stderr = run_main(["metrics", "--input", str(DATA / "metrics_mixed.tsv"),
                                       "--output", "json"])
    assert code == 0, stderr
    assert stdout == (DATA / "metrics_mixed.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("output, golden", [
    ("json", "metrics_fine.json"),
    ("csv", "metrics_fine.csv"),
    ("text", "metrics_fine.txt"),
])
def test_metrics_on_a_high_alphabet_match_the_golden_reports(output, golden):
    # Gapped grades up to 30, a query without grade 0, tied, all-zero and one-item queries.
    code, stdout, stderr = run_main(["metrics", "--input", str(DATA / "metrics_fine.tsv"),
                                       "--output", output])
    assert code == 0, stderr
    assert stdout == (DATA / golden).read_text(encoding="utf-8")


def _data_input_args(name):
    """The ``metrics`` arguments that read ``tests/data/<name>``, with its score file if any."""
    path = DATA / name
    args = ["--input", str(path), "--format", path.suffix[1:]]
    if path.with_suffix(".scores").exists():
        args += ["--scores", str(path.with_suffix(".scores"))]
    return args


@pytest.mark.parametrize("output", ["json", "text", "csv"])
@pytest.mark.parametrize("name", sorted(
    path.name for path in DATA.iterdir() if path.suffix in (".tsv", ".svmlight")))
def test_metrics_output_does_not_depend_on_a_declared_alphabet(name, output):
    args = ["metrics", *_data_input_args(name), "--output", output]
    results = [run_main(args + declared)
               for declared in ([], ["--num-grades", "31"], ["--num-grades", "200000"])]
    assert [code for code, _, _ in results] == [0, 0, 0]
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("name, scores", [
    ("metrics_inline", None),
    ("metrics_scored", "metrics_scored.scores"),
])
def test_metrics_svmlight_json_matches_the_golden_report(name, scores):
    # Tied groups, an all-zero group and, inline, a single item.
    args = ["metrics", "--input", str(DATA / f"{name}.svmlight"), "--format", "svmlight",
            "--output", "json"]
    if scores:
        args += ["--scores", str(DATA / scores)]
    code, stdout, stderr = run_main(args)
    assert code == 0, stderr
    assert stdout == (DATA / f"{name}.json").read_text(encoding="utf-8")


# Every golden input with its report: (input, scores, output format, golden report).
GOLDEN_RUNS = [
    ("metrics_mixed.tsv", None, "json", "metrics_mixed.json"),
    ("metrics_fine.tsv", None, "json", "metrics_fine.json"),
    ("metrics_fine.tsv", None, "csv", "metrics_fine.csv"),
    ("metrics_fine.tsv", None, "text", "metrics_fine.txt"),
    ("metrics_inline.svmlight", None, "json", "metrics_inline.json"),
    ("metrics_scored.svmlight", "metrics_scored.scores", "json", "metrics_scored.json"),
    ("metrics_escape.tsv", None, "json", "metrics_escape.json"),
]


def _data_lines(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip() and not line.lstrip().startswith("#")]


def _interleave(data_path, scores_path, out_dir):
    """Write the data rows, and their scores, dealt round-robin across queries.

    Each query keeps its rows in file order, so its report is unchanged,
    but no query's rows stay together.
    """
    rows = _data_lines(data_path)
    scores = _data_lines(scores_path) if scores_path else rows
    by_query = {}
    for row, score in zip(rows, scores, strict=True):
        query_id = row.split("\t")[0] if data_path.suffix == ".tsv" else row.split()[1]
        by_query.setdefault(query_id, []).append((row, score))
    dealt = [pair for turn in itertools.zip_longest(*by_query.values()) for pair in turn if pair]
    data_out = out_dir / data_path.name
    data_out.write_text("".join(f"{row}\n" for row, _ in dealt), encoding="utf-8")
    if scores_path is None:
        return data_out, None
    scores_out = out_dir / scores_path.name
    scores_out.write_text("".join(f"{score}\n" for _, score in dealt), encoding="utf-8")
    return data_out, scores_out


def _piped(path, read_ends):
    """A /dev/fd path that reads the file's text once, as ``--input <(zcat ...)`` does."""
    read_end, write_end = os.pipe()
    data = path.read_bytes()
    assert os.write(write_end, data) == len(data)  # small inputs fit the pipe's buffer
    os.close(write_end)
    read_ends.append(read_end)
    return f"/dev/fd/{read_end}"


HAS_DEV_FD = Path("/dev/fd").is_dir()
needs_dev_fd = pytest.mark.skipif(not HAS_DEV_FD, reason="needs /dev/fd")


@pytest.mark.parametrize("name, scores, output, golden", GOLDEN_RUNS)
def test_metrics_matches_the_golden_report_streamed_and_read_whole(
        tmp_path, monkeypatch, name, scores, output, golden):
    """Each golden input, as it is and interleaved, from a file and through a pipe,
    is read whole, once."""
    read_whole = []
    grouped = lindcg.cli._grouped

    def counted(*args):
        read_whole.append(args)
        return grouped(*args)

    monkeypatch.setattr(lindcg.cli, "_grouped", counted)
    expected = (DATA / golden).read_text(encoding="utf-8")
    as_is = (DATA / name, scores and DATA / scores)
    interleaved = _interleave(*as_is, tmp_path)
    for piped in (True, False) if HAS_DEV_FD else (False,):
        for data, scores_path in (as_is, interleaved):
            read_whole.clear()
            read_ends = []
            path = partial(_piped, read_ends=read_ends) if piped else str
            fmt = "tsv" if data.suffix == ".tsv" else "svmlight"
            args = ["metrics", "--input", path(data), "--format", fmt, "--output", output]
            if scores_path:
                args += ["--scores", path(scores_path)]
            try:
                code, stdout, stderr = run_main(args)
            finally:
                for read_end in read_ends:
                    os.close(read_end)
            assert (code, stdout, stderr) == (0, expected, "")
            assert len(read_whole) == 1


@needs_dev_fd
@pytest.mark.parametrize("text, exit_code", [
    ("".join(f"q{i // 4}\t{i % 3}\t0.{i}\n" for i in range(40)) + "q9\tx\t0.5\n", 2),
    ("".join(f"q{i // 4}\t{i % 3}\t0.{i}\n" for i in range(40)) + "q9\t31\t0.5\n", 2),
    ("".join(f"q{i % 4}\t{i % 3}\t0.{i}\n" for i in range(40)) + "q9\t1\t0.5\n", 0),
], ids=["malformed", "grade-31", "interleaved"])
def test_metrics_reads_a_pipe_as_it_reads_a_file(tmp_path, monkeypatch, text,
                                                 exit_code):
    """A regular file and a pipe are each read whole, once, over several blocks, and
    give the same report, or the same error with the same line numbers."""
    read_whole = []
    grouped = lindcg.cli._grouped

    def counted(*args):
        read_whole.append(args)
        return grouped(*args)

    monkeypatch.setattr(lindcg.cli, "_grouped", counted)
    monkeypatch.setattr(lindcg.io, "_BLOCK_CHARS", 32)
    path = tmp_path / "data.tsv"
    path.write_text(text, encoding="utf-8")
    from_file = run_main(["metrics", "--input", str(path), "--output", "json"])
    assert len(read_whole) == 1
    read_ends = []
    try:
        piped = run_main(["metrics", "--input", _piped(path, read_ends), "--output", "json"])
    finally:
        os.close(read_ends[0])
    assert len(read_whole) == 2
    assert piped == from_file
    assert from_file[0] == exit_code


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs mkfifo")
def test_metrics_waits_for_a_fifo_writer_and_reports_what_it_writes(tmp_path):
    """A FIFO's reader that opens before its writer waits for it, as ``cat`` does, so
    ``mkfifo p; lindcg metrics --input p & producer > p`` reports the producer's rows."""
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    child = subprocess.Popen(
        [sys.executable, "-m", "lindcg.cli", "metrics", "--input", str(fifo), "--output", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    try:
        # A non-blocking open for writing fails with ENXIO until the child has opened
        # the FIFO for reading, so the writer comes second and the test cannot hang.
        deadline = time.monotonic() + 60
        while True:
            try:
                writer = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                break
            except OSError as exc:
                if exc.errno != errno.ENXIO or time.monotonic() > deadline:
                    raise
                assert child.poll() is None, child.communicate()
                time.sleep(0.01)
        try:
            data = (DATA / "metrics_mixed.tsv").read_bytes()
            assert os.write(writer, data) == len(data)  # it fits the FIFO's buffer
        finally:
            os.close(writer)
        stdout, stderr = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert (child.returncode, stdout, stderr) == (
        0, (DATA / "metrics_mixed.json").read_bytes(), b"")


@pytest.mark.parametrize("fmt", ["tsv", "svmlight"])
def test_metrics_reads_a_file_whose_last_row_reopens_its_first_query_once(
        tmp_path, monkeypatch, fmt):
    """Query-contiguous rows whose last row reopens the first query: the data file,
    and a score file, are each read once, over several blocks."""
    reads = []
    read_blocks = lindcg.io._read_blocks

    def counted(source, *scale):
        reads.append(source)
        return read_blocks(source, *scale)

    monkeypatch.setattr(lindcg.io, "_read_blocks", counted)
    monkeypatch.setattr(lindcg.io, "_BLOCK_CHARS", 32)
    rows = [(f"q{i // 4}", i % 3, f"0.{i}") for i in range(40)] + [("q0", 1, "0.5")]
    data = tmp_path / "reopened.txt"
    args = ["metrics", "--input", str(data), "--format", fmt, "--output", "json"]
    paths = [str(data)]
    if fmt == "tsv":
        data.write_text("".join(f"{q}\t{g}\t{s}\n" for q, g, s in rows), encoding="utf-8")
    else:
        data.write_text("".join(f"{g} qid:{q} 1:0.5\n" for q, g, _ in rows), encoding="utf-8")
        scores = tmp_path / "reopened.scores"
        scores.write_text("".join(f"{s}\n" for _, _, s in rows), encoding="utf-8")
        args += ["--scores", str(scores)]
        paths.append(str(scores))
    code, stdout, stderr = run_main(args)
    assert code == 0, stderr
    report = json.loads(stdout)
    assert [row["num_items"] for row in report["queries"]] == [5] + [4] * 9
    assert sorted(reads) == sorted(paths)


@pytest.mark.parametrize("fmt, data, scores, reason", [
    ("tsv", b"# caf\xe9\nq1\t1\t0.5\nq1\t0\t0.\xff2\n", None,
     "line 3: invalid UTF-8"),
    ("svmlight", b"1 qid:1 # score=0.5\n0 qid:\xff1 # score=0.2\n", None,
     "line 2: invalid UTF-8"),
    ("svmlight", b"1 qid:1\n0 qid:1\n", b"0.5\n\xff0.2\n",
     "line 2: score file: invalid UTF-8"),
], ids=["tsv", "svmlight", "scores"])
def test_metrics_reports_invalid_utf8_as_a_malformed_line(tmp_path, fmt, data,
                                                         scores, reason):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    args = ["metrics", "--input", str(path), "--format", fmt]
    if scores is not None:
        (tmp_path / "bad.scores").write_bytes(scores)
        args += ["--scores", str(tmp_path / "bad.scores")]
    code, stdout, stderr = run_main(args)
    assert code == 2
    assert stderr == f"error: 1 malformed line(s): {reason}\n"


@pytest.mark.parametrize("grade", [31, 255, 256, 1000])
def test_metrics_rejects_a_grade_above_the_classical_cap(tmp_path, grade):
    """Streamed from a file, and read whole from a pipe, where the rows of the blocks
    before the grade wait in arrays that hold a grade in one byte."""
    message = f"error: query 'q1': grade {grade} exceeds the classical-gain cap of 30\n"
    data = tmp_path / "big.tsv"
    data.write_text(f"q0\t1\t0.1\nq1\t{grade}\t0.5\nq1\t0\t0.2\n", encoding="utf-8")
    code, stdout, stderr = run_main(["metrics", "--input", str(data)])
    assert code == 2
    assert stderr == message
    # Interleaved rows, more than four 16 Ki-character blocks of them before the grade.
    interleaved = "".join(f"q{i % 10}\t{i % 3}\t0.{i}\n" for i in range(6000))
    child = subprocess.run(
        [sys.executable, "-m", "lindcg.cli", "metrics", "--input", "/dev/stdin"],
        input=interleaved + f"q1\t{grade}\t0.5\n", capture_output=True, text=True,
        env=_child_env(), timeout=60)
    assert (child.returncode, child.stdout, child.stderr) == (2, "", message)


@pytest.mark.parametrize("text, message", [
    ("q0\t31\t0.1\n" + "".join(f"q{i}\t1\t0.{i}\n" for i in range(1, 20)) + "q20\t1\n",
     "1 malformed line(s): line 21: expected 3 tab-separated fields, got 2"),
    ("q0\t1\t0.1\nq1\t40\t0.5\nq1\t31\t0.2\n",
     "query 'q1': grade 40 exceeds the classical-gain cap of 30"),
], ids=["malformed-line-in-a-later-block", "two-grades-above-the-cap"])
def test_metrics_names_the_cap_only_on_input_without_another_fault(tmp_path,
                                                                   monkeypatch, text, message):
    """A malformed line anywhere outranks a grade above the cap, and the cap names
    the first row above it."""
    monkeypatch.setattr(lindcg.io, "_BLOCK_CHARS", 32)
    data = tmp_path / "big.tsv"
    data.write_text(text, encoding="utf-8")
    code, stdout, stderr = run_main(["metrics", "--input", str(data)])
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")


def test_metrics_never_rebuilds_or_re_ranks_a_group(golden_file, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle was called")

    # Every oracle, binarize and rank_by_score among them, wherever it is bound.
    for name, module in list(sys.modules.items()):
        if name == "lindcg" or name.startswith("lindcg."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == "lindcg.oracles":
                    monkeypatch.setattr(module, attr, forbidden)
    code, stdout, stderr = run_main(["metrics", "--input", golden_file, "--output", "json"])
    assert code == 0, stderr


def _with_every_check_failed(output, text):
    """The report ``text`` with each query's identity status set to failed."""
    if output == "json":
        report = json.loads(text)
        for row in report["queries"]:
            row["identity"] = "failed"
        report["verification"] = {"passed": 0, "failed": len(report["queries"]),
                                  "tie_flagged": 0}
        return report
    lines = text.splitlines(keepends=True)
    if output == "csv":
        return lines[0] + "".join(line.rpartition(",")[0] + ",failed\n" for line in lines[1:])
    # The status column keeps its width: the header "identity" is wider than "FAIL".
    start, end = lines[0].index("identity"), lines[0].index("flags")
    rows = [(line[:start] + "FAIL".ljust(end - start) + line[end:]).rstrip() + "\n"
            for line in lines[1:-3]]
    return "".join([lines[0], *rows, *lines[-3:-1],
                    f"identity_checks: passed=0 failed={len(rows)} tie_flagged=0\n"])


def test_metrics_exits_1_after_writing_a_report_with_a_failed_check(
        golden_file, monkeypatch):
    formats = ("json", "text", "csv")
    passing = {output: run_main(["metrics", "--input", golden_file, "--output", output])
               for output in formats}
    identity_sums = lindcg.metrics.identity_sums

    def split_off_by_one(view):
        sums = identity_sums(view)
        return sums._replace(split_rhs=sums.split_rhs + 1)

    monkeypatch.setattr(lindcg.metrics, "identity_sums", split_off_by_one)
    for output in formats:
        code, stdout, stderr = run_main(["metrics", "--input", golden_file, "--output", output])
        assert (passing[output][0], code) == (0, 1), output
        expected = _with_every_check_failed(output, passing[output][1])
        actual = json.loads(stdout) if output == "json" else stdout
        assert actual == expected, output
        assert stderr == (
            "identity check failed: 'a'[split]: dcg 0 != sum over thresholds 1;"
            " 'g'[split]: dcg 8 != sum over thresholds 9\n"), output


def _ranked_as(monkeypatch, field, index, change):
    """Make every group rank as its view with ``view.<field>[index]`` changed by ``change``."""
    rank_view = lindcg.metrics.rank_view

    def corrupted(group):
        view = rank_view(group)
        values = list(getattr(view, field))
        values[index] += change
        return view._replace(**{field: tuple(values)})

    monkeypatch.setattr(lindcg.metrics, "rank_view", corrupted)


def _sums_off_by_one(monkeypatch, field):
    """Make every check read its ``identity_sums`` with ``field`` one too large."""
    identity_sums = lindcg.metrics.identity_sums

    def off_by_one(view):
        sums = identity_sums(view)
        return sums._replace(**{field: getattr(sums, field) + 1})

    monkeypatch.setattr(lindcg.metrics, "identity_sums", off_by_one)


@pytest.mark.parametrize("corrupt, line", [
    # The top item's grade: the DCG of the total and of the split.
    (partial(_ranked_as, field="grades", index=0, change=-1), "'m': error 9 != loss 3"),
    # The discount mass of grade 1, which the run k=0 and the split read.
    (partial(_ranked_as, field="discount_mass", index=1, change=1),
     "'m'[k=0]: error 2 != loss 3"),
    (partial(_sums_off_by_one, field="split_rhs"),
     "'m'[split]: dcg 18 != sum over thresholds 19"),
], ids=["total", "run", "split"])
@pytest.mark.parametrize("output", ["json", "text", "csv"])
def test_a_failed_check_names_its_first_unequal_pair_on_stderr(
        tmp_path, monkeypatch, corrupt, line, output):
    data = tmp_path / "m.tsv"
    data.write_text("".join(f"m\t{grade}\t{7 - rank}\n"
                            for rank, grade in enumerate([2, 0, 1, 0, 1, 0, 0])),
                    encoding="utf-8")
    corrupt(monkeypatch)
    code, stdout, stderr = run_main(["metrics", "--input", str(data), "--output", output])
    assert (code, stderr) == (1, f"identity check failed: {line}\n")
    assert "failed" in stdout or "FAIL" in stdout


def test_ten_thousand_failed_checks_write_one_short_line(tmp_path, monkeypatch):
    """The line names the first 20 failed queries by id and counts the rest."""
    data = tmp_path / "many.tsv"
    data.write_text("".join(f"q{i:05d}\t1\t0.5\nq{i:05d}\t0\t0.25\n" for i in range(10_000)),
                    encoding="utf-8")
    _sums_off_by_one(monkeypatch, "split_rhs")
    code, stdout, stderr = run_main(["metrics", "--input", str(data), "--output", "json"])
    assert code == 1
    assert json.loads(stdout)["verification"]["failed"] == 10_000
    assert len(stderr.encode()) < 2048
    assert stderr.count("\n") == 1
    assert stderr == "identity check failed: " + "; ".join(
        f"'q{i:05d}'[split]: dcg 1 != sum over thresholds 2" for i in range(20)
    ) + "; and 9980 more\n"


def test_a_failed_check_quotes_forty_characters_of_a_long_query_id(tmp_path, monkeypatch):
    query_id = "z" * 100_000
    data = tmp_path / "long.tsv"
    data.write_text(f"{query_id}\t1\t0.5\n{query_id}\t0\t0.25\n", encoding="utf-8")
    _sums_off_by_one(monkeypatch, "loss")
    code, stdout, stderr = run_main(["metrics", "--input", str(data), "--output", "csv"])
    assert (code, stderr) == (
        1, f"identity check failed: '{'z' * 40}'...: error 0 != loss 1\n")


def test_metrics_writes_the_golden_reports_without_the_joined_renderers(monkeypatch):
    """``lindcg metrics`` hands its writer's pieces to ``_echo_pieces`` as they
    come: an iterator, never the report joined into one text first."""
    echo_pieces = lindcg.cli._echo_pieces
    received = []

    def recorded(pieces):
        written = list(pieces)
        received.append((pieces, len(written)))
        echo_pieces(written)

    monkeypatch.setattr(lindcg.cli, "_echo_pieces", recorded)
    for name, _, output, golden in GOLDEN_RUNS:  # _data_input_args finds the score file
        received.clear()
        args = ["metrics", *_data_input_args(name), "--output", output]
        code, stdout, stderr = run_main(args)
        assert (code, stdout) == (
            0, (DATA / golden).read_text(encoding="utf-8")), golden
        ((pieces, count),) = received
        assert isinstance(pieces, Iterator), golden
        assert count > 2, golden  # a head, a piece per query and a tail, or more


def test_the_output_formats_are_the_writers_of_the_report(golden_file, monkeypatch):
    """``--output`` offers the names of ``report.WRITERS``, and ``metrics``
    writes through the writer it names there."""
    assert tuple(lindcg.report.WRITERS) == ("json", "text", "csv")
    code, stdout, stderr = run_main(["metrics", "--help"])
    assert (code, "--output {json,text,csv}" in stdout) == (0, True)
    monkeypatch.setitem(lindcg.report.WRITERS, "xml", lambda report: iter(["written\n"]))
    assert run_main(["metrics", "--input", golden_file, "--output", "xml"]) == (
        0, "written\n", "")


def _child_env():
    """The environment of a child Python that imports this source tree's lindcg."""
    src = str(Path(lindcg.cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _exit_after_one_line(*args):
    """The first line of ``lindcg args`` in a child process, and the child's exit code
    and stderr once its reader has closed stdout after that line, as ``| head -n 1``
    does."""
    child = subprocess.Popen([sys.executable, "-m", "lindcg.cli", *args],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    first = child.stdout.readline()
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    return first, child.wait(timeout=60), stderr


def test_metrics_exits_0_when_the_reader_closes_stdout_early(tmp_path):
    """A reader that stops after one line, as ``| head -n 1`` does, is no failed check."""
    data = tmp_path / "many.tsv"
    data.write_text("".join(f"q{i:04d}\t{i % 3}\t0.{i}\n" for i in range(600)),
                    encoding="utf-8")
    # The report, about 260 kB, outgrows the pipe's buffer, so the child is
    # still writing when the pipe closes.
    assert _exit_after_one_line("metrics", "--input", str(data), "--output", "json") == (
        b"{\n", 0, b"")


@pytest.mark.parametrize("args, first", [
    # The random trials run after the first line is written.
    (["verify", "--trials", "1000"],
     b"exhaustive: multisets=251 permutations=17045 failures=0\n"),
    # About 2 MB of table, which outgrows the pipe's buffer.
    (["oracle", "--grades", "0,1,2,3,4,5,6,7"],
     b"ranking          perms  dcg_error  pair_loss  ok\n"),
], ids=["verify", "oracle"])
def test_verify_and_oracle_exit_0_when_the_reader_closes_stdout_early(args, first):
    """Both still write after their reader has closed stdout, which is no failed check."""
    assert _exit_after_one_line(*args) == (first, 0, b"")


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_stdout_is_written_in_blocks_not_a_line_at_a_time(monkeypatch, errors):
    """Whatever stdout's error handler, "surrogateescape" under the C locale among
    them, the pieces reach its binary buffer in blocks."""
    writes = []

    class Raw(io.RawIOBase):
        def writable(self):
            return True

        def write(self, data):
            writes.append(bytes(data))
            return len(data)

    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BufferedWriter(Raw()),
                                                        encoding="utf-8", errors=errors))
    lines = [f"line {i}\n" for i in range(1000)]
    lindcg.cli._echo_pieces(lines)
    assert b"".join(writes) == "".join(lines).encode("utf-8")
    assert len(writes) < 10


def _run_child(*args):
    """The exit code, stdout bytes and stderr bytes of ``lindcg args`` in a child
    process whose stdout and stderr are pipes."""
    child = subprocess.run([sys.executable, "-m", "lindcg.cli", *args],
                           capture_output=True, env=_child_env(), timeout=60)
    return child.returncode, child.stdout, child.stderr


# The query ids of metrics_escape.tsv: one holds an ANSI escape sequence, and
# stripping it would leave the other.
ESCAPE_IDS = ["a\x1b[31mb", "ab"]


def test_metrics_csv_writes_each_query_id_as_read_through_a_pipe():
    code, stdout, stderr = _run_child("metrics", "--input", str(DATA / "metrics_escape.tsv"),
                                      "--output", "csv")
    assert (code, stderr) == (0, b"")
    assert [line.split(b",")[0] for line in stdout.splitlines()[1:]] == [
        query_id.encode("utf-8") for query_id in ESCAPE_IDS]


def test_metrics_text_aligns_its_columns_on_the_characters_it_writes():
    code, stdout, stderr = _run_child("metrics", "--input", str(DATA / "metrics_escape.tsv"))
    assert (code, stderr) == (0, b"")
    header, *rows = stdout.decode("utf-8").split("\n\n")[0].splitlines()
    items = header.index("items")
    assert [(row[:items].rstrip(), row[items:].split()[0]) for row in rows] == [
        (ESCAPE_IDS[0], "2"), (ESCAPE_IDS[1], "3")]


def test_metrics_text_pads_no_column_past_forty_characters(tmp_path):
    """One query id of 10,000 characters is written whole on its own row and
    pads none of the 1,000 others."""
    long_id = "q" * 10_000
    data = tmp_path / "long_id.tsv"
    data.write_text("".join(f"q{i}\t1\t0.5\n" for i in range(1000)) + f"{long_id}\t1\t0.5\n",
                    encoding="utf-8")
    code, stdout, stderr = _run_child("metrics", "--input", str(data), "--output", "text")
    assert (code, stderr) == (0, b"")
    assert len(stdout) < 200_000
    assert f"\n{long_id}  1 ".encode("utf-8") in stdout


def test_metrics_counts_every_malformed_line_and_names_the_first_twenty(tmp_path):
    """Thousands of malformed lines give one short message, not one reason each."""
    data = tmp_path / "two_fields.tsv"
    data.write_text("q0\t1\t0.5\n" + "q1\t1\n" * 5000, encoding="utf-8")
    code, stdout, stderr = _run_child("metrics", "--input", str(data))
    assert (code, stdout) == (2, b"")
    assert len(stderr) < 4096
    reasons = "; ".join(f"line {n}: expected 3 tab-separated fields, got 2"
                        for n in range(2, 22))
    assert stderr.decode("utf-8") == (
        f"error: 5000 malformed line(s): {reasons}; and 4980 more\n")


# One cell far longer than a fault message quotes, in each place a message quotes
# a cell: (format, data, score file, cell, stderr), where "{cell}" marks the cell
# in the files and "{cut}" its quoted first 40 characters in stderr.
# {cut} is the cell as a message quotes it, {number} the number it writes unquoted.
LONG_CELLS = [
    pytest.param("tsv", "q1\t{cell}\t0.5\n", None, (), "7" * 10**6,
                 "error: 1 malformed line(s): line 1: grade {cut} is not an integer\n",
                 id="grade"),
    pytest.param("tsv", "".join(f"q{i}\t1\t{{cell}}\n" for i in range(30)), None, (),
                 "9" * 200_000 + "x",
                 "error: 30 malformed line(s): "
                 + "; ".join(f"line {n}: score {{cut}} is not a number" for n in range(1, 21))
                 + "; and 10 more\n", id="score"),
    pytest.param("tsv", "{cell}\t31\t0.5\n", None, (), "q" * 10**6,
                 "error: query {cut}: grade 31 exceeds the classical-gain cap of 30\n",
                 id="query-id"),
    pytest.param("svmlight", "1 {cell} 1:0.5 # score=0.5\n", None, (), "x" * 500_000,
                 "error: 1 malformed line(s): line 1: second token {cut} is not 'qid:ID'\n",
                 id="second-token"),
    pytest.param("svmlight", "1 qid:1 1:0.5\n", "{cell}\n", (), "y" * 300_000,
                 "error: 1 malformed line(s): line 1: score file: score {cut} is not a number\n",
                 id="score-file"),
    pytest.param("tsv", "".join(f"q{i}\t{{cell}}\t0.5\n" for i in range(30)), None, (),
                 "-" + "9" * 4000,
                 "error: 30 malformed line(s): "
                 + "; ".join(f"line {n}: negative grade {{number}}" for n in range(1, 21))
                 + "; and 10 more\n", id="negative-grade"),
    pytest.param("tsv", "q1\t{cell}\t0.5\n", None, ("--num-grades", "5"), "9" * 4000,
                 "error: 1 malformed line(s): line 1: grade {number} outside declared"
                 " alphabet of 5\n", id="declared-alphabet"),
    pytest.param("tsv", "q1\t{cell}\t0.5\n", None, (), "9" * 4000,
                 "error: query 'q1': grade {number} exceeds the classical-gain cap of 30\n",
                 id="cap-tsv"),
    pytest.param("svmlight", "{cell} qid:1 1:0.5 # score=0.5\n", None, (), "9" * 4000,
                 "error: query '1': grade {number} exceeds the classical-gain cap of 30\n",
                 id="cap-svmlight"),
]


@pytest.mark.parametrize("fmt, data, scores, options, cell, stderr", LONG_CELLS)
def test_a_fault_message_quotes_at_most_forty_characters_of_a_cell(
        tmp_path, fmt, data, scores, options, cell, stderr):
    """A malformed cell of a megabyte, or a grade of 4,000 digits, gives a
    message of one short line."""
    path = tmp_path / f"data.{fmt}"
    path.write_text(data.replace("{cell}", cell), encoding="utf-8")
    args = ["metrics", "--input", str(path), "--format", fmt, *options]
    if scores is not None:
        (tmp_path / "data.scores").write_text(scores.replace("{cell}", cell), encoding="utf-8")
        args += ["--scores", str(tmp_path / "data.scores")]
    code, stdout, actual = _run_child(*args)
    assert (code, stdout) == (2, b"")
    assert len(actual) < 16 * 1024
    assert actual.decode("utf-8") == (stderr.replace("{cut}", f"'{cell[:40]}'...")
                                      .replace("{number}", f"{cell[:40]}..."))


# Each usage message that writes a number, with a value of 4,000 digits that
# the message rejects: (arguments, message), where "{cut}" marks the value's
# first 40 characters followed by "..." in the message.
NEGATIVE = "-" + "9" * 4000
LONG_NUMBERS = [
    pytest.param(("metrics", "--input", str(DATA / "metrics_mixed.tsv"), "--num-grades",
                  NEGATIVE), "--num-grades must be at least 2, got {cut}", id="num-grades"),
    pytest.param(("verify", "--trials", NEGATIVE), "--trials must be >= 0, got {cut}",
                 id="trials"),
    pytest.param(("verify", "--max-items", NEGATIVE), "--max-items must be >= 1, got {cut}",
                 id="max-items"),
    pytest.param(("verify", "--max-grades", NEGATIVE), "--max-grades must be >= 2, got {cut}",
                 id="max-grades"),
    pytest.param(("verify", "--exhaustive-limit", "9" * 4000),
                 "--exhaustive-limit must be in 0..8, got {cut}", id="exhaustive-limit"),
    # 5 * (10**4000 - 1) item-grades: a 4, 3,999 nines and a 5.
    pytest.param(("verify", "--max-items", "9" * 4000),
                 "--max-items {cut} with --max-grades 5 makes groups of up to"
                 f" 4{'9' * 39}... item-grades, more than 8,000,000 (about 20 s);"
                 " lower --max-items or --max-grades", id="random-budget"),
]


@pytest.mark.parametrize("args, message", LONG_NUMBERS)
def test_a_usage_message_writes_at_most_forty_characters_of_a_number(args, message):
    code, stdout, stderr = _run_child(*args)
    assert (code, stdout) == (2, b"")
    assert len(stderr) < 1024
    cut = max(args, key=len)[:40] + "..."
    usage, error = stderr.decode("utf-8").split(f"\nlindcg {args[0]}: error: ")
    assert usage.startswith(f"usage: lindcg {args[0]} [-h] ")
    assert error == f"{message.replace('{cut}', cut)}\n"


# Each integer option, after the arguments its command needs.
INTEGER_OPTIONS = [
    ("metrics", "--input", str(DATA / "metrics_mixed.tsv"), "--num-grades"),
    ("verify", "--trials"),
    ("verify", "--max-items"),
    ("verify", "--max-grades"),
    ("verify", "--seed"),
    ("verify", "--exhaustive-limit"),
]


@pytest.mark.parametrize("args", INTEGER_OPTIONS, ids=lambda args: args[-1][2:])
def test_an_integer_option_quotes_at_most_forty_characters_of_a_value_int_refuses(args):
    """``int`` refuses a string of more than 4,300 digits, and argparse's own
    message would write all of it."""
    nines = "9" * 5000
    code, stdout, stderr = run_main([*args, nines])
    assert code == 2
    assert len(stderr.encode()) < 1024
    assert stderr.endswith(f"lindcg {args[0]}: error: argument {args[-1]}:"
                           f" '{nines[:40]}'... is not a valid integer\n")


def _modules_loaded_by(*args):
    """The exit code and stdout of ``lindcg args`` in a child process, and the
    names of the modules that importing and running ``lindcg.cli`` loaded,
    beyond those the interpreter had loaded at start-up."""
    code = ("import sys\n"
            "started = set(sys.modules)\n"
            "from lindcg.cli import main\n"
            "try:\n"
            "    sys.exit(main(sys.argv[1:]))\n"
            "finally:\n"
            "    print(*sorted(set(sys.modules) - started), file=sys.stderr)\n")
    child = subprocess.run([sys.executable, "-c", code, *args],
                           capture_output=True, text=True, env=_child_env(), timeout=60)
    return child.returncode, child.stdout, child.stderr.split()


def test_metrics_never_imports_the_oracles():
    """The test oracles, and any module the run does not use, stay out of the
    start-up of a ``metrics`` run."""
    exit_code, stdout, loaded = _modules_loaded_by(
        "metrics", "--input", str(DATA / "metrics_fine.tsv"), "--output", "json")
    assert (exit_code, stdout) == (0, (DATA / "metrics_fine.json").read_text(encoding="utf-8"))
    assert "lindcg.report" in loaded
    assert "lindcg.oracles" not in loaded
    assert {name for name in loaded if name.partition(".")[0] == "lindcg"} == {
        "lindcg", "lindcg.cli", "lindcg.core", "lindcg.errors", "lindcg.io", "lindcg.metrics",
        "lindcg.report"}


FINE = str(DATA / "metrics_fine.tsv")


@pytest.mark.parametrize("args", [
    ("metrics", "--input", FINE, "--output", "json"),
    ("metrics", "--input", FINE, "--output", "text"),
    ("metrics", "--input", FINE, "--output", "csv"),
    ("verify", "--trials", "5", "--exhaustive-limit", "2"),
    ("oracle", "--grades", "1,0"),
    ("--help",),
    ("metrics", "--help"),
], ids=["metrics-json", "metrics-text", "metrics-csv", "verify", "oracle", "help",
        "metrics-help"])
def test_a_run_loads_no_module_it_does_not_use(args):
    """No command loads click, which lindcg does not depend on, and only a CSV
    report loads the csv module."""
    exit_code, _, loaded = _modules_loaded_by(*args)
    assert exit_code == 0
    assert "click" not in loaded
    assert ("csv" in loaded) == (args[-1] == "csv")


VERIFY_ARGS = [
    "verify",
    "--trials", "25",
    "--max-items", "30",
    "--max-grades", "4",
    "--seed", "7",
    "--exhaustive-limit", "3",
]


def test_verify_passes_and_reports_counts():
    code, stdout, stderr = run_main(VERIFY_ARGS)
    assert code == 0, stderr
    assert "exhaustive: multisets=" in stdout
    assert "failures=0" in stdout
    assert "random: groups=25 identity_failures=0 decomposition_failures=0" in stdout
    assert stdout.rstrip().endswith("result: PASS")


def test_verify_output_is_deterministic_for_a_seed():
    assert run_main(VERIFY_ARGS) == run_main(VERIFY_ARGS)
    assert run_main(VERIFY_ARGS[:-4] + ["--seed", "8", "--exhaustive-limit", "3"])[0] == 0


def test_verify_checks_the_status_that_metrics_reports(monkeypatch):
    """A fault in the per-query status fails ``verify``, though the records would pass."""
    monkeypatch.setattr(lindcg.cli, "identity_status", lambda view, sums: "failed")
    code, stdout, stderr = run_main(["verify", "--trials", "3", "--exhaustive-limit", "0"])
    assert code == 1, stderr
    assert "random: groups=3 identity_failures=3 decomposition_failures=0" in stdout


def test_verify_accepts_zero_trials():
    code, stdout, stderr = run_main(["verify", "--trials", "0", "--exhaustive-limit", "4"])
    assert code == 0
    assert "random: groups=0" in stdout
    assert "result: PASS" in stdout


def _permutations(num_grades, limit):
    """Every ordering of every multiset of 1..limit grades below num_grades:
    the sum of C(L+s-1, s) * s!."""
    return sum(math.comb(num_grades + size - 1, size) * math.factorial(size)
               for size in range(1, limit + 1))


def test_exhaustive_pass_checks_the_counted_permutations():
    code, stdout, stderr = run_main(["verify", "--trials", "0", "--max-grades", "4",
                                    "--exhaustive-limit", "3"])
    assert code == 0
    assert f"permutations={_permutations(4, 3)} " in stdout


def test_verify_runs_a_pass_of_millions_of_permutations_but_few_rankings():
    """4 + 16 + ... + 4**8 = 87,380 distinct rankings stand for 7,325,784 permutations."""
    code, stdout, stderr = run_main(["verify", "--trials", "0", "--max-grades", "4",
                                    "--exhaustive-limit", "8"])
    assert code == 0, stderr
    assert stdout.startswith(
        f"exhaustive: multisets={math.comb(12, 8) - 1} permutations={_permutations(4, 8)}"
        " failures=0\n")


@pytest.mark.parametrize(("budget", "exit_code"), [(84, 0), (83, 2)])
def test_the_exhaustive_budget_counts_distinct_rankings(monkeypatch, budget, exit_code):
    """--max-grades 4 with --exhaustive-limit 3 makes 4 + 16 + 64 rankings."""
    monkeypatch.setattr(lindcg.cli, "MAX_EXHAUSTIVE_RANKINGS", budget)
    code, stdout, stderr = run_main(["verify", "--trials", "0", "--max-grades", "4",
                                    "--exhaustive-limit", "3"])
    assert code == exit_code
    if exit_code:
        assert stderr.endswith(
            "lindcg verify: error: --max-grades 4 with --exhaustive-limit 3 makes 84 rankings,"
            " more than 83 (about 20 s); lower --max-grades or --exhaustive-limit\n")


def test_verify_rejects_an_exhaustive_pass_over_the_budget_unstarted(monkeypatch):
    def started(*args, **kwargs):
        raise AssertionError("the exhaustive pass started")

    monkeypatch.setattr(lindcg.oracles, "brute_force_oracle", started)
    assert sum(300**size for size in range(1, 6)) > MAX_EXHAUSTIVE_RANKINGS
    code, stdout, stderr = run_main(["verify", "--max-grades", "300"])
    assert code == 2
    assert "--max-grades" in stderr
    assert "--exhaustive-limit" in stderr


@pytest.mark.parametrize(("budget", "trials", "exit_code"), [(120, 3, 0), (119, 3, 2), (119, 0, 0)])
def test_the_random_budget_counts_items_times_distinct_grades(monkeypatch, budget,
                                                              trials, exit_code):
    """--max-items 30 with --max-grades 4 makes groups of up to 30 items over
    4 grades; a run that draws no group is not refused."""
    monkeypatch.setattr(lindcg.cli, "MAX_RANDOM_ITEM_GRADES", budget)
    code, stdout, stderr = run_main(["verify", "--trials", str(trials), "--max-items", "30",
                                    "--max-grades", "4", "--exhaustive-limit", "0"])
    assert code == exit_code
    if exit_code:
        assert stderr.endswith(
            "lindcg verify: error: --max-items 30 with --max-grades 4 makes groups of up to"
            " 120 item-grades, more than 119 (about 20 s); lower --max-items or --max-grades\n")


def test_verify_rejects_a_random_group_over_the_budget_undrawn(monkeypatch):
    """A group of a trillion items would take memory until none is left; the
    run exits 2 before the first draw, and before any output."""
    def drawn(*args):
        raise AssertionError("a random group was drawn")

    monkeypatch.setattr(lindcg.cli, "_random_tie_free_group", drawn)
    assert 10**12 * 5 > MAX_RANDOM_ITEM_GRADES
    code, stdout, stderr = run_main(["verify", "--trials", "1", "--max-items", str(10**12),
                                    "--exhaustive-limit", "0"])
    assert (code, stdout) == (2, "")
    assert len(stderr.encode()) < 1024
    assert stderr.endswith(
        "lindcg verify: error: --max-items 1000000000000 with --max-grades 5 makes groups of up to"
        " 5000000000000 item-grades, more than 8,000,000 (about 20 s); lower --max-items or"
        " --max-grades\n")


def test_verify_counts_a_failed_ranking_once_per_permutation(monkeypatch):
    """Each distinct ranking the permutation oracle gets wrong fails for every
    permutation that gives it: here (0, 0) and (1, 1), two each."""
    brute_force_oracle = lindcg.oracles.brute_force_oracle

    def wrong_where_grades_repeat(multiset):
        for ranking, count, dcg_error, loss in brute_force_oracle(multiset):
            yield ranking, count, dcg_error, loss + (count > 1)

    monkeypatch.setattr(lindcg.oracles, "brute_force_oracle", wrong_where_grades_repeat)
    code, stdout, stderr = run_main(["verify", "--trials", "0", "--max-grades", "2",
                                    "--exhaustive-limit", "2"])
    assert (code, stdout) == (1, (
        "exhaustive: multisets=5 permutations=8 failures=4\n"
        "random: groups=0 identity_failures=0 decomposition_failures=0\n"
        "result: FAIL (4 failures)\n"))


def test_verify_counts_each_random_group_whose_decomposition_disagrees(monkeypatch):
    threshold_run_losses = lindcg.oracles.threshold_run_losses

    def one_more_on_even_trials(group):
        runs = threshold_run_losses(group)
        return (*runs, (1, 1)) if int(group.query_id.removeprefix("trial-")) % 2 == 0 else runs

    monkeypatch.setattr(lindcg.oracles, "threshold_run_losses", one_more_on_even_trials)
    code, stdout, stderr = run_main(["verify", "--trials", "5", "--exhaustive-limit", "0"])
    assert (code, stdout) == (1, (
        "exhaustive: multisets=0 permutations=0 failures=0\n"
        "random: groups=5 identity_failures=0 decomposition_failures=3\n"
        "result: FAIL (3 failures)\n"))


def test_verify_rejects_a_max_grades_of_a_thousand_digits_in_a_short_message():
    """The count of such a pass has more digits than ``str`` writes; the
    message gives its first 40 digits, and the option's."""
    code, stdout, stderr = run_main(["verify", "--max-grades", "1" + "0" * 1000])
    assert code == 2
    assert len(stderr.encode()) < 1024
    assert stderr.endswith(
        f"lindcg verify: error: --max-grades 1{'0' * 39}... with --exhaustive-limit 5"
        f" makes 1{'0' * 39}... rankings, more than 5,000,000 (about 20 s); lower"
        " --max-grades or --exhaustive-limit\n")


def test_verify_cost_does_not_follow_max_grades(monkeypatch):
    # A decomposition with one entry per threshold would need about 8 TB here.
    def expanded(group):
        raise AssertionError("the decomposition was expanded threshold by threshold")

    monkeypatch.setattr(lindcg.oracles, "threshold_decomposition", expanded)
    code, stdout, stderr = run_main(["verify", "--max-grades", str(10**12), "--trials", "20",
                                    "--max-items", "5", "--exhaustive-limit", "0", "--seed", "1"])
    assert code == 0, stderr
    assert "random: groups=20 identity_failures=0 decomposition_failures=0" in stdout


def test_verify_memory_does_not_follow_max_grades_in_the_exhaustive_pass(monkeypatch):
    """The size-1 multisets come lazily: a pool of 100,000 grades, copied
    into a tuple, would hold about 4 MB."""
    one_ranking = ((None, 1, 0, 0),)
    monkeypatch.setattr(lindcg.oracles, "brute_force_oracle", lambda multiset: one_ranking)
    tracemalloc.start()
    try:
        code, stdout, stderr = run_main(["verify", "--trials", "0", "--exhaustive-limit", "1",
                                        "--max-grades", "100000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, stderr
    assert stdout.startswith(
        "exhaustive: multisets=100000 permutations=100000 failures=0\n")
    assert peak < 2**20


def test_verify_rejects_bad_option_values():
    assert run_main(["verify", "--max-grades", "1"])[0] == 2
    assert run_main(["verify", "--trials", "-5"])[0] == 2
    assert run_main(["verify", "--max-items", "0"])[0] == 2
    assert run_main(["verify", "--exhaustive-limit", "9"])[0] == 2


@pytest.mark.parametrize("args, golden", [
    (["oracle", "--grades", "2,1,1,0"], "oracle_2110.txt"),
    (["verify", "--seed", "42", "--trials", "500", "--max-items", "100", "--max-grades", "5"],
     "verify_seed42.txt"),
], ids=["oracle", "verify"])
def test_oracle_and_verify_match_their_golden_output(args, golden):
    code, stdout, stderr = run_main(args)
    assert (code, stdout, stderr) == (
        0, (DATA / golden).read_text(encoding="utf-8"), "")


def test_oracle_tabulates_distinct_patterns():
    code, stdout, stderr = run_main(["oracle", "--grades", "2,1,1,0"])
    assert code == 0, stderr
    assert "permutations=24 distinct=12 failures=0" in stdout
    lines = stdout.splitlines()
    assert lines[0].split() == ["ranking", "perms", "dcg_error", "pair_loss", "ok"]
    assert lines[1].startswith("2,1,1,0")
    assert lines[1].split()[1] == "2"  # the two grade-1 items are interchangeable
    assert all(line.rstrip().endswith("yes") for line in lines[1:-1])


def test_oracle_marks_a_disagreeing_ranking_and_exits_1(monkeypatch):
    brute_force_oracle = lindcg.oracles.brute_force_oracle

    def wrong_when_the_top_grade_is_last(grades):
        for ranking, count, dcg_error, loss in brute_force_oracle(grades):
            yield ranking, count, dcg_error, loss + (ranking[-1] == max(ranking))

    monkeypatch.setattr(lindcg.oracles, "brute_force_oracle", wrong_when_the_top_grade_is_last)
    code, stdout, stderr = run_main(["oracle", "--grades", "1,0,0"])
    assert (code, stdout) == (1, (
        "ranking  perms  dcg_error  pair_loss  ok\n"
        "1,0,0      2          0          0  yes\n"
        "0,1,0      2          1          1  yes\n"
        "0,0,1      2          2          3  NO\n"
        "permutations=6 distinct=3 failures=2\n"))


def test_oracle_on_binary_pair():
    code, stdout, stderr = run_main(["oracle", "--grades", "1,0"])
    assert code == 0
    assert "permutations=2 distinct=2 failures=0" in stdout


def test_oracle_rejects_garbage_grades():
    assert run_main(["oracle", "--grades", "a,b"])[0] == 2
    assert run_main(["oracle", "--grades", "1,-2"])[0] == 2
    # The file readers reject digit separators and non-ASCII digits, and so does --grades.
    assert run_main(["oracle", "--grades", "1_0,0"])[0] == 2
    assert run_main(["oracle", "--grades", "\u0661,0"])[0] == 2


def test_oracle_quotes_at_most_forty_characters_of_its_grades():
    grades = "-" + "9" * 4000
    code, stdout, stderr = run_main(["oracle", "--grades", grades])
    assert (code, stdout) == (2, "")
    assert len(stderr.encode()) < 16 * 1024
    assert stderr.endswith(f"lindcg oracle: error: --grades '{grades[:40]}'...:"
                           f" negative grade {grades[:40]}...\n")


def test_oracle_rejects_oversized_multisets():
    code, stdout, stderr = run_main(["oracle", "--grades", "0,0,0,0,0,0,0,0,0"])
    assert code == 2


def test_help_lists_all_subcommands():
    code, stdout, stderr = run_main(["--help"])
    assert code == 0
    for name in ("metrics", "verify", "oracle"):
        assert name in stdout


# Runs whose exit codes stay fixed: 0 after --help, 2 for each usage error.
EXIT_CODES = [
    pytest.param((), 2, id="no-command"),
    pytest.param(("--help",), 0, id="help"),
    pytest.param(("metrics", "--help"), 0, id="metrics-help"),
    pytest.param(("nosuch",), 2, id="unknown-command"),
    pytest.param(("metrics",), 2, id="no-input"),
    pytest.param(("metrics", "--input", str(DATA / "absent.tsv")), 2, id="missing-input"),
    pytest.param(("metrics", "--input", "."), 2, id="directory-input"),
    pytest.param(("metrics", "--input", FINE, "--output", "xml"), 2, id="unknown-output"),
    pytest.param(("metrics", "--input", FINE, "--num-grades", "x"), 2, id="word-integer"),
    pytest.param(("verify", "--trials", "-1"), 2, id="negative-trials"),
    pytest.param(("oracle",), 2, id="no-grades"),
    pytest.param(("--bogus",), 2, id="unknown-option"),
]


@pytest.mark.parametrize("args, exit_code", EXIT_CODES)
def test_each_run_keeps_its_exit_code_and_a_short_stderr(args, exit_code):
    code, stdout, stderr = run_main(list(args))
    assert code == exit_code, stderr
    assert len(stderr.encode()) < 1024
    assert bool(stdout) == (exit_code == 0)  # only --help writes to stdout


LONG_VALUE = "z" * 100_000


@pytest.mark.parametrize("args", [
    ("metrics", "--input", FINE, "--output", LONG_VALUE),
    ("metrics", "--input", FINE, "--format", LONG_VALUE),
    (LONG_VALUE,),
    ("metrics", "--input", FINE, LONG_VALUE),
    ("--help=" + LONG_VALUE,),
    ("metrics", "--help=" + LONG_VALUE),
], ids=["output", "format", "command", "stray-argument", "help", "subcommand-help"])
def test_a_usage_message_quotes_at_most_forty_characters_of_a_value(args):
    """argparse's own messages for a refused choice, a stray argument and a value
    given to an option that takes none would write the whole value."""
    code, stdout, stderr = run_main(list(args))
    assert (code, stdout) == (2, "")
    assert len(stderr.encode()) < 1024
    assert f"'{'z' * 40}'..." in stderr


def test_an_option_prefix_is_no_abbreviation_of_the_option():
    """``--inp`` is not ``--input``, nor ``--trial`` ``--trials``: each exits 2."""
    assert run_main(["metrics", "--inp", FINE])[0] == 2
    assert run_main(["metrics", "--input", FINE, "--out", "json"])[0] == 2
    assert run_main(["verify", "--trial", "5"])[0] == 2


@pytest.mark.parametrize("output", ["text", "csv"])
def test_an_ascii_stdout_writes_a_query_id_outside_ascii_as_utf8(tmp_path, output):
    """An ASCII stdout, as under PYTHONIOENCODING=ascii, is written through its
    binary buffer as UTF-8: the report is the bytes of any other stdout."""
    data = tmp_path / "accented.tsv"
    data.write_text("q\u00e9\t1\t0.5\nq\u00e9\t0\t0.2\n", encoding="utf-8")
    args = ["metrics", "--input", str(data), "--output", output]
    child = subprocess.run([sys.executable, "-m", "lindcg.cli", *args], capture_output=True,
                           env={**_child_env(), "PYTHONIOENCODING": "ascii"}, timeout=60)
    assert (child.returncode, child.stderr) == (0, b"")
    assert b"q\303\251" in child.stdout
    assert run_main(args) == (0, child.stdout.decode("utf-8"), "")


def test_the_benchmark_entry_point_exits_with_the_code_of_main(capsys):
    """``main.main(args, standalone_mode=False)``, as perfbench/run.py calls it,
    runs ``main(args)`` and exits with its code."""
    with pytest.raises(SystemExit) as exited:
        lindcg.cli.main.main(["oracle", "--grades", "1,0"], standalone_mode=False)
    assert exited.value.code == 0
    assert capsys.readouterr().out == run_main(["oracle", "--grades", "1,0"])[1]
