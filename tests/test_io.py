import errno
import io
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lindcg.io
from helpers import KEPT_FAULTS, grouped, parse_svmlight_by_line, parse_tsv_by_line
from lindcg.errors import (
    EmptyFileError,
    GradeTooLargeError,
    LindcgError,
    ParseError,
    ScoreCountMismatchError,
)
from lindcg.io import (
    _BLOCK_CHARS,
    _data_lines,
    _read_chunks,
    _rows,
    parse_svmlight,
    parse_tsv,
)
from lindcg.oracles import has_score_ties

GOOD_TSV = """\
# comment line
q2\t1\t0.25
q1\t0\t0.9

q1\t2\t0.1
  # indented comment
q2\t0\t0.75
"""


def test_parse_tsv_reads_records_in_file_order():
    groups = parse_tsv(io.StringIO(GOOD_TSV))
    assert groups == grouped(("q2", "q1", "q1", "q2"), (1, 0, 2, 0), (0.25, 0.9, 0.1, 0.75))


def _query_id_objects(text, fmt, scores=None):
    """The query-id column of every chunk ``_rows`` yields, joined."""
    chunks = _rows(io.StringIO(text), fmt, scores and io.StringIO(scores))
    return [query_id for query_ids, _, _ in chunks for query_id in query_ids]


def test_readers_keep_one_string_per_query_id(monkeypatch):
    # A comment line sends its block to the line rules, the other blocks take
    # the block reads, so both keep the one string of each id.
    rows = range(300)
    inputs = {
        "tsv": ("# rows\n" + "".join(f"q{i % 7}\t{i % 3}\t{i / 8}\n" for i in rows), None),
        "inline": ("".join(f"{i % 3} qid:q{i % 7} 1:0.5 # score={i / 8}\n" for i in rows),
                   None),
        "scores": ("# rows\n" + "".join(f"{i % 3} qid:q{i % 7} 1:{i / 8}\n" for i in rows),
                   "".join(f"{i / 16}\n" for i in rows)),
    }
    for block_chars in (1, 7, 4096):
        monkeypatch.setattr(lindcg.io, "_BLOCK_CHARS", block_chars)
        for fmt, (text, scores) in inputs.items():
            query_ids = _query_id_objects(text, "tsv" if fmt == "tsv" else "svmlight", scores)
            assert query_ids == [f"q{i % 7}" for i in rows]
            assert len(set(map(id, query_ids))) == 7, (fmt, block_chars)


def test_query_groups_sorted_by_id_with_file_order_items():
    groups = parse_tsv(io.StringIO(GOOD_TSV))
    assert [g.query_id for g in groups] == ["q1", "q2"]
    assert list(groups[0].grades) == [0, 2]
    assert list(groups[1].scores) == [0.25, 0.75]


def test_declared_alphabet_rejects_grades_outside_it():
    with pytest.raises(ParseError) as exc:
        parse_tsv(io.StringIO("a\t1\t0.5\na\t5\t0.4\n"), num_grades=2)
    assert exc.value.errors == [(2, "grade 5 outside declared alphabet of 2")]
    assert exc.value.accepted_count == 1
    # A grade inside it parses as it would with no alphabet declared.
    assert parse_tsv(io.StringIO(GOOD_TSV), num_grades=5) == parse_tsv(io.StringIO(GOOD_TSV))


def test_path_and_stream_sources_agree(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text(GOOD_TSV, encoding="utf-8")
    assert parse_tsv(path) == parse_tsv(io.StringIO(GOOD_TSV))
    assert parse_tsv(str(path)) == parse_tsv(path)


def test_every_malformed_line_is_reported_with_its_number():
    bad = "a\t1\t0.5\nb\t-1\t0.5\nc\tx\t0.5\nd\t0\tnope\ne\t0\tinf\nf\t0\n"
    with pytest.raises(ParseError) as exc:
        parse_tsv(io.StringIO(bad))
    linenos = [lineno for lineno, _ in exc.value.errors]
    assert linenos == [2, 3, 4, 5, 6]
    assert exc.value.accepted_count == 1
    reasons = dict(exc.value.errors)
    assert reasons[2] == "negative grade -1"
    assert "not an integer" in reasons[3]
    assert "not a number" in reasons[4]
    assert "non-finite" in reasons[5]
    assert "3 tab-separated fields" in reasons[6]


def test_parse_error_message_lists_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_tsv(io.StringIO("a\tbad\t0.5\n"))
    assert "1 malformed line(s)" in str(exc.value)
    assert "line 1:" in str(exc.value)


def test_extra_fields_are_rejected():
    with pytest.raises(ParseError) as exc:
        parse_tsv(io.StringIO("a\t0\t0.5\textra\n"))
    assert "got 4" in exc.value.errors[0][1]


def test_empty_query_id_is_rejected():
    with pytest.raises(ParseError) as exc:
        parse_tsv(io.StringIO("\t0\t0.5\n"))
    assert exc.value.errors == [(1, "empty query id")]


def test_comment_only_input_is_empty():
    with pytest.raises(EmptyFileError):
        parse_tsv(io.StringIO("# nothing\n\n# here\n"))


def test_score_ties_keep_file_order():
    text = "q\t1\t0.5\nq\t0\t0.5\nq\t2\t0.5\n"
    (group,) = parse_tsv(io.StringIO(text))
    assert list(group.grades) == [1, 0, 2]
    assert has_score_ties(group)


GOOD_SVMLIGHT = """\
# a comment row
2 qid:7 1:0.4 2:1.0 # score=0.9
0 qid:7 1:0.1 # score = 0.2
1 qid:3 1:0.5 # score=0.7
"""


@pytest.mark.parametrize("grade, score", [
    ("1_0", "0.5"),    # int() reads 10
    ("\u0661", "0.5"),  # Arabic-Indic digit one
    ("1", "0_1.5"),    # float() reads 1.5
    ("1", "\u0661.5"),
])
def test_tsv_rejects_digit_separators_and_non_ascii_digits(grade, score):
    with pytest.raises(ParseError) as info:
        parse_tsv(io.StringIO(f"q\t0\t0.1\nq\t{grade}\t{score}\n"))
    assert [n for n, _ in info.value.errors] == [2]


def test_parse_svmlight_with_inline_scores():
    groups = parse_svmlight(io.StringIO(GOOD_SVMLIGHT))
    assert groups == grouped(("7", "7", "3"), (2, 0, 1), (0.9, 0.2, 0.7))
    assert [g.query_id for g in groups] == ["3", "7"]


def test_parse_svmlight_feature_vectors_are_ignored():
    a = parse_svmlight(io.StringIO("1 qid:1 1:9.9 2:8.8 3:7.7 # score=0.5\n"))
    b = parse_svmlight(io.StringIO("1 qid:1 # score=0.5\n"))
    assert a == b


def test_companion_score_file_wins_over_inline_comments():
    groups = parse_svmlight(
        io.StringIO(GOOD_SVMLIGHT), scores=io.StringIO("0.1\n0.2\n0.3\n")
    )
    assert groups == grouped(("7", "7", "3"), (2, 0, 1), (0.1, 0.2, 0.3))


def test_companion_score_file_must_match_row_count():
    with pytest.raises(ScoreCountMismatchError):
        parse_svmlight(io.StringIO(GOOD_SVMLIGHT), scores=io.StringIO("0.1\n0.2\n"))


def test_svmlight_line_without_any_score_is_an_error():
    with pytest.raises(ParseError) as exc:
        parse_svmlight(io.StringIO("1 qid:1 1:0.5\n"))
    assert "missing score" in exc.value.errors[0][1]


def test_svmlight_bad_qid_token_is_an_error():
    with pytest.raises(ParseError) as exc:
        parse_svmlight(io.StringIO("1 query:1 # score=0.5\n2 qid: # score=0.5\n"))
    assert [lineno for lineno, _ in exc.value.errors] == [1, 2]


def test_svmlight_short_line_is_an_error():
    with pytest.raises(ParseError) as exc:
        parse_svmlight(io.StringIO("1 # score=0.5\n"))
    assert "expected 'grade qid:ID" in exc.value.errors[0][1]


def test_svmlight_empty_after_comments():
    with pytest.raises(EmptyFileError):
        parse_svmlight(io.StringIO("# just a comment\n"))


def test_svmlight_rejects_digit_separators_and_non_ascii_digits():
    text = "1_0 qid:1 1:0.5 # score=0.5\n\u0661 qid:1 # score=0.5\n1 qid:1 # score=0_1.5\n"
    with pytest.raises(ParseError) as info:
        parse_svmlight(io.StringIO(text))
    assert [n for n, _ in info.value.errors] == [1, 2, 3]


def test_score_file_rejects_digit_separators_and_non_ascii_digits():
    data = io.StringIO("1 qid:1\n0 qid:1\n0 qid:2\n")
    with pytest.raises(ParseError) as info:
        parse_svmlight(data, scores=io.StringIO("0.5\n0_1.5\n\u0661\n"))
    assert [n for n, _ in info.value.errors] == [2, 3]
    assert all(reason.startswith("score file:") for _, reason in info.value.errors)


def test_score_comment_key_must_be_a_whole_token():
    (group,) = parse_svmlight(io.StringIO("1 qid:1 1:0.5 # myscore=9 score=0.1\n"))
    assert group.scores == (0.1,)
    with pytest.raises(ParseError):
        parse_svmlight(io.StringIO("1 qid:1 # myscore=9\n"))


def test_svmlight_score_file_path(tmp_path):
    data = tmp_path / "train.txt"
    data.write_text("1 qid:1 1:0.2\n0 qid:1 1:0.4\n", encoding="utf-8")
    preds = tmp_path / "preds.txt"
    preds.write_text("0.8\n0.6\n", encoding="utf-8")
    (group,) = parse_svmlight(data, scores=preds)
    assert group.scores == (0.8, 0.6)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc/self/mem")
def test_a_read_error_names_the_path_that_failed():
    """/proc/self/mem opens, and its first read fails with an error that names
    no file: the reader sets the path on it, as on an error of ``open``."""
    with pytest.raises(OSError) as raised:
        parse_tsv("/proc/self/mem")
    assert (raised.value.errno, raised.value.filename) == (errno.EIO, "/proc/self/mem")
    with pytest.raises(OSError) as raised:
        parse_svmlight(io.StringIO("1 qid:1 1:0.2\n"), scores="/proc/self/mem")
    assert raised.value.filename == "/proc/self/mem"


@pytest.mark.parametrize("scores", ["0.1\n", "0.1\n0.2\n0.3\n0.4\n"])
def test_score_count_mismatch_outranks_malformed_data_lines(scores):
    data = io.StringIO("1 qid:1\nnot a row\n0 qid:2\n")
    with pytest.raises(ScoreCountMismatchError) as info:
        parse_svmlight(data, scores=io.StringIO(scores))
    assert str(info.value).startswith("3 data rows but ")


BREAKS_TSV = "q\t1\t0.5\x0cq\t0\t0.2\u2028q\t2\t0.1\r\nq\t0\t0.3\rq\t1\t0.4\n"


# Data lines with two grades above the cap in one query, their scores or None,
# and a malformed line of the format.
_ABOVE_THE_CAP = {
    "tsv": ("q0\t1\t0.1\nq1\t40\t0.5\nq1\t31\t0.2\nq2\t0\t0.3\n", None, "q1\tx\t0.5\n"),
    "inline": ("1 qid:q0 # score=0.1\n40 qid:q1 # score=0.5\n31 qid:q1 # score=0.2\n"
               "0 qid:q2 # score=0.3\n", None, "x qid:q1 # score=0.5\n"),
    "scores": ("1 qid:q0 1:0.5\n40 qid:q1\n31 qid:q1 1:2\n0 qid:q2\n", "0.1\n0.5\n0.2\n0.3\n",
               "x qid:q1\n"),
}


@pytest.mark.parametrize("block_chars", [8, _BLOCK_CHARS])
@pytest.mark.parametrize("fmt", _ABOVE_THE_CAP)
def test_a_grade_above_the_cap_is_rejected_unless_a_line_is_malformed(monkeypatch, fmt,
                                                                      block_chars):
    text, scores, malformed = _ABOVE_THE_CAP[fmt]

    def parse(lines, score_lines):
        data = io.StringIO("".join(lines))
        if fmt == "tsv":
            return parse_tsv(data)
        return parse_svmlight(data, score_lines and io.StringIO("".join(score_lines)))

    monkeypatch.setattr(lindcg.io, "_BLOCK_CHARS", block_chars)
    lines, score_lines = text.splitlines(True), scores and scores.splitlines(True)
    with pytest.raises(GradeTooLargeError) as info:
        parse(lines, score_lines)
    assert str(info.value) == "query 'q1': grade 40 exceeds the classical-gain cap of 30"
    for at in range(len(lines) + 1):  # before, between and after the grades above the cap
        with pytest.raises(ParseError) as info:
            parse(lines[:at] + [malformed] + lines[at:],
                  score_lines and score_lines[:at] + ["0.5\n"] + score_lines[at:])
        assert [lineno for lineno, _ in info.value.errors] == [at + 1]


def test_lines_end_where_str_splitlines_ends_them(tmp_path):
    path = tmp_path / "breaks.tsv"
    path.write_bytes(BREAKS_TSV.encode("utf-8"))
    for groups in (parse_tsv(path), parse_tsv(io.StringIO(BREAKS_TSV))):
        assert [group.grades for group in groups] == [(1, 0, 2, 0, 1)]
    bad = BREAKS_TSV + "q\tx\t0.6\n"
    path.write_bytes(bad.encode("utf-8"))
    for source in (path, io.StringIO(bad)):
        with pytest.raises(ParseError) as info:
            parse_tsv(source)
        assert [n for n, _ in info.value.errors] == [len(bad.splitlines())] == [6]


def _splitlines_data(text):
    return [
        (n, line) for n, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]


@pytest.mark.parametrize("source", ["path", "stream"])
def test_reader_matches_splitlines_across_block_boundaries(tmp_path, source):
    rng = random.Random(5)
    breaks = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
    # Blocks end inside "\r\n", after a lone "\r" and after a form feed.
    block = _BLOCK_CHARS
    pieces = ["a" * (block - 1) + "\r", "\n" + "b" * (block - 2) + "\r",
              "c" + "d" * (block - 2) + "\x0c", "e\n"]
    for _ in range(block // 10):
        body = rng.choice(["", " ", "# note", "x" * rng.randrange(1, 40), "\u00e9t\u00e9"])
        pieces.append(body + rng.choice(breaks))
    text = "".join(pieces)
    errors = []

    def read_lines(first, lines):  # every block goes down the line path
        return list(_data_lines(first, lines, errors))

    if source == "path":
        path = tmp_path / "blocks.txt"
        path.write_bytes(text.encode("utf-8"))
        chunks = _read_chunks(path, lambda block: None, read_lines)
    else:
        chunks = _read_chunks(io.StringIO(text), lambda block: None, read_lines)
    lines = [line for chunk in chunks for line in chunk]
    assert lines == _splitlines_data(text)
    assert errors == []


@pytest.mark.parametrize("scored", [True, False])
def test_a_long_line_costs_linear_time(monkeypatch, scored):
    # Re-reading the start of a line at every block made a line of n
    # characters cost about n**2 / _BLOCK_CHARS: minutes for this one.
    features = " ".join(f"{i}:0.5" for i in range(125_000))  # about 10**6 characters
    comments = ("", "") if scored else (" # score=0.5", " # score=0.25")
    text = f"1 qid:a {features}{comments[0]}\n0 qid:a 1:0{comments[1]}\n"
    monkeypatch.setattr(lindcg.io, "_BLOCK_CHARS", 8)
    groups = parse_svmlight(io.StringIO(text), io.StringIO("0.5\n0.25\n") if scored else None)
    assert groups == grouped(("a", "a"), (1, 0), (0.5, 0.25))


def _source(tmp_path, name, text, kind):
    if kind == "stream":
        return io.StringIO(text)
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("kind", ["path", "stream"])
def test_a_leading_byte_order_mark_is_ignored(tmp_path, kind):
    tsv = parse_tsv(_source(tmp_path, "bom.tsv", "\ufeffq1\t1\t0.5\nq1\t0\t0.2\n", kind))
    assert tsv == grouped(("q1", "q1"), (1, 0), (0.5, 0.2))
    svm = parse_svmlight(_source(tmp_path, "bom.txt", "\ufeff1 qid:1 # score=0.5\n", kind))
    assert svm == grouped(("1",), (1,), (0.5,))
    (scored,) = parse_svmlight(
        io.StringIO("1 qid:1\n0 qid:1\n"),
        scores=_source(tmp_path, "bom.scores", "\ufeff0.5\n0.2\n", kind),
    )
    assert scored.scores == (0.5, 0.2)


def test_only_the_first_byte_order_mark_is_dropped():
    (group,) = parse_tsv(io.StringIO("\ufeff\ufeffq1\t1\t0.5\n"))
    assert group.query_id == "\ufeffq1"


# Rows whose cells int() and float() read, so that a block of them reaches
# every whole-block check; a few are out of range or not finite.
_NUMERIC_ROWS = st.builds(
    "\t".join,
    st.tuples(st.sampled_from(["q1", "q2", " q3 ", "q_4"]),
              st.sampled_from(["0", "1", " 2", "3 ", "+3", "-0", "5", "-1"]),
              st.sampled_from(["0.5", " -1.25", "3", "1e3 ", "+2", "-0.0", "nan", "-inf"])),
)
_ROWS = st.builds(
    "\t".join,
    st.tuples(st.sampled_from(["q1", "q#5", "q\u00e96", "\u00a0q7", "", "  "]),
              st.sampled_from(["1", "-1", "1_0", "7", "x", "", "\u0661"]),
              st.sampled_from(["0.5", "1_0", "nan", "inf", "-inf", "", "s"])),
)
# Rows whose cells hold characters that int(), float() or str.strip() skip as
# whitespace, and number-like cells that neither int() nor float() reads.
_SPACED_ROWS = st.builds(
    "\t".join,
    st.tuples(st.sampled_from(["q1", "\x1fq1", "q2\xa0", "\u3000q3", "q\x0b4"]),
              st.sampled_from(["1", "\x1f2", "3\x0b", "\xa01", "2\u3000", "+", "-", ".", "-e1"]),
              st.sampled_from(["0.5", "\x1f0.5", "1\x0b", "\xa0-1", "2\u3000", "+", ".",
                               "-e1", "e1", "1e", "-.5", "5."])),
)
_OTHER_LINES = st.sampled_from([
    "", " ", "\t", " \t ", "# comment", "  # indented\tcomment", "#q1\t1\t0.5",
    " # q1\t1\t0.5", "q1\t1", "2\t0.5", "q1\t1\t0.5\textra", "q1\t1\t0.5\t3", "q1",
    "\t\t",
])
_BREAKS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0c", "\x85"])


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(st.tuples(st.one_of(*[_NUMERIC_ROWS] * 4, _SPACED_ROWS, _ROWS, _OTHER_LINES),
                             _BREAKS),
                   max_size=40),
    block_chars=st.integers(1, 64),
    num_grades=st.one_of(st.none(), st.integers(4, 6)),
)
# Four fields then two make three cells a line, yet both lines are malformed.
@example(lines=[("q1\t1\t0.5\t3", "\n"), ("2\t0.5", "\n")], block_chars=64, num_grades=None)
# A first block that holds only the byte-order mark.
@example(lines=[("\ufeffq1\t1\t0.5", "\n")], block_chars=1, num_grades=None)
# Cells that strip() reads as padded, and number-like cells, in ASCII blocks and not.
@example(lines=[("\x1fq1\t\xa01\t2\u3000", "\x85"), ("q2\xa0\t2\u3000\t\x1f0.5", "\n")],
         block_chars=64, num_grades=None)
@example(lines=[(line, "\n") for line in ["q1\t+\t0.5", "q1\t1\t.", "q1\t1\t-e1", "q1\t-\t5."]],
         block_chars=64, num_grades=None)
# Grade and score cells longer than a fault message quotes.
@example(lines=[("q1\t" + "7x" * 30 + "\t0.5", "\n"), ("q1\t1\t" + "y" * 41, "\n"),
                ("q1\t1\t" + "1" * 40 + "e999", "\n"), ("q1\t1\t" + "z" * 40, "\n")],
         block_chars=64, num_grades=None)
# Grades longer than a fault message writes, negative and above a declared alphabet.
@example(lines=[("q1\t-" + "9" * 40 + "\t0.5", "\n"), ("q1\t-" + "9" * 39 + "\t0.5", "\n"),
                ("q1\t" + "8" * 41 + "\t0.5", "\n"), ("q1\t" + "8" * 40 + "\t0.5", "\n")],
         block_chars=64, num_grades=5)
# More malformed lines than a ParseError names.
@example(lines=[("q1\t1", "\n")] * 12 + [("q1\t1\t0.5", "\n")] + [("q1", "\n")] * 12,
         block_chars=64, num_grades=None)
def test_block_parse_matches_a_line_by_line_parse(lines, block_chars, num_grades):
    text = "".join(line + end for line, end in lines)
    query_ids, grades, scores, errors = parse_tsv_by_line(text, num_grades)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lindcg.io, "_BLOCK_CHARS", block_chars)
        if errors:
            with pytest.raises(ParseError) as info:
                parse_tsv(io.StringIO(text), num_grades)
            assert info.value.errors == errors[:KEPT_FAULTS]
            assert info.value.rejected_count == len(errors)
            assert info.value.accepted_count == len(grades)
        elif not grades:
            with pytest.raises(EmptyFileError):
                parse_tsv(io.StringIO(text), num_grades)
        else:
            groups = parse_tsv(io.StringIO(text), num_grades)
            assert groups == grouped(query_ids, grades, scores)


@pytest.mark.parametrize("block_chars", [1, 7, 4096])
def test_valid_blocks_are_never_read_line_by_line(monkeypatch, block_chars):
    text = "".join(f"q{i % 7}\t{i % 3}\t{i / 8}\n" for i in range(300))
    by_line = []
    data_lines = lindcg.io._data_lines

    def spy(first, lines, errors):
        by_line.extend(lines)
        return data_lines(first, lines, errors)

    monkeypatch.setattr(lindcg.io, "_BLOCK_CHARS", block_chars)
    monkeypatch.setattr(lindcg.io, "_data_lines", spy)
    groups = parse_tsv(io.StringIO(text))
    query_ids = _query_id_objects(text, "tsv")
    assert by_line == []
    assert groups == grouped(*parse_tsv_by_line(text)[:3])
    assert len(set(map(id, query_ids))) == 7


@pytest.mark.parametrize("block_chars", [1, 7, 4096])
def test_valid_svmlight_and_score_blocks_are_never_read_line_by_line(monkeypatch, block_chars):
    text = "".join(f"{i % 3} qid:q{i % 7} 1:{i / 8} 2:0.5\n" for i in range(300))
    scores = "".join(f"{i / 16}\n" for i in range(300))
    by_line = []
    data_lines = lindcg.io._data_lines

    def spy(first, lines, errors):
        by_line.extend(lines)
        return data_lines(first, lines, errors)

    monkeypatch.setattr(lindcg.io, "_BLOCK_CHARS", block_chars)
    monkeypatch.setattr(lindcg.io, "_data_lines", spy)
    groups = parse_svmlight(io.StringIO(text), scores=io.StringIO(scores))
    query_ids = _query_id_objects(text, "svmlight", scores)
    assert by_line == []
    assert groups == parse_svmlight_by_line(text, scores)
    assert len(set(map(id, query_ids))) == 7


def _outcome(parse, *args):
    """What a parse returns, or the type, message, errors and counts of what it raises."""
    try:
        return parse(*args)
    except LindcgError as error:
        return (type(error), str(error), getattr(error, "errors", None),
                getattr(error, "accepted_count", None), getattr(error, "rejected_count", None))


# SVMLight lines whose heads the head-only block read takes, so that a block
# of them with a score file reaches every whole-block check; a few grades
# are out of range, negative, hold a "_", are not integers or are no number.
_HEADS = st.builds(
    "".join,
    st.tuples(st.sampled_from(["", "", " ", "\t"]),
              st.sampled_from(["0", "1", "2", "3", "4", "-0", "+3", "7", "-1", "1_0", "x", "2.0",
                               "+", ".", "-e1"]),
              st.sampled_from([" ", "\t", "  "]),
              st.sampled_from(["qid:1", "qid:a7", "qid:Q_9"]),
              st.sampled_from(["", " 1:0.5", " 1:0.5 2:3", "\t1:2 "])),
)
# Lines that send their block to the line rules: inline scores and other
# comments, "#" in an id, whitespace to str.split other than space and tab,
# non-ASCII text, undecodable bytes and malformed heads.
_SVMLIGHT_ROWS = st.builds(
    "".join,
    st.tuples(st.sampled_from(["", " ", "\x1f", "\x0b", "\xa0", "\u3000"]),
              st.sampled_from(["1", "-1", "1_0", "x", "\u0661", "+", ".", "-e1", "1\xa0"]),
              st.sampled_from([" ", "\x1f", "\xa0", "\u3000"]),
              st.sampled_from(["qid:1", "qid:", "qid:q#1", "qid:\u00e9", "query:1"]),
              st.sampled_from(["", " 1:\u00e9", " 2:\udcff"]),
              st.sampled_from(["", " # score=0.5", " #score=1", " # score=nan", " # myscore=3",
                               "#"])),
)
_SVMLIGHT_LINES = st.one_of(*[_HEADS] * 4, _SVMLIGHT_ROWS, st.sampled_from([
    "", " ", "\t", "# comment", "  # 1 qid:1", "1", "1 ", "qid:1 1", "2 qid:q#1",
]))
# Mostly valid scores, so that the score file often passes and the data is read.
_SCORE_LINES = st.one_of(*[st.sampled_from(["0.5", " -1.25", "3", "1e3 ", "+2", "-0.0", "\t7"])] * 16,
                         st.sampled_from(["1_0", "nan", "-inf", "1e400", "1 2"]),
                         st.sampled_from(["", " ", "x", "\u0661", "# note", "\x1f0.5"]),
                         st.sampled_from(["\x0b0.5", "\xa0-1", "2\u3000", "+", ".", "-e1",
                                          "1e", "-.5", "5."]))
# "" joins two lines, or leaves the last line without a break.
_SVMLIGHT_BREAKS = st.sampled_from(["\n"] * 8 + ["", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
                                                 "\x1e", "\x85"])


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.tuples(_SVMLIGHT_LINES, _SVMLIGHT_BREAKS, _SCORE_LINES, _SVMLIGHT_BREAKS),
                  max_size=40),
    extra_scores=st.sampled_from([None, 0, 0, 0, -1, 1]),
    block_chars=st.integers(1, 64),
    num_grades=st.sampled_from([None, 3, 5]),
)
# A blank line and a two-number line: as many lines as split() tokens.
@example(rows=[("1 qid:1", "\n", "1 2", "\n"), ("0 qid:1", "\n", "", "\n")],
         extra_scores=0, block_chars=64, num_grades=None)
@example(rows=[("1\x1fqid:1 1:0", "\n", "0.5", "\n"), ("0 qid:1\x1f1:0", "\n", "0.25", "\n")],
         extra_scores=0, block_chars=64, num_grades=None)
@example(rows=[("0 qid:1\x1f1:0", "\n", "0.25", "\n")], extra_scores=0, block_chars=64,
         num_grades=None)
@example(rows=[("x qid:1", "\n", "0.5", "\n")], extra_scores=0, block_chars=64, num_grades=None)
@example(rows=[(f"{grade} qid:1", "\n", "0.5", "\n") for grade in ["-0", "+3", "1_0"]],
         extra_scores=0, block_chars=64, num_grades=None)
@example(rows=[("-1 qid:1", "\n", "0.5", "\n")], extra_scores=0, block_chars=64, num_grades=None)
@example(rows=[("2 qid:1", "\n", "0.5", "\n"), ("3 qid:1", "\n", "0.5", "\n")],
         extra_scores=0, block_chars=64, num_grades=3)
@example(rows=[("2 qid:1", "\n", "0.5", "\n"), ("0 qid:1", "\n", "1_0", "\n")],
         extra_scores=0, block_chars=64, num_grades=None)
@example(rows=[("1 qid:", "\n", "0.5", "\n"), ("1 qid:2", "\n", "0.5", "\n")],
         extra_scores=0, block_chars=64, num_grades=None)
@example(rows=[("2 qid:q#1", "\n", "0.5", "\n"), ("1 qid:q", "\n", "0.25", "\n")],
         extra_scores=0, block_chars=64, num_grades=5)
@example(rows=[("1 qid:1", "\r\n", "0.5", "\r\n"), ("0 qid:1", "\x0c", "0.25", "\x0c"),
               ("2 qid:2", "\n", "0.75", "\n")],
         extra_scores=0, block_chars=4, num_grades=None)
@example(rows=[("\u30001\xa0qid:1", "\x85", "\xa0-1", "\x85"), ("2 qid:1", "\n", "2\u3000", "\n")],
         extra_scores=0, block_chars=64, num_grades=None)
@example(rows=[(f"{grade} qid:1", "\n", "0.5", "\n") for grade in ["+", ".", "-e1"]],
         extra_scores=0, block_chars=64, num_grades=None)
@example(rows=[("1 qid:1", "\n", score, "\n") for score in ["-.5", "5.", "+", "-e1"]],
         extra_scores=0, block_chars=64, num_grades=None)
# A "\x1c" break in ASCII text, and last lines without a break.
@example(rows=[("1 qid:1", "\x1c", "0.5", "\n"), ("0 qid:2", "\n", "0.25", "\n")],
         extra_scores=0, block_chars=64, num_grades=None)
@example(rows=[("1 qid:1", "\n", "0.5", "\n"), ("0 qid:2", "", "0.25", "")],
         extra_scores=0, block_chars=64, num_grades=None)
@example(rows=[("1 qid:1", "\n", "0.5", "\n"), ("0 qid:1", "\n", "0.25", "\n")],
         extra_scores=-1, block_chars=64, num_grades=None)
@example(rows=[("1 qid:1", "\n", "0.5", "\n"), ("0 qid:1", "\n", "0.25", "\n")],
         extra_scores=1, block_chars=64, num_grades=None)
# Second tokens and scores longer than a fault message quotes, inline and in the score file.
@example(rows=[("1 " + "x" * 45 + " # score=0.5", "\n", "0.5", "\n"),
               ("1 qid:1 # score=" + "s" * 50, "\n", "0.5", "\n")],
         extra_scores=None, block_chars=64, num_grades=None)
@example(rows=[("1 qid:1", "\n", "w" * 50, "\n"), ("0 qid:1", "\n", "0.5", "\n")],
         extra_scores=0, block_chars=64, num_grades=None)
# Grades longer than a fault message writes, negative and above a declared alphabet.
@example(rows=[("-" + "9" * 45 + " qid:1", "\n", "0.5", "\n"),
               ("7" * 45 + " qid:1", "\n", "0.5", "\n")],
         extra_scores=0, block_chars=64, num_grades=5)
# More malformed lines than a ParseError names, in the data and in the score file.
@example(rows=[("1", "\n", "0.5", "\n")] * 25, extra_scores=0, block_chars=64, num_grades=None)
@example(rows=[("1 qid:1", "\n", "x", "\n")] * 25, extra_scores=0, block_chars=64,
         num_grades=None)
def test_svmlight_block_parse_matches_a_line_by_line_parse(rows, extra_scores, block_chars,
                                                           num_grades):
    text = "".join(line + end for line, end, _, _ in rows)
    scores = None
    if extra_scores is not None:
        score_lines = [score + end for _, _, score, end in rows]
        if extra_scores < 0:
            score_lines = score_lines[:extra_scores]
        scores = "".join(score_lines) + "0.5\n" * max(extra_scores, 0)
    expected = _outcome(parse_svmlight_by_line, text, scores, num_grades)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lindcg.io, "_BLOCK_CHARS", block_chars)
        actual = _outcome(parse_svmlight, io.StringIO(text),
                          None if scores is None else io.StringIO(scores), num_grades)
    assert actual == expected

