import io
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lindcg.io
from helpers import parse_tsv_by_line
from lindcg.errors import EmptyFileError, ParseError, ScoreCountMismatchError
from lindcg.io import _BLOCK_CHARS, DatasetFile, _read_lines, parse_svmlight, parse_tsv

GOOD_TSV = """\
# comment line
q2\t1\t0.25
q1\t0\t0.9

q1\t2\t0.1
  # indented comment
q2\t0\t0.75
"""


def test_parse_tsv_reads_records_in_file_order():
    dataset = parse_tsv(io.StringIO(GOOD_TSV))
    assert dataset.query_ids == ("q2", "q1", "q1", "q2")
    assert dataset.grades == (1, 0, 2, 0)
    assert dataset.scores == (0.25, 0.9, 0.1, 0.75)


def test_readers_keep_one_string_per_query_id():
    tsv = parse_tsv(io.StringIO(GOOD_TSV)).query_ids
    assert tsv[0] is tsv[3] and tsv[1] is tsv[2]
    svmlight = parse_svmlight(io.StringIO(
        "1 qid:7 # score=0.5\n0 qid:8 # score=0.1\n0 qid:7 # score=0.2\n")).query_ids
    assert svmlight == ("7", "8", "7")
    assert svmlight[0] is svmlight[2]


def test_query_groups_sorted_by_id_with_file_order_items():
    groups = parse_tsv(io.StringIO(GOOD_TSV)).query_groups()
    assert [g.query_id for g in groups] == ["q1", "q2"]
    assert list(groups[0].grades) == [0, 2]
    assert list(groups[1].scores) == [0.25, 0.75]


def test_grade_alphabet_is_inferred_globally():
    groups = parse_tsv(io.StringIO(GOOD_TSV)).query_groups()
    # q2 only holds grades {0, 1} but the file-wide maximum is 2.
    assert [g.num_grades for g in groups] == [3, 3]


def test_all_zero_dataset_still_gets_a_binary_alphabet():
    dataset = parse_tsv(io.StringIO("a\t0\t0.5\na\t0\t0.25\n"))
    assert dataset.num_grades() == 2


def test_declared_alphabet_overrides_inference():
    dataset = parse_tsv(io.StringIO("a\t1\t0.5\n"), num_grades=5)
    assert dataset.num_grades() == 5
    assert dataset.query_groups()[0].num_grades == 5


def test_declared_alphabet_rejects_grades_outside_it():
    with pytest.raises(ParseError) as exc:
        parse_tsv(io.StringIO("a\t1\t0.5\na\t5\t0.4\n"), num_grades=2)
    assert exc.value.errors == [(2, "grade 5 outside declared alphabet of 2")]
    assert exc.value.accepted_count == 1


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
    (group,) = parse_tsv(io.StringIO(text)).query_groups()
    assert list(group.grades) == [1, 0, 2]
    assert group.has_score_ties()


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
    dataset = parse_svmlight(io.StringIO(GOOD_SVMLIGHT))
    assert dataset.query_ids == ("7", "7", "3")
    assert dataset.grades == (2, 0, 1)
    assert dataset.scores == (0.9, 0.2, 0.7)
    assert [g.query_id for g in dataset.query_groups()] == ["3", "7"]


def test_parse_svmlight_feature_vectors_are_ignored():
    a = parse_svmlight(io.StringIO("1 qid:1 1:9.9 2:8.8 3:7.7 # score=0.5\n"))
    b = parse_svmlight(io.StringIO("1 qid:1 # score=0.5\n"))
    assert a == b


def test_companion_score_file_wins_over_inline_comments():
    dataset = parse_svmlight(
        io.StringIO(GOOD_SVMLIGHT), scores=io.StringIO("0.1\n0.2\n0.3\n")
    )
    assert list(dataset.scores) == [0.1, 0.2, 0.3]


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
    dataset = parse_svmlight(io.StringIO("1 qid:1 1:0.5 # myscore=9 score=0.1\n"))
    assert dataset.scores[0] == 0.1
    with pytest.raises(ParseError):
        parse_svmlight(io.StringIO("1 qid:1 # myscore=9\n"))


def test_svmlight_score_file_path(tmp_path):
    data = tmp_path / "train.txt"
    data.write_text("1 qid:1 1:0.2\n0 qid:1 1:0.4\n", encoding="utf-8")
    preds = tmp_path / "preds.txt"
    preds.write_text("0.8\n0.6\n", encoding="utf-8")
    dataset = parse_svmlight(data, scores=preds)
    assert list(dataset.scores) == [0.8, 0.6]


def test_dataset_file_roundtrips_into_groups():
    dataset = DatasetFile(
        query_ids=("b", "a", "b"),
        grades=(1, 0, 0),
        scores=(0.5, 0.1, 0.4),
    )
    groups = dataset.query_groups()
    assert [g.query_id for g in groups] == ["a", "b"]
    assert len(groups[1]) == 2


@pytest.mark.parametrize("scores", ["0.1\n", "0.1\n0.2\n0.3\n0.4\n"])
def test_score_count_mismatch_outranks_malformed_data_lines(scores):
    data = io.StringIO("1 qid:1\nnot a row\n0 qid:2\n")
    with pytest.raises(ScoreCountMismatchError) as info:
        parse_svmlight(data, scores=io.StringIO(scores))
    assert str(info.value).startswith("3 data rows but ")


BREAKS_TSV = "q\t1\t0.5\x0cq\t0\t0.2\u2028q\t2\t0.1\r\nq\t0\t0.3\rq\t1\t0.4\n"


def test_lines_end_where_str_splitlines_ends_them(tmp_path):
    path = tmp_path / "breaks.tsv"
    path.write_bytes(BREAKS_TSV.encode("utf-8"))
    for dataset in (parse_tsv(path), parse_tsv(io.StringIO(BREAKS_TSV))):
        assert dataset.grades == (1, 0, 2, 0, 1)
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
    if source == "path":
        path = tmp_path / "blocks.txt"
        path.write_bytes(text.encode("utf-8"))
        lines = list(_read_lines(path, errors))
    else:
        lines = list(_read_lines(io.StringIO(text), errors))
    assert lines == _splitlines_data(text)
    assert errors == []


def _source(tmp_path, name, text, kind):
    if kind == "stream":
        return io.StringIO(text)
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("kind", ["path", "stream"])
def test_a_leading_byte_order_mark_is_ignored(tmp_path, kind):
    tsv = parse_tsv(_source(tmp_path, "bom.tsv", "\ufeffq1\t1\t0.5\nq1\t0\t0.2\n", kind))
    assert tsv.query_ids == ("q1", "q1")
    svm = parse_svmlight(_source(tmp_path, "bom.txt", "\ufeff1 qid:1 # score=0.5\n", kind))
    assert (svm.query_ids, svm.grades, svm.scores) == (("1",), (1,), (0.5,))
    scored = parse_svmlight(
        io.StringIO("1 qid:1\n0 qid:1\n"),
        scores=_source(tmp_path, "bom.scores", "\ufeff0.5\n0.2\n", kind),
    )
    assert scored.scores == (0.5, 0.2)


def test_only_the_first_byte_order_mark_is_dropped():
    dataset = parse_tsv(io.StringIO("\ufeff\ufeffq1\t1\t0.5\n"))
    assert dataset.query_ids == ("\ufeffq1",)


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
_OTHER_LINES = st.sampled_from([
    "", " ", "\t", " \t ", "# comment", "  # indented\tcomment", "#q1\t1\t0.5",
    " # q1\t1\t0.5", "q1\t1", "2\t0.5", "q1\t1\t0.5\textra", "q1\t1\t0.5\t3", "q1",
    "\t\t",
])
_BREAKS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0c"])


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(st.tuples(st.one_of(*[_NUMERIC_ROWS] * 4, _ROWS, _OTHER_LINES), _BREAKS),
                   max_size=40),
    block_chars=st.integers(1, 64),
    num_grades=st.one_of(st.none(), st.integers(4, 6)),
)
# Four fields then two make three cells a line, yet both lines are malformed.
@example(lines=[("q1\t1\t0.5\t3", "\n"), ("2\t0.5", "\n")], block_chars=64, num_grades=None)
def test_block_parse_matches_a_line_by_line_parse(lines, block_chars, num_grades):
    text = "".join(line + end for line, end in lines)
    query_ids, grades, scores, errors = parse_tsv_by_line(text, num_grades)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lindcg.io, "_BLOCK_CHARS", block_chars)
        if errors:
            with pytest.raises(ParseError) as info:
                parse_tsv(io.StringIO(text), num_grades)
            assert info.value.errors == errors
            assert info.value.accepted_count == len(grades)
        elif not grades:
            with pytest.raises(EmptyFileError):
                parse_tsv(io.StringIO(text), num_grades)
        else:
            dataset = parse_tsv(io.StringIO(text), num_grades)
            assert dataset == DatasetFile(query_ids, grades, scores, num_grades)


@pytest.mark.parametrize("block_chars", [1, 7, 4096])
def test_valid_blocks_are_never_read_line_by_line(monkeypatch, block_chars):
    text = "".join(f"q{i % 7}\t{i % 3}\t{i / 8}\n" for i in range(300))
    by_line = []
    data_lines = lindcg.io._data_lines

    def spy(blocks, errors):
        blocks = list(blocks)
        by_line.extend(line for _, lines in blocks for line in lines)
        return data_lines(blocks, errors)

    monkeypatch.setattr(lindcg.io, "_BLOCK_CHARS", block_chars)
    monkeypatch.setattr(lindcg.io, "_data_lines", spy)
    dataset = parse_tsv(io.StringIO(text))
    assert by_line == []
    assert dataset == DatasetFile(*parse_tsv_by_line(text)[:3])
    assert len(set(map(id, dataset.query_ids))) == 7
