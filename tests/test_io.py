import io

import pytest

from lindcg.errors import EmptyFileError, ParseError, ScoreCountMismatchError
from lindcg.io import DatasetFile, DatasetRecord, parse_svmlight, parse_tsv

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
    assert dataset.records == (
        DatasetRecord("q2", 1, 0.25),
        DatasetRecord("q1", 0, 0.9),
        DatasetRecord("q1", 2, 0.1),
        DatasetRecord("q2", 0, 0.75),
    )


def test_query_groups_sorted_by_id_with_file_order_items():
    groups = parse_tsv(io.StringIO(GOOD_TSV)).query_groups()
    assert [g.query_id for g in groups] == ["q1", "q2"]
    assert [item.grade for item in groups[0].items] == [0, 2]
    assert [item.score for item in groups[1].items] == [0.25, 0.75]


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
    assert parse_tsv(path).records == parse_tsv(io.StringIO(GOOD_TSV)).records
    assert parse_tsv(str(path)).records == parse_tsv(path).records


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
    assert [item.grade for item in group.items] == [1, 0, 2]
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
    assert dataset.records == (
        DatasetRecord("7", 2, 0.9),
        DatasetRecord("7", 0, 0.2),
        DatasetRecord("3", 1, 0.7),
    )
    assert [g.query_id for g in dataset.query_groups()] == ["3", "7"]


def test_parse_svmlight_feature_vectors_are_ignored():
    a = parse_svmlight(io.StringIO("1 qid:1 1:9.9 2:8.8 3:7.7 # score=0.5\n"))
    b = parse_svmlight(io.StringIO("1 qid:1 # score=0.5\n"))
    assert a.records == b.records


def test_companion_score_file_wins_over_inline_comments():
    dataset = parse_svmlight(
        io.StringIO(GOOD_SVMLIGHT), scores=io.StringIO("0.1\n0.2\n0.3\n")
    )
    assert [r.score for r in dataset.records] == [0.1, 0.2, 0.3]


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
    assert dataset.records[0].score == 0.1
    with pytest.raises(ParseError):
        parse_svmlight(io.StringIO("1 qid:1 # myscore=9\n"))


def test_svmlight_score_file_path(tmp_path):
    data = tmp_path / "train.txt"
    data.write_text("1 qid:1 1:0.2\n0 qid:1 1:0.4\n", encoding="utf-8")
    preds = tmp_path / "preds.txt"
    preds.write_text("0.8\n0.6\n", encoding="utf-8")
    dataset = parse_svmlight(data, scores=preds)
    assert [r.score for r in dataset.records] == [0.8, 0.6]


def test_dataset_file_roundtrips_into_groups():
    dataset = DatasetFile(
        records=(
            DatasetRecord("b", 1, 0.5),
            DatasetRecord("a", 0, 0.1),
            DatasetRecord("b", 0, 0.4),
        )
    )
    groups = dataset.query_groups()
    assert [g.query_id for g in groups] == ["a", "b"]
    assert len(groups[1]) == 2
