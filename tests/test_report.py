import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import group_from_ranking, make_group
from lindcg.report import (
    build_aggregate_report,
    render_csv,
    render_json,
    render_text,
    to_json_dict,
)

GOLDEN = group_from_ranking([1, 0, 0, 1, 1, 0], query_id="g")
SINGLETON = make_group([3], [0.5], query_id="a", num_grades=4)
TIED = make_group([0, 1], [0.5, 0.5], query_id="t")


def test_aggregate_sorts_queries_and_averages_over_all_of_them():
    report = build_aggregate_report([GOLDEN, SINGLETON])
    assert [r.query_id for r in report.per_query] == ["a", "g"]
    assert report.mean_ndcg_linear == (1.0 + 8 / 12) / 2
    assert report.total_pairwise_loss == 4
    assert report.verification_summary.passed == 2
    assert report.verification_summary.failed == 0


def test_tie_afflicted_queries_are_counted_apart():
    report = build_aggregate_report([GOLDEN, TIED])
    summary = report.verification_summary
    assert (summary.passed, summary.failed, summary.tie_flagged) == (1, 0, 1)


def test_json_round_trips_and_is_deterministic():
    report = build_aggregate_report([GOLDEN, SINGLETON])
    text = render_json(report)
    assert text == render_json(build_aggregate_report([SINGLETON, GOLDEN]))
    payload = json.loads(text)
    assert payload["num_queries"] == 2
    assert payload["mean_ndcg_linear"] == 0.833333
    golden_row = payload["queries"][1]
    assert golden_row["query_id"] == "g"
    assert golden_row["dcg_linear"] == 8
    assert golden_row["ideal_dcg_linear"] == 12
    assert golden_row["ndcg_linear"] == 0.666667
    assert golden_row["pairwise_loss"] == 4
    assert golden_row["normalizer_z"] == 9
    assert golden_row["normalized_pairwise_loss"] == 0.444444
    assert golden_row["identity"] == "passed"
    singleton_row = payload["queries"][0]
    assert singleton_row["degenerate_linear"] is True
    assert singleton_row["ndcg_linear"] == 1.0


def test_six_significant_digit_floats_round_trip_via_repr():
    payload = to_json_dict(build_aggregate_report([GOLDEN]))
    value = payload["queries"][0]["ndcg_linear"]
    assert repr(value) == "0.666667"


def test_csv_has_one_row_per_query_and_lowercase_booleans():
    text = render_csv(build_aggregate_report([GOLDEN, SINGLETON]))
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("query_id,num_items,dcg_linear")
    assert lines[1].startswith("a,1,")
    assert ",true," in lines[1]  # degenerate_linear
    assert lines[2].startswith("g,6,8,12,0.666667,")
    assert ",false,false," in lines[2]


def test_text_report_marks_status_and_flags():
    text = render_text(build_aggregate_report([GOLDEN, SINGLETON, TIED]))
    assert "identity_checks: passed=2 failed=0 tie_flagged=1" in text
    lines = text.splitlines()
    assert lines[0].split()[:2] == ["query", "items"]
    golden_line = next(line for line in lines if line.startswith("g "))
    assert " ok" in golden_line
    tied_line = next(line for line in lines if line.startswith("t "))
    assert " ties" in tied_line
    singleton_line = next(line for line in lines if line.startswith("a "))
    assert "deg-lin" in singleton_line


def test_empty_dataset_aggregates_to_zeroes():
    report = build_aggregate_report([])
    assert report.per_query == ()
    assert report.mean_ndcg_linear == 0.0
    assert report.total_pairwise_loss == 0
    assert json.loads(render_json(report))["queries"] == []


_QUERY_IDS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['q"1', "q\\2", "q\n3", "\x00\x1f\x7f", "\u00e9t\u00e9", "\u2028", "\U0001f600"]),
)
_GROUPS = st.builds(
    lambda query_id, rows: make_group([g for g, _ in rows], [s for _, s in rows], query_id),
    _QUERY_IDS,
    st.lists(st.tuples(st.integers(0, 4), st.integers(-2, 2)), min_size=1, max_size=6),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_GROUPS, max_size=8))
@example([])
@example([GOLDEN])
def test_render_json_equals_json_dumps_with_indent_2(groups):
    report = build_aggregate_report(groups)
    assert render_json(report) == json.dumps(to_json_dict(report), indent=2) + "\n"
