"""Tests of the benchmark's generator, reference check and span recorder.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import pytest

import generate
import reference
import run
import spans

CLI = run.import_cli()


def small(name: str, rows: int = 3000) -> generate.Workload:
    return replace(generate.WORKLOADS[name], rows=rows)


def lindcg_json(tmp_path, data: generate.Dataset) -> dict:
    files = generate.write(data, tmp_path)
    return json.loads(run.run_cli(CLI, run.cli_args(files, data.workload.fmt)))


@pytest.mark.parametrize("name", list(generate.WORKLOADS))
def test_generator_is_deterministic(tmp_path, name):
    workload = small(name)
    first = generate.write(generate.build(workload, 7), tmp_path / "a")
    again = generate.write(generate.build(workload, 7), tmp_path / "b")
    other = generate.write(generate.build(workload, 8), tmp_path / "c")
    assert first.keys() == again.keys()
    for role in first:
        assert first[role].read_bytes() == again[role].read_bytes()
    assert first["input"].read_bytes() != other["input"].read_bytes()


def test_generated_shapes_match_their_parameters():
    for name, workload in generate.WORKLOADS.items():
        data = generate.build(workload, 3)
        queries = data.queries()
        low, high = workload.query_size
        assert len(data.rows) == workload.rows, name
        assert all(low <= len(items) <= high for items in queries.values()), name
        assert max(g for _, g, _ in data.rows) == workload.max_grade, name
        tied = sum(len({s for _, s in items}) < len(items) for items in queries.values())
        assert tied == round(workload.tie_share * len(queries)), name
    rows = generate.build(generate.WORKLOADS["tsv-letor"], 3).rows
    assert rows[:200] != sorted(rows[:200], key=lambda row: row[0])  # interleaved


@pytest.mark.parametrize("name", list(generate.WORKLOADS))
def test_reference_agrees_with_lindcg(tmp_path, name):
    data = generate.build(small(name, 2000), 5)
    ref = reference.dataset_reference(data.queries())
    assert reference.failed_queries(lindcg_json(tmp_path, data), ref) == 0


def test_calibration_job_writes_the_reference_values(tmp_path):
    data = generate.build(replace(generate.CALIBRATION, rows=2000), generate.CALIBRATION_SEED)
    files = generate.write(data, tmp_path)
    launcher = run.Launcher()
    try:
        argv = [sys.executable, str(run.HERE / "calibrate.py"), str(files["input"])]
        _, _, code = launcher.run(argv, tmp_path / "out.json")
    finally:
        launcher.close()
    assert code == 0
    written = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
    assert written == reference.dataset_reference(data.queries())


def test_reference_flags_one_corrupted_pairwise_loss(tmp_path):
    data = generate.build(small("tsv-letor", 2000), 5)
    ref = reference.dataset_reference(data.queries())
    report = lindcg_json(tmp_path, data)
    report["queries"][3]["pairwise_loss"] += 1
    assert reference.failed_queries(report, ref) == 1
    report["total_pairwise_loss"] += 1  # a wrong aggregate fails every query
    assert reference.failed_queries(report, ref) == len(ref)


def test_reference_flags_floats_beyond_six_digits_and_failed_identity(tmp_path):
    data = generate.build(small("fine-grades", 500), 5)
    ref = reference.dataset_reference(data.queries())
    report = lindcg_json(tmp_path, data)
    value = report["queries"][0]["ndcg_classic"]
    report["queries"][0]["ndcg_classic"] = float(f"{value * (1 + 1e-4):.6g}")
    report["queries"][1]["identity"] = "failed"
    report["verification"]["passed"] -= 1
    report["verification"]["failed"] += 1
    assert reference.failed_queries(report, ref) == 2
    assert reference.failed_queries(None, ref) == len(ref)


def test_six_digit_comparison_accepts_either_side_of_a_boundary():
    assert reference.same_to_6_digits(0.123457, 0.1234565)
    assert reference.same_to_6_digits(0.123456, 0.1234565)
    assert not reference.same_to_6_digits(0.123455, 0.1234565)
    assert not reference.same_to_6_digits(True, 1.0)


def test_self_times_subtract_nested_children():
    recorder = spans.SpanRecorder()
    for name, parent, start, end in [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 1, 2.0, 3.0),
        ("a", 0, 5.0, 9.0),
        ("b", 3, 5.5, 6.0),
        ("b", 3, 7.0, 8.5),
    ]:
        recorder.names.append(name)
        recorder.parents.append(parent)
        recorder.starts.append(start)
        recorder.ends.append(end)
    self_times = recorder.self_times()
    assert self_times == pytest.approx({"root": 3.0, "a": 4.0, "b": 3.0})
    assert sum(self_times.values()) == pytest.approx(recorder.total("root"))
    assert recorder.calls() == {"root": 1, "a": 2, "b": 3}


def test_traced_pass_accounts_for_every_layer(tmp_path):
    data = generate.build(small("fine-grades", 400), 2)
    files = generate.write(data, tmp_path)
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder), recorder.span(spans.ROOT):
        assert run.run_cli(CLI, run.cli_args(files, "tsv")) is not None
    for name in ("parse_tsv", "build_aggregate_report", "render_json"):  # restored
        assert not hasattr(getattr(CLI, name), "__wrapped__"), name
    queries = len(data.queries())
    calls = recorder.calls()
    assert calls["metrics.compute_report"] == calls["equivalence.verify"] == queries
    assert calls["io.parse"] == calls["io.group"] == calls["report.render"] == 1
    assert recorder.counts["equivalence.detail_records"] == 31 * queries
    assert recorder.counts["core.group_builds"] == queries * 31  # 1 + 30 binarized
    assert set(recorder.self_times()) == {spans.ROOT, *spans.LAYERS}
    assert sum(recorder.self_times().values()) == pytest.approx(
        recorder.total(spans.ROOT), rel=1e-9)


def test_failed_command_reads_as_none(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("q1\tnot-a-grade\t0.5\n", encoding="utf-8")
    assert run.run_cli(CLI, ["metrics", "--input", str(bad), "--output", "json"]) is None
    assert run.run_cli(CLI, ["metrics", "--input", str(tmp_path / "missing")]) is None


def test_missing_entry_point_reports_zero(monkeypatch):
    monkeypatch.setattr(spans, "ENTRY_POINTS", (
        ("lindcg.pairwise", "no_such_function", "pairwise.gone"),
        ("lindcg.no_such_module", "f", "gone.module"),
        ("lindcg.io", "NoSuchClass.method", "gone.method"),
    ))
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder):
        pass
    assert recorder.calls()["pairwise.gone"] == 0
    assert recorder.self_times() == {}


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(generate.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, *_) in run.PER_LAYER.items()
    }


def test_launched_child_reports_its_own_peak_rss(tmp_path):
    import run

    launcher = run.Launcher()
    try:
        ballast = b"x" * (150 * 1024 * 1024)  # 150 MB resident in this process
        _, peak_mb, code = launcher.run(run.cli_argv(["metrics", "--help"]), tmp_path / "out")
        del ballast
    finally:
        launcher.close()
    assert code == 0
    assert peak_mb < 100
