"""Benchmark of `lindcg metrics --output json` on three seeded workloads.

    python3 perfbench/run.py --workload tsv-letor --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  With ``--trace 0`` it times whole
`lindcg metrics` child processes, one at a time (a closed loop with one
client), and reports the end-to-end metrics, scaled by the time of a fixed
calibration job run next to each child.  With ``--trace 1`` it runs
the same command in this process with every public entry point wrapped,
and reports per-layer self times and counts.  Every output is checked
against an independent reference outside the timed region.  The last line
of standard output is one JSON object; ``--workload all`` runs every
workload and prefixes each metric with its workload name.

See perfbench/README.md for the metrics, the workloads and why each exists.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import click

import generate
import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CLI = "import sys; from lindcg.cli import main; sys.exit(main())"

MIN_ROUNDS = 3     # full CLI runs per run, however long they take
SETUP_EVERY = 4    # one-query CLI runs after each full one; setup_s is their median
MIN_TRACED = 3     # traced (and untraced in-process) passes per run
# Child times are scaled to a host that runs calibrate.py in this many seconds.  On
# the baseline machine the job's wall time moved between 0.24 and 0.51 s with the host.
CALIBRATION_REF_S = 0.35

END_TO_END_UNITS = {"rows_per_s": "rows/s", "peak_rss_mb": "MB", "setup_s": "s"}
# per-layer metric -> (unit, source, span or counter name); the source is a span's
# self time or call count, a counter, or a value read from the output
PER_LAYER = {
    "io.parse_s": ("s", "self", "io.parse"),
    "io.group_s": ("s", "self", "io.group"),
    "io.rows": ("count", "output", None),
    "io.rows_rejected": ("count", "output", None),
    "io.queries": ("count", "output", None),
    "io.input_bytes": ("bytes", "output", None),
    "core.rank_calls": ("count", "calls", "core.rank"),
    "core.rank_s": ("s", "self", "core.rank"),
    "core.group_builds": ("count", "counter", "core.group_builds"),
    "core.group_build_items": ("count", "counter", "core.group_build_items"),
    "metrics.compute_report_s": ("s", "self", "metrics.compute_report"),
    "metrics.compute_report_calls": ("count", "calls", "metrics.compute_report"),
    "pairwise.loss_fast_s": ("s", "self", "pairwise.loss_fast"),
    "pairwise.loss_fast_calls": ("count", "calls", "pairwise.loss_fast"),
    "pairwise.binarize_s": ("s", "self", "pairwise.binarize"),
    "pairwise.binarize_calls": ("count", "calls", "pairwise.binarize"),
    "equivalence.verify_s": ("s", "self", "equivalence.verify"),
    "equivalence.verify_calls": ("count", "calls", "equivalence.verify"),
    "equivalence.detail_records": ("count", "counter", "equivalence.detail_records"),
    "equivalence.tie_flagged": ("count", "output", None),
    "equivalence.failed": ("count", "output", None),
    "report.aggregate_self_s": ("s", "self", "report.aggregate"),
    "report.render_s": ("s", "self", "report.render"),
    "report.output_bytes": ("bytes", "output", None),
    "report.degenerate": ("count", "output", None),
    "trace.pass_s": ("s", "output", None),
    "trace.unattributed_s": ("s", "self", spans.ROOT),
    "trace.overhead_s": ("s", "output", None),
}


def cli_argv(args: list[str]) -> list[str]:
    """The command line of a `lindcg <args>` child."""
    return [sys.executable, "-c", CLI, *args]


def cli_args(files: dict[str, Path], fmt: str) -> list[str]:
    args = ["metrics", "--input", str(files["input"]), "--format", fmt, "--output", "json"]
    if "scores" in files:
        args += ["--scores", str(files["scores"])]
    return args


class Launcher:
    """Runs children through launch.py, one at a time.

    Start it before the run allocates its inputs, so that each child's
    ru_maxrss is its own (see launch.py).
    """

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))

    def run(self, argv: list[str], out_path: Path) -> tuple[float, float, int]:
        """One child: (wall seconds, peak RSS in MB, exit code)."""
        err_path = out_path.with_suffix(".err")
        request = {"argv": argv, "env": self.env,
                   "cwd": str(ROOT), "stdout": str(out_path), "stderr": str(err_path)}
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        reply = json.loads(self.process.stdout.readline())
        if reply["code"]:
            message = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"child exited {reply['code']}: {message}", file=sys.stderr)
        return reply["wall_s"], reply["maxrss_kb"] / 1024, reply["code"]

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()
        self.process.stdout.close()


class Tally:
    """Queries checked and queries failed over a run."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0

    def add(self, text: bytes | str | None, ref: dict[str, dict]) -> None:
        """Check one JSON report; None or unparsable text fails every query."""
        try:
            report = json.loads(text) if text is not None else None
        except ValueError:
            report = None
        self.attempted += len(ref)
        self.failed += reference.failed_queries(report, ref)


def end_to_end(launcher, files, setup_files, fmt, ref, setup_ref, rows, seconds, work,
               tally, name):
    """Rounds of one full child, the calibration job, SETUP_EVERY one-query
    children and the calibration job again, for `seconds`.

    The host's speed changes by up to 1.6x within seconds and by 2x within
    minutes (README.md, "Measurement noise and bounds").  Each child's
    wall time is therefore scaled by CALIBRATION_REF_S over the mean time of
    the calibration jobs just before and just after it.  Interleaving the
    two commands also puts both medians over the same stretch of time.
    """
    out = work / "out.json"
    argv, setup_argv = cli_argv(cli_args(files, fmt)), cli_argv(cli_args(setup_files, fmt))
    calibration = generate.write(
        generate.build(generate.CALIBRATION, generate.CALIBRATION_SEED), work / "calibration")
    calibration_argv = [sys.executable, str(HERE / "calibrate.py"), str(calibration["input"])]
    calibrations = []

    def calibrate() -> float:
        wall, _, code = launcher.run(calibration_argv, work / "calibration.json")
        if code:
            raise RuntimeError("the calibration job failed")
        calibrations.append(wall)
        return wall

    launcher.run(setup_argv, out)  # writes bytecode caches; not measured
    calibrate()                    # likewise
    calibrations.clear()
    walls, rss, setup_walls, raw_walls, raw_setup_walls = [], [], [], [], []
    before = calibrate()
    start = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        wall, peak, code = launcher.run(argv, out)
        tally.add(out.read_bytes() if code == 0 else None, ref)
        middle = calibrate()
        raw_walls.append(wall)
        walls.append(wall * 2 * CALIBRATION_REF_S / (before + middle))
        rss.append(peak)
        setups = []
        for _ in range(SETUP_EVERY):
            wall, _, code = launcher.run(setup_argv, out)
            setups.append(wall)
            tally.add(out.read_bytes() if code == 0 else None, setup_ref)
        before = calibrate()
        raw_setup_walls += setups
        setup_walls += [wall * 2 * CALIBRATION_REF_S / (middle + before) for wall in setups]
    print(f"{name}  unscaled: rows_per_s = {rows / statistics.median(raw_walls):.6g} rows/s,"
          f" setup_s = {statistics.median(raw_setup_walls):.6g} s; calibration job"
          f" median {statistics.median(calibrations):.4g} s"
          f" (reference {CALIBRATION_REF_S} s), {len(walls)} rounds")
    return {
        "rows_per_s": rows / statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup_walls),
    }


def import_cli():
    """Import lindcg.cli from ./src and refuse any other copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lindcg.cli

    if Path(lindcg.__file__).resolve().parent != SRC / "lindcg":
        raise RuntimeError(f"lindcg imported from {lindcg.__file__}, not {SRC}")
    return lindcg.cli


def run_cli(cli, args: list[str]) -> str | None:
    """Run `lindcg <args>` in this process: its standard output, or None if it fails.

    A usage error or a non-zero exit is a failure, as in the end-to-end mode.
    """
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            cli.main.main(args, standalone_mode=False)
    except click.ClickException:
        return None
    except SystemExit as exc:
        if exc.code not in (None, 0):
            return None
    return buf.getvalue()


def per_layer(files, fmt, ref, rows, seconds, name, tally):
    """Alternate untraced and traced in-process passes for `seconds`.

    Reports the traced pass with the median time.  The tracing cost is the
    median of paired differences, each traced pass minus the untraced pass
    just before it, so that a slow drift in the host's speed cancels out.
    """
    cli = import_cli()  # before instrumented(), so its imported names are wrapped too
    args = cli_args(files, fmt)
    traced, overheads = [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED or time.perf_counter() - start < seconds:
        began = time.perf_counter()
        text = run_cli(cli, args)
        plain_s = time.perf_counter() - began
        tally.add(text, ref)

        recorder = spans.SpanRecorder()
        with spans.instrumented(recorder), recorder.span(spans.ROOT):
            text = run_cli(cli, args)
        tally.add(text, ref)
        traced.append((recorder.total(spans.ROOT), recorder, text))
        overheads.append(traced[-1][0] - plain_s)

    traced.sort(key=lambda run: run[0])
    pass_s, recorder, text = traced[(len(traced) - 1) // 2]
    WORK.mkdir(exist_ok=True)
    recorder.write(WORK / f"spans-{name}.jsonl")

    if text is None:
        raise RuntimeError("lindcg metrics failed in the traced pass")
    report = json.loads(text)
    queries = report["queries"]
    output = {
        "io.rows": sum(q["num_items"] for q in queries),
        "io.rows_rejected": rows - sum(q["num_items"] for q in queries),
        "io.queries": report["num_queries"],
        "io.input_bytes": sum(path.stat().st_size for path in files.values()),
        "equivalence.tie_flagged": report["verification"]["tie_flagged"],
        "equivalence.failed": report["verification"]["failed"],
        "report.output_bytes": len(text.encode("utf-8")),
        "report.degenerate": sum(
            q["degenerate_linear"] or q["degenerate_classic"] for q in queries
        ),
        "trace.pass_s": pass_s,
        "trace.overhead_s": statistics.median(overheads),
    }
    self_times, calls = recorder.self_times(), recorder.calls()
    values = {}
    for metric, (_, source, key) in PER_LAYER.items():
        if source == "self":
            values[metric] = self_times.get(key, 0.0)
        elif source == "calls":
            values[metric] = calls.get(key, 0)
        elif source == "counter":
            values[metric] = recorder.counts.get(key, 0)
        else:
            values[metric] = output[metric]
    return values


def run_workload(name: str, seed: int, seconds: float, launcher: Launcher | None):
    """Metrics and the query tally for one workload; traced without a launcher."""
    data = generate.build(generate.WORKLOADS[name], seed)
    setup_data = generate.one_query(data)
    fmt = data.workload.fmt
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    tally = Tally()
    try:
        files = generate.write(data, work)
        setup_files = generate.write(setup_data, work / "setup")
        ref = reference.dataset_reference(data.queries())
        setup_ref = reference.dataset_reference(setup_data.queries())
        rows = len(data.rows)
        if launcher is None:
            values = per_layer(files, fmt, ref, rows, seconds, name, tally)
        else:
            values = end_to_end(launcher, files, setup_files, fmt, ref, setup_ref, rows,
                                seconds, work, tally, name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return values, tally


def unit(metric: str) -> str:
    return END_TO_END_UNITS.get(metric) or PER_LAYER[metric][0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*generate.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lindcg" / "cli.py").is_file():
        print(f"error: no lindcg source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = list(generate.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    launcher = None if args.trace else Launcher()
    try:
        for name in names:
            values, tally = run_workload(name, args.seed, args.seconds, launcher)
            attempted += tally.attempted
            failed += tally.failed
            prefix = f"{name}/" if args.workload == "all" else ""
            for metric, value in values.items():
                print(f"{name}  {metric} = {value:.6g} {unit(metric)}")
                metrics[prefix + metric] = {"value": value, "unit": unit(metric)}
            print(f"{name}  failed_share = {tally.failed / tally.attempted:.6g} fraction"
                  f" ({tally.failed} of {tally.attempted} query results)")
    finally:
        if launcher is not None:
            launcher.close()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
