"""Span recorder for the traced pass over lindcg's public entry points.

Each public entry point is wrapped wherever a lindcg module resolves it
(``lindcg.report.compute_report`` as well as ``lindcg.metrics.compute_report``),
so calls between modules are seen without changing the package.  Spans
stay in memory and are written out once, after the pass.  An entry point
that no longer exists is skipped, and its layer then reports zero calls
and zero time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (defining module, attribute or Class.method, layer span name)
ENTRY_POINTS = (
    ("lindcg.io", "parse_tsv", "io.parse"),
    ("lindcg.io", "parse_svmlight", "io.parse"),
    ("lindcg.io", "DatasetFile.query_groups", "io.group"),
    ("lindcg.core", "rank_by_score", "core.rank"),
    ("lindcg.core", "ideal_sequence", "core.rank"),
    ("lindcg.metrics", "compute_report", "metrics.compute_report"),
    ("lindcg.pairwise", "pairwise_loss_fast", "pairwise.loss_fast"),
    ("lindcg.pairwise", "binarize", "pairwise.binarize"),
    ("lindcg.pairwise", "binarize_sequence", "pairwise.binarize"),
    ("lindcg.equivalence", "verify_multipartite_identity", "equivalence.verify"),
    ("lindcg.report", "build_aggregate_report", "report.aggregate"),
    ("lindcg.report", "render_json", "report.render"),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in ENTRY_POINTS))
ROOT = "trace.pass"


class SpanRecorder:
    """Nested spans of one thread, in four parallel columns indexed by span.

    The columns are a list of names and flat arrays of parent indices,
    start times and end times.  A list per span would add one object per
    span for the garbage collector to traverse; next to a large parsed
    dataset that made each wrapped call about 40 % dearer.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    @property
    def spans(self):
        """(name, parent index, start, end) per span, in the order they began."""
        return zip(self.names, self.parents, self.starts, self.ends)

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.names)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, _, start, end), inner in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start - inner)
        return totals

    def calls(self) -> Counter[str]:
        return Counter(self.names)

    def total(self, name: str) -> float:
        return sum(end - start for n, _, start, end in self.spans if n == name)

    def write(self, path: Path) -> None:
        """One JSON line per span, times in seconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        with path.open("w", encoding="utf-8") as out:
            for name, parent, start, end in self.spans:
                out.write(json.dumps([name, parent, round(start - origin, 9),
                                      round(end - origin, 9)]) + "\n")


def _resolve(module_name: str, attribute: str):
    """(owner, attribute name, object), or None if the entry point is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    target = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if target is None else (owner, name, target)


@contextmanager
def instrumented(recorder: SpanRecorder):
    """Wrap every entry point in ENTRY_POINTS for the duration of the block.

    Also counts QueryGroup constructions and the items they validate, and
    the detail records of each identity check.
    """
    patches: list[tuple[object, str, object]] = []

    def patch(owner, name, original, replacement):
        patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def count_details(record):
        recorder.counts["equivalence.detail_records"] += len(getattr(record, "details", ()))

    try:
        for module_name, attribute, layer in ENTRY_POINTS:
            found = _resolve(module_name, attribute)
            if found is None:
                continue
            owner, name, original = found
            hook = count_details if layer == "equivalence.verify" else None
            wrapped = recorder.wrap(layer, original, hook)
            if isinstance(owner, type):
                patch(owner, name, original, wrapped)
                continue
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").partition(".")[0] == "lindcg"
                        and getattr(module, name, None) is original):
                    patch(module, name, original, wrapped)

        found = _resolve("lindcg.core", "QueryGroup.__init__")
        if found is not None:
            owner, name, original_init = found

            def counted_init(self, *args, **kwargs):
                original_init(self, *args, **kwargs)
                recorder.counts["core.group_builds"] += 1
                recorder.counts["core.group_build_items"] += len(getattr(self, "items", ()))

            patch(owner, name, original_init, counted_init)
        yield recorder
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
