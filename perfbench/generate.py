"""Seeded input generator for the three benchmark workloads.

Every workload is a function of (name, seed) alone: the same seed writes
byte-identical files.  Row counts are fixed per workload, so input size
does not drift with the seed; query sizes, grades and scores do.

No real LETOR or MSLR file ships with the repository, so the shapes are
generated to mimic them: MSLR-WEB10K-like grade skew toward 0, rounded
scores with exact ties in a stated share of groups, and 136-feature
SVMLight lines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Share of each grade 0..4 in MSLR-WEB10K-like data.
MSLR_GRADE_WEIGHTS = (0.52, 0.32, 0.13, 0.02, 0.01)


@dataclass(frozen=True)
class Workload:
    """Parameters of one generated workload.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    name: str
    fmt: str                # "tsv" or "svmlight"
    rows: int               # exact number of data rows
    query_size: tuple[int, int]
    tie_share: float = 0.0  # share of queries whose scores carry exact ties
    interleave: bool = False
    num_features: int = 0
    max_grade: int = 4      # grade max_grade appears in every file, so L = max_grade + 1
    geometric_p: float = 0.0  # > 0: grades geometric with this p, capped at max_grade


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tsv-letor",
            fmt="tsv",
            rows=200_000,
            query_size=(40, 160),
            tie_share=0.15,
            interleave=True,
        ),
        Workload(
            name="svmlight-features",
            fmt="svmlight",
            rows=58_000,
            query_size=(500, 1500),
            num_features=136,
        ),
        Workload(
            name="fine-grades",
            fmt="tsv",
            rows=20_000,
            query_size=(10, 30),
            max_grade=30,
            geometric_p=0.45,
        ),
    )
}

# The input of the job that calibrate.py runs to gauge the host's speed: a fixed
# file, whatever the seed, so that the job's time moves only with the host.
CALIBRATION = Workload(
    name="calibration",
    fmt="tsv",
    rows=60_000,
    query_size=(40, 160),
    tie_share=0.15,
    interleave=True,
)
CALIBRATION_SEED = 0


@dataclass(frozen=True)
class Dataset:
    """Generated rows in file order: (query id, grade, score text)."""

    workload: Workload
    seed: int
    rows: list[tuple[str, int, str]]

    def queries(self) -> dict[str, list[tuple[int, float]]]:
        """(grade, score) pairs per query id, in file order within each query."""
        out: dict[str, list[tuple[int, float]]] = {}
        for qid, grade, text in self.rows:
            out.setdefault(qid, []).append((grade, float(text)))
        return out


def _query_sizes(rng: random.Random, rows: int, low: int, high: int) -> list[int]:
    sizes: list[int] = []
    total = 0
    while total < rows:
        sizes.append(rng.randint(low, high))
        total += sizes[-1]
    excess = total - rows
    while excess:
        i = rng.randrange(len(sizes))
        if sizes[i] > low:
            sizes[i] -= 1
            excess -= 1
    return sizes


def _grade(rng: random.Random, w: Workload) -> int:
    if w.geometric_p:
        g = 0
        while g < w.max_grade and rng.random() >= w.geometric_p:
            g += 1
        return g
    return rng.choices(range(len(MSLR_GRADE_WEIGHTS)), MSLR_GRADE_WEIGHTS)[0]


def _scores(rng: random.Random, grades: list[int], tied: bool) -> list[str]:
    """Scores loosely correlated with grade.

    Tied groups are rounded to one decimal, as exported run files often
    are, and always hold at least one exact tie.  Other groups carry
    distinct values.
    """
    digits = 1 if tied else 6
    texts: list[str] = []
    seen: set[float] = set()
    for g in grades:
        while True:
            text = f"{0.4 * g + rng.gauss(0.0, 1.0):.{digits}f}"
            if tied or float(text) not in seen:
                break
        seen.add(float(text))
        texts.append(text)
    if tied and len(seen) == len(texts):
        texts[1] = texts[0]
    return texts


def build(w: Workload, seed: int) -> Dataset:
    """Generate the rows of workload ``w`` for ``seed``."""
    rng = random.Random(f"lindcg-bench/{w.name}/{seed}")
    sizes = _query_sizes(rng, w.rows, *w.query_size)
    tied = set(rng.sample(range(len(sizes)), round(w.tie_share * len(sizes))))
    rows: list[tuple[str, int, str]] = []
    for q, size in enumerate(sizes):
        grades = [_grade(rng, w) for _ in range(size)]
        if q == 0:
            grades[0] = w.max_grade
        qid = f"q{q:05d}" if w.fmt == "tsv" else str(1000 + q)
        rows.extend((qid, g, text) for g, text in zip(grades, _scores(rng, grades, q in tied)))
    if w.interleave:
        rng.shuffle(rows)
    return Dataset(w, seed, rows)


def _feature_pool(rng: random.Random, w: Workload, size: int = 256) -> list[str]:
    pool = []
    for _ in range(size):
        pool.append(" ".join(
            f"{j}:{rng.random():.6f}" if rng.random() < 0.8 else f"{j}:0"
            for j in range(1, w.num_features + 1)
        ))
    return pool


def write(data: Dataset, directory: Path) -> dict[str, Path]:
    """Write the dataset's input files; returns the paths by role.

    Roles: ``input`` always, ``scores`` for svmlight workloads.
    """
    w = data.workload
    directory.mkdir(parents=True, exist_ok=True)
    paths = {"input": directory / f"{w.name}.{w.fmt}"}
    if w.fmt == "tsv":
        lines = [f"{qid}\t{g}\t{text}\n" for qid, g, text in data.rows]
    else:
        rng = random.Random(f"lindcg-bench/{w.name}/{data.seed}/features")
        pool = _feature_pool(rng, w)
        lines = [f"{g} qid:{qid} {rng.choice(pool)}\n" for qid, g, _ in data.rows]
        paths["scores"] = directory / f"{w.name}.scores"
        paths["scores"].write_text("".join(f"{text}\n" for _, _, text in data.rows),
                                   encoding="utf-8")
    paths["input"].write_text("".join(lines), encoding="utf-8")
    return paths


def one_query(data: Dataset) -> Dataset:
    """A one-query input of the same format, for measuring set-up."""
    qid = data.rows[0][0]
    return Dataset(data.workload, data.seed, [row for row in data.rows if row[0] == qid][:8])
