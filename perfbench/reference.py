"""Independent reference values and the check of `lindcg metrics` JSON output.

Nothing here imports lindcg.  Each query is ranked with one stable sort
by descending score; the weighted pairwise loss is counted with a
Fenwick tree over grades holding counts and grade sums, in the style of
Joachims' linear-time ranking-SVM loss, not with the histogram sweep
that lindcg uses.  Integers are compared exactly, floats to the 6
significant digits that the report prints.
"""

from __future__ import annotations

import math

FLOAT_FIELDS = ("ndcg_linear", "dcg_classic", "ideal_dcg_classic", "ndcg_classic",
                "normalized_pairwise_loss")
INT_FIELDS = ("num_items", "dcg_linear", "ideal_dcg_linear", "dcg_error_linear",
              "pairwise_loss", "normalizer_z")
BOOL_FIELDS = ("degenerate_linear", "degenerate_classic")


class _Fenwick:
    """Prefix sums over grades 0..size-1."""

    def __init__(self, size: int):
        self.tree = [0] * (size + 1)

    def add(self, index: int, value: int) -> None:
        index += 1
        while index < len(self.tree):
            self.tree[index] += value
            index += index & -index

    def below(self, index: int) -> int:
        """Sum over grades strictly below ``index``."""
        total = 0
        while index > 0:
            total += self.tree[index]
            index -= index & -index
        return total


def _classic(grades) -> float:
    return sum((2**g - 1) / math.log2(i + 1) for i, g in enumerate(grades, start=1))


def query_reference(items: list[tuple[int, float]]) -> dict:
    """Every reported per-query value, from (grade, score) pairs in file order."""
    n = len(items)
    order = sorted(range(n), key=lambda i: (-items[i][1], i))
    ranked = [items[i][0] for i in order]
    ideal = sorted(ranked, reverse=True)
    dcg = sum(g * (n - i) for i, g in enumerate(ranked, start=1))
    ideal_dcg = sum(g * (n - i) for i, g in enumerate(ideal, start=1))
    cls, cls_ideal = _classic(ranked), _classic(ideal)

    size = ideal[0] + 1
    counts, sums = _Fenwick(size), _Fenwick(size)
    loss = 0
    start = 0
    while start < n:  # equal scores enter the trees together, so ties never count
        end = start
        while end < n and items[order[end]][1] == items[order[start]][1]:
            end += 1
        block = ranked[start:end]
        for g in block:
            loss += g * counts.below(g) - sums.below(g)
        for g in block:
            counts.add(g, 1)
            sums.add(g, g)
        start = end

    per_grade: dict[int, int] = {}
    for g in ranked:
        per_grade[g] = per_grade.get(g, 0) + 1
    z = 0
    seen = 0
    for c in per_grade.values():
        z += c * seen
        seen += c
    if len({score for _, score in items}) < n:
        identity = "tie_flagged"
    else:
        # Tie-free rankings satisfy DCG error == weighted loss exactly.
        identity = "passed" if ideal_dcg - dcg == loss else "failed"
    return {
        "num_items": n,
        "dcg_linear": dcg,
        "ideal_dcg_linear": ideal_dcg,
        "ndcg_linear": dcg / ideal_dcg if ideal_dcg else 1.0,
        "dcg_classic": cls,
        "ideal_dcg_classic": cls_ideal,
        "ndcg_classic": cls / cls_ideal if cls_ideal else 1.0,
        "dcg_error_linear": ideal_dcg - dcg,
        "pairwise_loss": loss,
        "normalizer_z": z,
        "normalized_pairwise_loss": loss / z if z else 0.0,
        "degenerate_linear": ideal_dcg == 0,
        "degenerate_classic": cls_ideal == 0.0,
        "identity": identity,
    }


def dataset_reference(queries: dict[str, list[tuple[int, float]]]) -> dict[str, dict]:
    """Reference values for every query, keyed by query id."""
    return {qid: query_reference(items) for qid, items in queries.items()}


def same_to_6_digits(reported, expected: float) -> bool:
    """True when ``reported`` is ``expected`` printed to 6 significant digits.

    Accepts either neighbour when ``expected`` lies on a rounding boundary
    up to float error, since the two sides may sum in different orders.
    """
    if isinstance(reported, bool) or not isinstance(reported, (int, float)):
        return False
    if expected == 0:
        return reported == 0
    half_unit = 0.5 * 10 ** (math.floor(math.log10(abs(expected))) - 5)
    return abs(reported - expected) <= half_unit * (1 + 1e-9)


def query_matches(reported: dict, expected: dict) -> bool:
    """Whether one reported query agrees with its reference."""
    # A tied group may be flagged or, once ties are checked exactly, pass.
    allowed = ("tie_flagged", "passed") if expected["identity"] == "tie_flagged" else ("passed",)
    if reported.get("identity") not in allowed or expected["identity"] == "failed":
        return False
    for field in INT_FIELDS:
        value = reported.get(field)
        if type(value) is not int or value != expected[field]:
            return False
    for field in BOOL_FIELDS:
        if reported.get(field) is not expected[field]:
            return False
    return all(same_to_6_digits(reported.get(f), expected[f]) for f in FLOAT_FIELDS)


def failed_queries(report: dict | None, reference: dict[str, dict]) -> int:
    """Number of queries the report gets wrong; all of them if it is unusable.

    ``report`` is the parsed JSON, or None when the run exited non-zero or
    printed no JSON.  A wrong aggregate field fails every query.
    """
    total = len(reference)
    if not isinstance(report, dict):
        return total
    queries = report.get("queries")
    if not isinstance(queries, list) or report.get("num_queries") != total:
        return total
    expected_ids = sorted(reference)
    if [q.get("query_id") if isinstance(q, dict) else None for q in queries] != expected_ids:
        return total
    failed = sum(
        not query_matches(q, reference[q["query_id"]]) for q in queries
    )
    ref = list(reference.values())
    identities = [q.get("identity") for q in queries]
    aggregate_ok = (
        report.get("total_pairwise_loss") == sum(r["pairwise_loss"] for r in ref)
        and report.get("verification") == {
            "passed": identities.count("passed"),
            "failed": identities.count("failed"),
            "tie_flagged": identities.count("tie_flagged"),
        }
        and same_to_6_digits(report.get("mean_ndcg_linear"),
                             sum(r["ndcg_linear"] for r in ref) / total)
        and same_to_6_digits(report.get("mean_ndcg_classic"),
                             sum(r["ndcg_classic"] for r in ref) / total)
    )
    return failed if aggregate_ok else total
