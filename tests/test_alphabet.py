"""The grade alphabet L stays off the evaluation path: only the readers and the CLI see it."""

import ast
import importlib
from pathlib import Path

import pytest

from lindcg.core import QueryGroup

# Every module between the readers and the report, and the test oracles.
EVALUATION_MODULES = ("core", "metrics", "report", "oracles")


def alphabet_uses(source: str) -> list[str]:
    """'line N: how' for each place the source takes, passes or reads a ``num_grades``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.arg) and node.arg == "num_grades":
            found.append((node.lineno, "parameter"))
        elif isinstance(node, ast.keyword) and node.arg == "num_grades":
            found.append((node.value.lineno, "keyword argument"))
        elif isinstance(node, ast.Name) and node.id == "num_grades":
            found.append((node.lineno, "name"))
        elif isinstance(node, ast.Attribute) and node.attr == "num_grades":
            found.append((node.lineno, "attribute"))
    return [f"line {lineno}: {how}" for lineno, how in sorted(found)]


def test_query_group_holds_no_alphabet():
    assert QueryGroup.__slots__ == ("query_id", "grades", "scores")


@pytest.mark.parametrize("module", EVALUATION_MODULES)
def test_the_evaluation_path_never_takes_or_reads_an_alphabet(module):
    path = Path(importlib.import_module(f"lindcg.{module}").__file__)
    assert alphabet_uses(path.read_text(encoding="utf-8")) == []


def test_the_alphabet_check_catches_each_use():
    assert alphabet_uses("def f(num_grades): pass") == ["line 1: parameter"]
    assert alphabet_uses("def f(*, num_grades=None): pass") == ["line 1: parameter"]
    assert alphabet_uses("def f(g):\n    return g.num_grades") == ["line 2: attribute"]
    assert alphabet_uses("def f(g):\n    return g(1, num_grades=2)") == [
        "line 2: keyword argument"]
    assert alphabet_uses("class G:\n    num_grades: int") == ["line 2: name"]
    assert alphabet_uses("def f(grades):\n    return range(max(grades))") == []
