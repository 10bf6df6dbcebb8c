"""The test oracles stay independent of the ranked-view path they check."""

import ast
from pathlib import Path

import lindcg.oracles

# What lindcg.oracles may take from the rest of the package, by module:
# every error, and the plain data type QueryGroup of core.  Nothing from
# metrics, which computes and checks the identity.
ALLOWED = {
    "errors": None,
    "core": {"QueryGroup"},
}


def package_imports(source: str) -> list[tuple[str, list[str]]]:
    """(module within lindcg, imported names) for each import of the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(alias.name, ["*"]) for alias in node.names
                      if alias.name.partition(".")[0] == "lindcg"]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module or ""  # the package itself
            elif (node.module or "").partition(".")[0] == "lindcg":
                module = node.module.removeprefix("lindcg").removeprefix(".")
            else:
                continue
            found.append((module, [alias.name for alias in node.names]))
    return found


def violations(source: str) -> list[str]:
    bad = []
    for module, names in package_imports(source):
        allowed = ALLOWED.get(module, set())
        if allowed is not None:
            bad += [f"{module}.{name}" for name in names if name not in allowed]
    return bad


def test_oracles_import_only_the_errors_and_data_types():
    source = Path(lindcg.oracles.__file__).read_text(encoding="utf-8")
    assert {module for module, _ in package_imports(source)} <= set(ALLOWED)
    assert violations(source) == []


def test_the_import_check_catches_the_view_path():
    assert violations("from .core import QueryGroup, rank_view") == ["core.rank_view"]
    assert violations("from .pairwise import _as_loss_value") == ["pairwise._as_loss_value"]
    assert violations("from lindcg.metrics import compute_report") == ["metrics.compute_report"]
    assert violations("from .metrics import identity_sums") == ["metrics.identity_sums"]
    assert violations("from .metrics import IdentitySums") == ["metrics.IdentitySums"]
    assert violations("from . import core") == [".core"]
    assert violations("from lindcg import rank_view") == [".rank_view"]
    assert violations("import lindcg.report") == ["lindcg.report.*"]
    assert violations("from .errors import TooLargeError\nimport itertools") == []
