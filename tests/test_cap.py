"""The classical-gain cap stays the policy of the metrics and the readers alone."""

import ast
from pathlib import Path

import lindcg

PACKAGE = Path(lindcg.__file__).parent
# metrics defines the cap and applies it; io rejects input above it.
CAP_MODULES = {"metrics", "io"}


def cap_uses(source: str) -> list[str]:
    """'line N: how' for each place the source imports or reads ``MAX_CLASSIC_GRADE``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias) and node.name == "MAX_CLASSIC_GRADE":
            found.append((node.lineno, "import"))
        elif isinstance(node, ast.Name) and node.id == "MAX_CLASSIC_GRADE":
            found.append((node.lineno, "name"))
        elif isinstance(node, ast.Attribute) and node.attr == "MAX_CLASSIC_GRADE":
            found.append((node.lineno, "attribute"))
    return [f"line {lineno}: {how}" for lineno, how in sorted(found)]


def test_only_the_metrics_and_the_readers_read_the_cap():
    users = {path.stem: cap_uses(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: uses for module, uses in users.items()
            if uses and module not in CAP_MODULES} == {}


def test_only_the_metrics_import_the_cap_error():
    """The readers refuse a grade above the cap as a malformed line, so only
    ``compute_report``, for a group built by hand, raises ``GradeTooLargeError``.
    ``errors`` defines it, and the package exports it."""
    importers = {path.stem for path in PACKAGE.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.alias) and node.name == "GradeTooLargeError"}
    assert importers == {"metrics", "__init__"}


def test_the_cap_check_catches_each_use():
    assert cap_uses("from .metrics import MAX_CLASSIC_GRADE") == ["line 1: import"]
    assert cap_uses("from .metrics import MAX_CLASSIC_GRADE as CAP") == ["line 1: import"]
    assert cap_uses("import lindcg.metrics\nlindcg.metrics.MAX_CLASSIC_GRADE") == [
        "line 2: attribute"]
    assert cap_uses("def f(g):\n    return g > MAX_CLASSIC_GRADE") == ["line 2: name"]
    assert cap_uses("def f(g):\n    return g > 30") == []
