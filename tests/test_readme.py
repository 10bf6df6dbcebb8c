"""The README's library example runs and states true values."""

import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs_with_the_values_its_comments_state():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(blocks[0], namespace)
    report, aggregate = namespace["report"], namespace["aggregate"]
    assert (report.dcg_linear, report.ideal_dcg_linear, report.pairwise_loss) == (8, 12, 4)
    assert report.identity == "passed"
    assert aggregate.failures == ()
    assert json.loads(namespace["text"])["queries"][0]["query_id"] == "q1"
