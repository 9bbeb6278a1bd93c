"""The README's library quick start runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs_and_meets_its_tolerance():
    # the first python block of the README, run as a user would paste it
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    scope = {}
    exec(block, scope)
    assert scope["err"] <= 1e-8
