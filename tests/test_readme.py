"""The README's library quickstart runs as written."""
import re
from pathlib import Path


def test_readme_quickstart_runs():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^## Library quickstart\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md (library quickstart)", "exec"), {})
