"""README.md's ```python blocks run in order, in one namespace, so the
quick start cannot drift from the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 2
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md, python block {i + 1}", "exec"), namespace)
    assert namespace["est"].coeffs.shape == (2, namespace["grid"].n_int)
