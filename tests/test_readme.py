"""README.md's Python examples run as written.

The ```python blocks run in order in one namespace, as a reader pasting them
into one session would run them, in a scratch directory: the quick start
writes ``trace.csv``.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.DOTALL | re.MULTILINE)


def test_readme_python_examples_run(tmp_path, monkeypatch):
    blocks = python_blocks()
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert (tmp_path / "trace.csv").read_text().startswith("iter,cost,step_norm,fp_residual,dist_to_ref\n")
