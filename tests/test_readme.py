"""The Python examples in README run and print what their comments say."""

import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def expected_lines(code):
    """The text of every comment in the block, in order."""
    tokens = tokenize.generate_tokens(io.StringIO(code).readline)
    return [t.string[1:].strip() for t in tokens if t.type == tokenize.COMMENT]


def test_readme_has_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example(code):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == expected_lines(code)
