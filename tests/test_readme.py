"""The Python examples in README run and print what their comments say."""

import io
import os
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)
SH_BLOCK = next(block for block in re.findall(r"```sh\n(.*?)```", README, re.S)
                if "$ jlogic" in block)


def expected_lines(code):
    """The text of every comment in the block, in order."""
    tokens = tokenize.generate_tokens(io.StringIO(code).readline)
    return [t.string[1:].strip() for t in tokens if t.type == tokenize.COMMENT]


def test_readme_has_examples():
    assert len(BLOCKS) >= 2


def environment():
    """os.environ with this checkout's src first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}


def transcript():
    """(argv, stdout lines) for each `$ ` line of the CLI's sh block; its
    stdout is the non-blank lines up to the next `$ ` line."""
    steps = []
    for line in SH_BLOCK.splitlines():
        if line.startswith("$ "):
            steps.append((shlex.split(line[2:], comments=True), []))
        elif line:
            steps[-1][1].append(line)
    return steps


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example(code):
    result = subprocess.run([sys.executable, "-c", code], env=environment(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == expected_lines(code)


def test_readme_cli_transcript(tmp_path):
    """The sh block's commands print what it shows, run in a temporary
    directory: all but those on a proof file pf.txt, which the block does
    not create."""
    ran = []
    for argv, expected in transcript():
        if "pf.txt" in argv:
            continue
        redirect = None
        if ">" in argv:
            argv, redirect = argv[:argv.index(">")], argv[-1]
        if argv[0] == "cat":
            out = (tmp_path / argv[1]).read_text()
        else:
            assert argv[0] == "jlogic"
            args = [str(ROOT / a) if a.startswith("src/") else a for a in argv[1:]]
            result = subprocess.run([sys.executable, "-m", "jlogic.cli", *args],
                                    cwd=tmp_path, env=environment(),
                                    capture_output=True, text=True)
            assert result.returncode in (0, 1) and result.stderr == "", argv
            out = result.stdout
        if redirect is not None:
            (tmp_path / redirect).write_text(out)
            out = ""
        assert out.splitlines() == expected, argv
        ran.append(argv[1] if argv[0] == "jlogic" else argv[0])
    assert ran == ["parse", "parse", "countermodel", "cat", "model-validate",
                   "model-eval", "saturate", "canonical"]
