"""Every command in the README's CLI block runs and succeeds."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def readme_commands():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("wcalc ")]


def test_readme_commands_found():
    assert readme_commands()


@pytest.mark.parametrize("argv", readme_commands(), ids=shlex.join)
def test_readme_command_runs(argv, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    res = subprocess.run(
        [sys.executable, "-m", "wcalc.cli", *argv],
        capture_output=True, cwd=tmp_path, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr.decode(errors="replace")
    assert b"Traceback" not in res.stderr
