"""Every command in the README's CLI block runs and succeeds, and gives the
same report in a fresh interpreter as in one process that runs them all."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from wcalc import cli

ROOT = Path(__file__).resolve().parent.parent


def readme_commands():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("wcalc ")]


def _report(argv, cwd, stdout: bytes) -> bytes:
    """The report a successful command wrote: its --out file, else stdout."""
    if "--out" in argv:
        return (Path(cwd) / argv[argv.index("--out") + 1]).read_bytes()
    return stdout


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """Run a command in a fresh interpreter, once per argv:
    (completed process, report bytes or None on failure)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    runs = {}

    def run(argv):
        if tuple(argv) not in runs:
            cwd = tmp_path_factory.mktemp("fresh")
            res = subprocess.run(
                [sys.executable, "-m", "wcalc.cli", *argv],
                capture_output=True, cwd=cwd, env=env, timeout=300,
            )
            report = _report(argv, cwd, res.stdout) if res.returncode == 0 else None
            runs[tuple(argv)] = (res, report)
        return runs[tuple(argv)]

    return run


@pytest.fixture
def in_process(tmp_path, monkeypatch, capsys):
    """Run a command through cli.main in this process; its report bytes."""
    monkeypatch.chdir(tmp_path)

    def run(argv):
        capsys.readouterr()
        assert cli.main(argv) == 0, shlex.join(argv)
        return _report(argv, tmp_path, capsys.readouterr().out.encode())

    return run


def test_readme_commands_found():
    assert readme_commands()


@pytest.mark.parametrize("argv", readme_commands(), ids=shlex.join)
def test_readme_command_runs(argv, fresh_run):
    res, _ = fresh_run(argv)
    assert res.returncode == 0, res.stderr.decode(errors="replace")
    assert b"Traceback" not in res.stderr


def test_readme_commands_reenter_one_process(fresh_run, in_process):
    # forwards, then backwards: no report may depend on what ran before it
    commands = readme_commands()
    for argv in commands + commands[::-1]:
        assert in_process(argv) == fresh_run(argv)[1], shlex.join(argv)


def test_parse_errors_and_options_do_not_leak_between_calls(fresh_run, in_process):
    identity = ["matrix", "chain", "--gevrey", "2", "--steps", "2", "--check-identity"]
    plain = ["matrix", "chain", "--gevrey", "2", "--steps", "2"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--seq", "gevrey:2", "--tol", "1e-9"])
    assert exc.value.code == 2
    assert in_process(identity) == fresh_run(identity)[1]
    with pytest.raises(SystemExit) as exc:
        cli.main(["matrix", "no-such-action", "--gevrey", "2"])
    assert exc.value.code == 2
    report = in_process(plain)
    assert report == fresh_run(plain)[1]
    assert b"integer_step_identity_error" not in report


def test_large_rows_reenter_one_process_with_the_table_warm(fresh_run, in_process):
    # the first report fills the shared log-factorial table to 16000; the
    # second reads its rows from it and must not notice
    from wcalc import tails

    first = ["analyze", "--seq", "gevrey:2", "--pmax", "16000"]
    second = ["matrix", "conditions", "--gevrey", "1,2,3", "--pmax", "4000"]
    assert in_process(first) == fresh_run(first)[1]
    assert tails._LOG_FACTORIALS.size > 16000
    assert in_process(second) == fresh_run(second)[1]
