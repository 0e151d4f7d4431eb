"""Byte-identity guard: every pool op of the benchmark's workloads gives the
exit code, exception and report digest recorded in perfbench/golden.json.

The ops run through perfbench/worker.execute, as the benchmark runs them,
in a temporary working directory, since worker.prepare_workdir writes
.bench_work/ there.  Ledger ops are left out: perfbench/run.py judges them
against ledger.json, and some of their golden entries record failures that
were mended after the digests were taken.
"""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((BENCH / "golden.json").read_text())["workloads"]


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_pool_matches_golden(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", list(sys.argv))    # execute sets it
    import worker
    import workloads
    from wcalc import cli

    worker.prepare_workdir()
    wrong = []
    for op in workloads.pool(workload):
        rec = worker.execute(op, cli.main)
        got, want = [rec["exit"], rec["exception"], rec["digest"]], GOLDEN[workload][op["key"]]
        if got != want:
            wrong.append(f"{op['key']}: {got}, golden {want}")
    assert not wrong, "\n".join(wrong)
