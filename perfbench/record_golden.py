"""Record golden.json: exit, exception and report digest of every op in
every workload's pool and ledger.

    python3 perfbench/record_golden.py

Run from the repository root, at the commit the digests are to describe
(they were recorded from commit a1651f8, whose src/ this benchmark was
written against).  Each workload runs in a fresh worker process.  The ops
that raise are compared with ledger.json and any difference is printed;
the ledger itself is written by hand.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def record(workload: str) -> dict:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import worker

    worker.prepare_workdir()
    from wcalc import cli

    out = {}
    for op in workloads.pool(workload) + workloads.ledger_ops(workload):
        rec = worker.execute(op, cli.main)
        if rec["bad_checks"] and rec["exception"] is None:
            print(f"known answer disagrees: {op['key']}: {rec['bad_checks']}", file=sys.stderr)
        out[op["key"]] = [rec["exit"], rec["exception"], rec["digest"]]
    return out


def main() -> int:
    if len(sys.argv) == 2:                      # child: one workload
        json.dump(record(sys.argv[1]), sys.stdout)
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    golden = {}
    for w in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), w],
                              env=env, capture_output=True, text=True, check=True)
        sys.stderr.write(proc.stderr)
        golden[w] = json.loads(proc.stdout)
        raised = {k for k, v in golden[w].items() if v[1] is not None}
        ledger = workloads.ledger_for(w)
        print(f"{w}: {len(golden[w])} ops, {len(raised)} raise")
        for k in sorted(raised):
            if workloads.base_key(k.split(" ")) not in ledger:
                print(f"  raises but not in ledger: {k} ({golden[w][k][1]})")
        for k in sorted(set(ledger) - raised):
            print(f"  in ledger but does not raise: {k}")
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump({"about": "[exit, exception, sha256 prefix of the canonical report "
                            "without config] per op key; see record_golden.py",
                   "workloads": golden}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
