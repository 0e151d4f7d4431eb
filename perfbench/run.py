"""wcalc benchmark: certified-report throughput and latency.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` runs one round untraced and one
traced, each in a fresh worker, and reports the per-layer metrics.  The
last line of stdout is the JSON result; the lines before it are a readable
summary.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import calibration
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")
OK_EXITS = (0, 2, 3, 4)
SETUP_PROBES = (8, 8)      # fresh interpreters before and after the worker
BUDGET_S = 170.0
# Fixed per workload so every run reports the same percentile; each is the
# highest that keeps at least 10 reports beyond it at --seconds 30 (about
# 2300, 90 and 29 successful reports).
TAIL_PERCENTILE = {"battery": 99, "matrix-scale": 80, "fourier-lab": 60}
SETUP_CODE = "import wcalc.cli as c; c.build_parser(); print('ready', flush=True)"


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_times(env, n: int, kernel: list) -> list[float]:
    """Times for fresh interpreters to import wcalc.cli and build its
    parser, i.e. until each could issue its first report.  A calibration
    pass precedes each one and is appended to kernel."""
    times = []
    for _ in range(n):
        kernel.append(calibration.kernel_s())
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        line = proc.stdout.readline()
        times.append(perf_counter() - t0)
        _, err = proc.communicate(timeout=60)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {err.decode()[-500:]}")
    return times


def run_worker(job: dict, env, deadline: float) -> dict:
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                            cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(json.dumps(job).encode(),
                                    timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.decode()[-2000:]}")
    *records, summary = (json.loads(line) for line in out.decode().splitlines() if line)
    return {**summary, "records": [r for r in records if r["phase"] == "timed"],
            "ledger": [r for r in records if r["phase"] == "ledger"]}


def load_json(name: str) -> dict:
    with open(os.path.join(HERE, name)) as fh:
        return json.load(fh)


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def succeeded(rec: dict) -> bool:
    return (rec["exception"] is None and rec["exit"] in OK_EXITS
            and rec["exit"] in rec["expect"] and not rec["bad_checks"])


def judge(workload: str, records: list[dict], ledger_records: list[dict]) -> dict:
    """Classify every timed op against its expected exit, the known answers
    and the golden digests, and every ledger op as still open or fixed.
    No timed op is a ledger entry, so any timed failure is unexpected."""
    golden = load_json("golden.json")["workloads"][workload]
    ok, failed, unexpected = [], [], []
    checked = 0
    drifted = []
    for rec in records:
        gold = golden.get(rec["key"])
        if gold is None:
            unexpected.append(f"{rec['key']}: no golden digest (op outside the pool)")
        if not succeeded(rec):
            failed.append(rec)
            unexpected.append(f"{rec['key']}: exit {rec['exit']}, "
                              f"exception {rec['exception']}, checks {rec['bad_checks']}")
            continue
        ok.append(rec)
        if gold is not None and gold[2] is not None and gold[0] == rec["exit"]:
            checked += 1
            if rec["digest"] != gold[2]:
                drifted.append(rec["key"])
    ledger_open = [r["key"] for r in ledger_records if not succeeded(r)]
    ledger_fixed = [r["key"] for r in ledger_records if succeeded(r)]
    return {"ok": ok, "failed": failed, "unexpected": unexpected,
            "ledger_open": ledger_open, "ledger_fixed": ledger_fixed,
            "checked": checked, "drift": len(drifted), "drifted": sorted(set(drifted))}


def repeated_share(items) -> float:
    items = list(items)
    return 1.0 - len(set(items)) / len(items) if items else 0.0


def end_to_end(args, spec, env, deadline) -> tuple[dict, list[str], dict]:
    # set-up is probed on both sides of the run so that its median does not
    # hang on one short stretch of a noisy machine
    setup_kernel = []
    setup = setup_times(env, SETUP_PROBES[0], setup_kernel)
    res = run_worker({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "rounds": None, "trace": False,
                      "ledger": True}, env, deadline)
    setup += setup_times(env, SETUP_PROBES[1], setup_kernel)
    # times are scaled to the reference machine speed (see calibration.py)
    scale = calibration.REFERENCE_S / statistics.median(res["kernel_s"])
    setup_scale = calibration.REFERENCE_S / statistics.median(setup_kernel)
    verdict = judge(args.workload, res["records"], res["ledger"])
    lat = sorted(r["latency_s"] for r in verdict["ok"])
    if not lat:
        raise BenchError("no report succeeded")
    q = TAIL_PERCENTILE[args.workload]
    tail, beyond = percentile(lat, q)
    statuses = [s for r in verdict["ok"] for s in r["statuses"]]
    decided = sum(s in ("holds", "fails") for s in statuses)
    attempted = len(res["records"])
    raw = {"reports_per_s": len(lat) / res["wall_s"],
           "latency_p50_s": statistics.median(lat),
           "latency_tail_s": tail,
           "setup_s": statistics.median(setup)}
    values = {
        "reports_per_s": raw["reports_per_s"] / scale,
        "latency_p50_s": raw["latency_p50_s"] * scale,
        "latency_tail_s": raw["latency_tail_s"] * scale,
        "setup_s": raw["setup_s"] * setup_scale,
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        "decided_share": decided / len(statuses) if statuses else 0.0,
        "report_match_share": ((verdict["checked"] - verdict["drift"]) / verdict["checked"]
                               if verdict["checked"] else 0.0),
    }
    rows = [row for r in res["records"] for row in r["rows"]]
    notes = [
        f"rounds {res['rounds']}, attempted {attempted}, succeeded {len(lat)}, "
        f"timed wall {res['wall_s']:.2f} s",
        f"calibration kernel median {statistics.median(res['kernel_s']) * 1e3:.3f} ms "
        f"({len(res['kernel_s'])} passes; set-up {statistics.median(setup_kernel) * 1e3:.3f} ms), "
        f"reference {calibration.REFERENCE_S * 1e3:.3f} ms; unscaled: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
        f"latency_tail_s is p{q} of {len(lat)} reports ({beyond} beyond it"
        + ("" if beyond >= 10 else "; FEWER THAN 10, run longer") + ")",
        f"report_drift {verdict['drift']} of {verdict['checked']} golden-checked reports"
        + "".join(f"\n  drifted: {k}" for k in verdict["drifted"][:10]),
        f"verdicts {len(statuses)}, decided {decided}",
        f"repeated rows {repeated_share(rows):.3f} of {len(rows)}, "
        f"repeated argv {repeated_share(r['key'] for r in res['records']):.3f}",
        f"failed_share {len(verdict['failed']) / attempted:.6g} "
        f"({len(verdict['failed'])} of {attempted} timed ops)",
    ] + ledger_notes(verdict)
    return values, notes, {"verdict": verdict, "attempted": attempted}


def ledger_notes(verdict: dict) -> list[str]:
    return ([f"ledger: {len(verdict['ledger_open'])} known failures still open, "
             f"{len(verdict['ledger_fixed'])} fixed (run once, untimed)"]
            + [f"  open: {k}" for k in verdict["ledger_open"]]
            + [f"  fixed: {k}" for k in verdict["ledger_fixed"]])


def traced(args, spec, env, deadline) -> tuple[dict, list[str], dict]:
    base = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "rounds": 1}
    plain = run_worker({**base, "trace": False, "ledger": True}, env, deadline)
    spans = run_worker({**base, "trace": True, "ledger": False}, env, deadline)
    verdict = judge(args.workload, spans["records"], [])
    plain_verdict = judge(args.workload, plain["records"], plain["ledger"])
    verdict["unexpected"] += plain_verdict["unexpected"]
    mismatched = [a["key"] for a, b in zip(plain["records"], spans["records"])
                  if a["key"] != b["key"] or a["digest"] != b["digest"]
                  or a["exit"] != b["exit"]]
    if mismatched or len(plain["records"]) != len(spans["records"]):
        verdict["unexpected"].append(f"traced reports differ from untraced: {mismatched[:5]}")
    layers = dict(spans["layers"])
    layers["trace.overhead_ratio"] = (
        (spans["wall_s"] / statistics.median(spans["kernel_s"]))
        / (plain["wall_s"] / statistics.median(plain["kernel_s"])))
    layers["ledger.open"] = len(plain_verdict["ledger_open"])
    values = {}
    for m in spec["per_layer"]:
        values[m["name"]] = float(layers.get(m["name"], 0))
        fires, silent = tracing.LAYERS[m["name"]]
        if args.workload in fires and values[m["name"]] <= 0:
            verdict["unexpected"].append(f"span {m['name']} did not fire")
        if args.workload in silent and values[m["name"]] != 0:
            verdict["unexpected"].append(f"span {m['name']} fired unexpectedly")
    notes = [f"traced round: {len(spans['records'])} ops, untraced wall "
             f"{plain['wall_s']:.2f} s, traced wall {spans['wall_s']:.2f} s",
             f"patched {len(spans['patched'])} bindings"] + ledger_notes(plain_verdict)
    return values, notes, {"verdict": verdict, "attempted": len(spans["records"])}


def environment() -> str:
    import importlib.metadata as md

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return "absent"

    try:
        nproc = subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip()
    except OSError:
        nproc = "unknown"
    return (f"python {platform.python_version()}, numpy {version('numpy')}, "
            f"mpmath {version('mpmath')}, os.cpu_count {os.cpu_count()}, nproc {nproc}, "
            "worker pinned OPENBLAS/OMP/MKL_NUM_THREADS=1, PYTHONPATH=src")


def run_one(args, spec) -> dict:
    env = worker_env()
    deadline = perf_counter() + BUDGET_S
    measure = traced if args.trace else end_to_end
    values, notes, extra = measure(args, spec, env, deadline)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    verdict = extra["verdict"]
    print(f"== {args.workload} seed {args.seed} trace {args.trace}")
    print(f"environment: {environment()}")
    for m in wanted:
        print(f"{m['name']:>48} {values[m['name']]:>14.6g} {m['unit']}")
    for line in notes:
        print(line)
    for line in verdict["unexpected"][:20]:
        print(f"UNEXPECTED: {line}")
    return {
        "correct": not verdict["unexpected"],
        "attempted": extra["attempted"],
        "failed": len(verdict["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "wcalc", "cli.py")):
        print("error: run from the repository root; src/wcalc is missing", file=sys.stderr)
        return 2
    with open(SPEC_FILE) as fh:
        spec = json.load(fh)
    names = [w for w in workloads.WORKLOADS if args.workload in (w, "all")]
    results = {}
    try:
        for name in names:
            results[name] = run_one(argparse.Namespace(**{**vars(args), "workload": name}),
                                    spec)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
