"""One workload run in its own process: a closed loop with one client.

run.py starts this script with PYTHONPATH=src and single-threaded BLAS,
and passes a JSON job on stdin:
``{"workload", "seed", "seconds", "rounds": null|int, "trace": bool,
"ledger": bool}``.  With ``ledger`` the worker first runs every ledger
entry of the workload once, untimed (their records carry
``"phase": "ledger"``), so a run shows which known failures are still open.
The loop issues an op, waits for it, checks its output, then issues the
next.  Whole rounds run until the next one would end further past
``seconds`` than stopping short of it; ``rounds`` fixes the count instead.
Each op's record goes to stdout as one JSON line when the op ends (so the
worker's memory does not grow with the run), then one summary line.

CLI ops call ``wcalc.cli.main(argv)`` in-process.  ``main`` takes argv,
but the report's ``config.argv`` is read from ``sys.argv[1:]``, so
``sys.argv`` is set to match before each call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
from time import perf_counter

import calibration
import workloads
from known_answers import BUMPY_CSV, MISSING_JSON

STATUSES = ("holds", "fails", "inconclusive")
CALIBRATE_EVERY_S = 0.25


def write_bumpy_prefix() -> None:
    """catalogue.bumpy_prefix() from its closed form: 2*log p! for p <= 60,
    plus 0.5 at p = 4, 11, 18, ..."""
    rows = []
    for p in range(61):
        v = 2.0 * math.lgamma(p + 1.0)
        if p >= 4 and (p - 4) % 7 == 0:
            v += 0.5
        rows.append(f"{p},{format(v, '.17g')}")
    with open(BUMPY_CSV, "w") as fh:
        fh.write("p,logM\n" + "\n".join(rows) + "\n")


def prepare_workdir() -> None:
    os.makedirs(os.path.dirname(workloads.OUT_JSON), exist_ok=True)
    write_bumpy_prefix()
    if os.path.exists(MISSING_JSON):
        os.remove(MISSING_JSON)


# -- canonical digests and flattened views of a report -----------------

def _flatten(obj, prefix, out):
    for k, v in obj.items():
        path = f"{prefix}.{k}" if prefix else str(k)
        if isinstance(v, dict):
            _flatten(v, path, out)
        else:
            out[path] = v


def _count_statuses(obj) -> list[str]:
    found = []
    if isinstance(obj, dict):
        if obj.get("status") in STATUSES:
            found.append(obj["status"])
        for v in obj.values():
            if isinstance(v, (dict, list)):
                found += _count_statuses(v)
    elif isinstance(obj, list):
        for v in obj:
            found += _count_statuses(v)
    return found


def read_json_report(text: str):
    obj = json.loads(text)
    obj.pop("config", None)
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    flat = {}
    _flatten(obj, "", flat)
    return canon, flat, _count_statuses(obj)


def read_csv_report(lines: list[tuple[str, str]]):
    kept = [(k, v) for k, v in lines if not k.startswith("config.")]
    canon = "\n".join(f"{k}\t{v}" for k, v in kept)
    flat = dict(kept)
    statuses = [v for k, v in kept
                if (k == "status" or k.endswith(".status")) and v in STATUSES]
    return canon, flat, statuses


def csv_stdout_lines(text: str):
    return [tuple(line.split(",", 1)) for line in text.splitlines() if line]


def csv_file_lines(path: str):
    with open(path) as fh:
        body = fh.read().splitlines()[1:]
    return [tuple(json.loads(f"[{line}]")) for line in body if line]


def _option(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def _sidecar(argv):
    """quasi construct --out X.json also writes the sequence to X.csv."""
    out = _option(argv, "--out")
    if argv[:2] == ["quasi", "construct"] and out and out.endswith(".json"):
        return out[:-5] + ".csv"
    return None


def read_output(argv, stdout: str):
    """(canonical text, flattened report, verdict statuses) of a CLI op."""
    out = _option(argv, "--out")
    csv = _option(argv, "--format") == "csv"
    if out is None:
        if not stdout:
            return "", {}, []
        return read_csv_report(csv_stdout_lines(stdout)) if csv else read_json_report(stdout)
    if csv:
        return read_csv_report(csv_file_lines(out))
    with open(out) as fh:
        canon, flat, statuses = read_json_report(fh.read())
    sidecar = _sidecar(argv)
    if sidecar and os.path.exists(sidecar):
        with open(sidecar) as fh:
            canon += "\n--sequence csv--\n" + fh.read()
    return canon, flat, statuses


def failed_checks(checks, flat) -> list[str]:
    bad = []
    for check in checks:
        kind, path = check[0], check[1]
        value = flat.get(path)
        if kind == "status":
            ok = value == check[2]
        else:
            ok = value is not None and check[2] <= float(value) <= check[3]
        if not ok:
            bad.append(f"{path}={value!r}, expected {check[2:]}")
    return bad


# -- executing ops -------------------------------------------------------

def decay_exponent(xis, moduli) -> float:
    """Least-squares slope of log(-log |f^|) against log xi."""
    import numpy as np
    x = np.log(np.asarray(xis, dtype=float))
    y = np.log(-np.log(np.asarray(moduli, dtype=float)))
    return float(np.polyfit(x, y, 1)[0])


def call_api(name: str) -> dict:
    import numpy as np
    from wcalc import catalogue, fourier

    if name == "check_lemma53_i":
        v = fourier.check_lemma53_i(
            fourier.standard_bump(), catalogue.gevrey(2.0, 1200), 0.1)
        return v.to_json("lemma53_i")
    xis = [100.0] if name == "warmup_spectrum" else np.geomspace(1e2, 1e4, 7).tolist()
    moduli = fourier.reference_spectrum_standard_bump(np.asarray(xis)).tolist()
    return {"xi": xis, "moduli": moduli,
            "decay_exponent": decay_exponent(xis, moduli) if len(xis) > 1 else None}


def execute(op: dict, main) -> dict:
    argv = op["argv"]
    if op["kind"] == "cli":
        for path in (_option(argv, "--out"), _sidecar(argv)):
            if path and os.path.exists(path):
                os.remove(path)
        sys.argv = ["wcalc", *argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    code, exc, report = None, None, None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if op["kind"] == "cli":
                code = main(argv)
            else:
                report = call_api(argv[0])
                code = 0
    except SystemExit as e:                  # argparse rejects an option
        code = e.code if isinstance(e.code, int) else 1
    except Exception as e:                   # the failure is the measurement
        exc = type(e).__name__
    latency = perf_counter() - t0

    t1 = perf_counter()
    rec = {"key": op["key"], "latency_s": latency, "exit": code, "exception": exc,
           "expect": op["expect"], "rows": op["rows"], "digest": None,
           "statuses": [], "bad_checks": []}
    if exc is None:
        try:
            if report is not None:
                canon = json.dumps(report, sort_keys=True, separators=(",", ":"))
                flat, statuses = {}, _count_statuses(report)
                _flatten(report, "", flat)
            elif code == 0:
                canon, flat, statuses = read_output(argv, stdout.getvalue())
            else:                            # a refusal writes no report
                canon, flat, statuses = stdout.getvalue(), {}, []
        except (OSError, ValueError) as e:
            rec["bad_checks"] = [f"unreadable report: {type(e).__name__}: {e}"]
        else:
            rec["digest"] = hashlib.sha256(canon.encode()).hexdigest()[:32]
            rec["statuses"] = statuses
            # CSV flattening prints nested verdict objects as their repr, so
            # the known answers are read from JSON reports only
            if code == 0 and _option(argv, "--format") != "csv":
                rec["bad_checks"] = failed_checks(op["checks"], flat)
    rec["verify_s"] = perf_counter() - t1
    return rec


def main() -> int:
    job = json.load(sys.stdin)
    prepare_workdir()
    from wcalc import cli, fourier  # noqa: F401  (fourier: wrapped when tracing)

    recorder = sites = None
    if job["trace"]:
        import tracing
        recorder = tracing.Recorder()
        sites = tracing.install(recorder)
    for op in workloads.WARMUP[job["workload"]]:
        rec = execute(op, cli.main)
        if rec["exception"] is not None or rec["exit"] != 0:
            raise RuntimeError(f"warm-up op failed: {op['key']}: {rec}")
    out = sys.stdout                      # ops redirect sys.stdout
    if job["ledger"]:
        for op in workloads.ledger_ops(job["workload"]):
            out.write(json.dumps({**execute(op, cli.main), "phase": "ledger"}) + "\n")
    if recorder is not None:
        recorder.reset()

    # the calibration kernel runs between ops, at most every
    # CALIBRATE_EVERY_S; its time is excluded from the timed wall
    rounds, checking, kernel = 0, 0.0, []
    start = last_kernel = perf_counter()
    while True:
        for op in workloads.round_ops(job["workload"], job["seed"], rounds):
            if not kernel or perf_counter() - last_kernel >= CALIBRATE_EVERY_S:
                kernel.append(calibration.kernel_s())
                checking += kernel[-1]
                last_kernel = perf_counter()
            rec = execute(op, cli.main)
            rec["round"], rec["phase"] = rounds, "timed"
            checking += rec["verify_s"]
            out.write(json.dumps(rec) + "\n")
        rounds += 1
        elapsed = perf_counter() - start
        if job["rounds"] is not None:
            if rounds >= job["rounds"]:
                break
        elif elapsed + 0.5 * elapsed / rounds > job["seconds"]:
            break
    wall = perf_counter() - start - checking

    result = {"rounds": rounds, "wall_s": wall, "kernel_s": kernel,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if recorder is not None:
        result["layers"] = recorder.metrics()
        result["patched"] = sites
    out.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
