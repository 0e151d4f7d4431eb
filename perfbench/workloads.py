"""Seeded workload decks.

A workload is an endless sequence of rounds.  Every round has the same
slots (command, size, row count); the seed only picks the parameters inside
each slot.  A slot walks its own seeded permutation of its choices (see
Dealer), so a choice comes up again only after all others have, and runs
with different seeds mix nearly the same choices: the cost of a run barely
depends on the seed.  Every op a round can draw is listed by
``pool(workload)``.  The known failures of ``ledger.json`` are never drawn:
``ledger_ops(workload)`` lists them, and each run executes them once before
timing.  The golden digests in ``golden.json`` cover the pool and the
ledger ops.

An op is a dict: ``key`` (its argument vector joined by spaces, or the
name of an API call), ``kind`` ("cli" or "api"), ``argv``, ``expect`` (the
exit codes accepted), ``checks`` (known answers, see known_answers.py) and
``rows`` (the weight-sequence rows it builds, for the repeated-row share).
"""
from __future__ import annotations

import itertools
import json
import os
import random

from known_answers import (
    BUMPY_CSV,
    GEVREY_MATRIX_CHECKS,
    HARNESS_CHECKS,
    LEMMA53_CHECKS,
    MALFORMED,
    SPECTRUM_CHECKS,
    analyze_seq_checks,
    compare_checks,
    dossier_seq_checks,
    dossier_seq_exit,
    dossier_weight_checks,
    verdict_checks,
    weight_checks,
)

WORKLOADS = ("battery", "matrix-scale", "fourier-lab")

OUT_JSON = ".bench_work/out/report.json"
OUT_CSV = ".bench_work/out/report.csv"
TRACE_JSON = ".bench_work/out/trace.json"

HERE = os.path.dirname(os.path.abspath(__file__))


def num(x: float) -> str:
    x = float(x)
    return str(int(x)) if x.is_integer() else repr(x)


def cli(argv, expect=(0,), checks=(), rows=()) -> dict:
    return {"key": " ".join(argv), "kind": "cli", "argv": list(argv),
            "expect": list(expect), "checks": list(checks), "rows": list(rows)}


def api(name: str, checks) -> dict:
    return {"key": f"api:{name}", "kind": "api", "argv": [name],
            "expect": [0], "checks": list(checks), "rows": []}


def load_ledger() -> list[dict]:
    with open(os.path.join(HERE, "ledger.json")) as fh:
        return json.load(fh)["entries"]


def base_key(argv) -> str:
    """The op key without its output options; ledger entries use it."""
    argv = list(argv)
    for opt in ("--out", "--format"):
        if opt in argv:
            i = argv.index(opt)
            del argv[i:i + 2]
    return " ".join(argv)


def ledger_for(workload: str) -> dict:
    return {" ".join(e["argv"]): e for e in load_ledger() if e["workload"] == workload}


def ledger_ops(workload: str) -> list[dict]:
    """The workload's ledger entries as ops that accept the exit codes the
    README contract allows once they are fixed.  They run once per run,
    before timing, and never in a timed round."""
    return [cli(e["argv"], expect=e["expected_exit_after_fix"])
            for e in load_ledger() if e["workload"] == workload]


def _drop_ledger(ops, workload):
    """Ops that are not ledger entries: no timed op is a known failure."""
    ledger = ledger_for(workload)
    return [o for o in ops if base_key(o["argv"]) not in ledger]


def seq_row(desc: str, pmax) -> str:
    return f"{desc}@{pmax}"


def gevrey_rows(idx, pmax) -> list[str]:
    """A Gevrey matrix with index s has the row p!**(s+1)."""
    return [seq_row(f"gevrey:{num(s + 1.0)}", pmax) for s in idx]


# -- battery ------------------------------------------------------------
# Every member of catalogue.sequence_battery() and weight_battery() at the
# README default sizes; bumpy_prefix has no CLI family and is read from a
# CSV file that worker.py writes from its closed form.

BATTERY_SEQS = (
    [f"gevrey:{num(s)}" for s in (1.0, 1.1, 1.2, 1.25, 4.0 / 3.0, 1.5, 2.0,
                                  2.5, 3.0, 4.0, 5.0)]
    + ["factorial_power:1,2", "factorial_power:1.5,3", "factorial_power:2,2",
       "factorial_power:3,1.5"]
    + ["power_index:1,2", "power_index:0.5,1.5", "power_index:2,3",
       "power_index:0.25,1.25"]
    + ["perturbed_gevrey:2", "perturbed_gevrey:1.5,0.2", "prefix_only:2",
       f"file:{BUMPY_CSV}"]
)
BATTERY_WEIGHTS = ("powerlog:1.5", "powerlog:2", "powerlog:3",
                   "rootpower:1", "rootpower:2")
BATTERY_INDEX = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
CHAIN_STEPS = ("2", "3", "2,2")
ROW_PATTERNS = ("1+1/q", "1+2/q", "1+1/q**2", "1.5+1/q")
CONSTRUCT_PMAX = (2000, 3000, 4000, 5000)
VARIANTS = ("json-out", "csv", "csv-out")
VARIANTS_PER_ROUND = 18


def _seq_pmax(desc: str) -> list[str]:
    # catalogue.prefix_only stores 60 terms by default
    return ["--pmax", "60"] if desc.startswith("prefix_only") else []


def _battery_base():
    """The battery's well-formed ops, grouped by slot."""
    a = {}
    a["analyze"] = [cli(["analyze", "--seq", d, *_seq_pmax(d)],
                        checks=analyze_seq_checks(d), rows=[seq_row(d, 200)])
                    for d in BATTERY_SEQS]
    a["verdict"] = [cli(["quasi", "verdict", "--seq", d, *_seq_pmax(d)],
                        checks=verdict_checks(d), rows=[seq_row(d, 200)])
                    for d in BATTERY_SEQS]
    a["dossier"] = [cli(["matrix", "dossier", "--seq", d, *_seq_pmax(d)],
                        expect=[dossier_seq_exit(d)],
                        checks=dossier_seq_checks(d), rows=[seq_row(d, 200)])
                    for d in BATTERY_SEQS]
    a["weight"] = [cli(["analyze", "--weight", w], checks=weight_checks(w))
                   for w in BATTERY_WEIGHTS]
    a["weight-dossier"] = [cli(["matrix", "dossier", "--weight", w],
                               checks=dossier_weight_checks(w))
                           for w in BATTERY_WEIGHTS]
    return a


def _compare(left, right, pmax=None):
    size = [] if pmax is None else ["--pmax", str(pmax)]
    return cli(["matrix", "compare", "--left", left, "--right", right, *size],
               checks=compare_checks(left, right),
               rows=[seq_row(left, pmax or 200), seq_row(right, pmax or 200)])


def _conditions(idx, pmax=None):
    size = [] if pmax is None else ["--pmax", str(pmax)]
    return cli(["matrix", "conditions", "--gevrey", ",".join(map(num, idx)), *size],
               checks=GEVREY_MATRIX_CHECKS, rows=gevrey_rows(idx, pmax or 200))


def _stability(idx, pmax=None):
    size = [] if pmax is None else ["--pmax", str(pmax)]
    return cli(["matrix", "stability", "--gevrey", ",".join(map(num, idx)), *size],
               rows=gevrey_rows(idx, pmax or 200))


def _chain(idx, steps, pmax=None):
    size = [] if pmax is None else ["--pmax", str(pmax)]
    return cli(["matrix", "chain", "--gevrey", ",".join(map(num, idx)),
                "--steps", steps, "--check-identity", *size],
               rows=gevrey_rows(idx, pmax or 200))


def _construct(pattern, k, pmax):
    rows = [f"{pattern}|q={q}@{pmax}" for q in range(1, k + 1)]
    return cli(["quasi", "construct", "--rows", f"{pattern}:q=1..{k}",
                "--pmax", str(pmax)], rows=rows)


def with_variant(op: dict, variant: str) -> dict:
    """The same op writing its report through --out and/or --format csv."""
    argv = list(op["argv"])
    if variant == "json-out":
        argv += ["--out", TRACE_JSON if argv[:2] == ["quasi", "construct"] else OUT_JSON]
    elif variant == "csv":
        argv += ["--format", "csv"]
    else:
        argv += ["--format", "csv", "--out", OUT_CSV]
    return {**op, "key": " ".join(argv), "argv": argv}


def _subsets(pool, sizes):
    return [c for k in sizes for c in itertools.combinations(pool, k)]


class Dealer:
    """Parameters for round r of one seed.  Slot ``name`` deals ``count``
    choices per round from its own seeded permutation, cycling, so round r
    gets items r*count ... r*count+count-1 of that cycle."""

    def __init__(self, workload: str, seed: int, r: int):
        self.prefix, self.r = f"{workload}:{seed}", r
        self.rng = random.Random(f"{self.prefix}:{r}")   # order and variants

    def perm(self, name: str, choices) -> list:
        out = list(choices)
        random.Random(f"{self.prefix}:{name}").shuffle(out)
        return out

    def deal(self, name: str, choices, count: int) -> list:
        cycle = self.perm(name, choices)
        return [cycle[(self.r * count + i) % len(cycle)] for i in range(count)]

    def one(self, name: str, choices):
        return self.deal(name, choices, 1)[0]


def _battery_round(d: Dealer) -> list[dict]:
    base = _battery_base()
    ops = [o for group in base.values() for o in group]
    # every family is the left side once; the right sides are a seeded
    # permutation rotated by one place per round
    right = d.perm("compare", BATTERY_SEQS)
    n = len(right)
    ops += [_compare(left, right[(i + d.r) % n]) for i, left in enumerate(BATTERY_SEQS)]
    for k in (2, 3, 4):
        sets = _subsets(BATTERY_INDEX, (k,))
        ops += [_conditions(c) for c in d.deal(f"conditions{k}", sets, 2)]
        ops += [_stability(c) for c in d.deal(f"stability{k}", sets, 1 + (k == 3))]
        ops += [_chain(c, d.one(f"steps{k}-{i}", CHAIN_STEPS))
                for i, c in enumerate(d.deal(f"chain{k}", sets, 1 + (k == 3)))]
    patterns = [(p, k) for p in ROW_PATTERNS for k in (2, 3, 4)]
    ops += [_construct(*d.one(f"construct{pmax}", patterns), pmax) for pmax in CONSTRUCT_PMAX]
    ops = _drop_ledger(ops, "battery")
    picked = d.rng.sample(range(len(ops)), VARIANTS_PER_ROUND)
    for i, j in enumerate(picked):
        ops[j] = with_variant(ops[j], VARIANTS[i % len(VARIANTS)])
    ops += [cli(argv, expect=[code]) for argv, code, _ in d.deal("malformed", MALFORMED, 3)]
    d.rng.shuffle(ops)
    return ops


def _battery_pool() -> list[dict]:
    base = [o for group in _battery_base().values() for o in group]
    base += [_compare(a, b) for a in BATTERY_SEQS for b in BATTERY_SEQS]
    idx_sets = _subsets(BATTERY_INDEX, (2, 3, 4))
    base += [_conditions(c) for c in idx_sets]
    base += [_stability(c) for c in idx_sets]
    base += [_chain(c, st) for c in idx_sets for st in CHAIN_STEPS]
    base += [_construct(p, k, n) for p in ROW_PATTERNS for k in (2, 3, 4)
             for n in CONSTRUCT_PMAX]
    base = _drop_ledger(base, "battery")
    pool = base + [with_variant(o, v) for o in base for v in VARIANTS]
    return pool + [cli(argv, expect=[code]) for argv, code, _ in MALFORMED]


# -- matrix-scale -------------------------------------------------------
# The matrix layer at large P.  Index sets come from a five-value pool, so
# rows recur across reports (the measured share is printed per run).

GEVREY_POOL = (1.0, 1.5, 2.0, 2.5, 3.0)


def _gev(s):
    return f"gevrey:{num(s)}"


def _scale_seq_ops(kind, s, pmax):
    d = _gev(s)
    if kind == "analyze":
        return cli(["analyze", "--seq", d, "--pmax", str(pmax)],
                   checks=analyze_seq_checks(d), rows=[seq_row(d, pmax)])
    if kind == "verdict":
        return cli(["quasi", "verdict", "--seq", d, "--pmax", str(pmax)],
                   checks=verdict_checks(d), rows=[seq_row(d, pmax)])
    return cli(["matrix", "dossier", "--seq", d, "--pmax", str(pmax)],
               checks=dossier_seq_checks(d), rows=[seq_row(d, pmax)])


# (slot, pmax, rows per matrix, count per round; None: every pool value
# twice, which puts the median latency inside the dossier cluster).
# dossier --seq at pmax 4000, and for gevrey:3 at 1000, is a ledger entry.
SCALE_SLOTS = (
    ("analyze", 4000, 0, 2), ("analyze", 16000, 0, 2),
    ("compare", 4000, 0, 2), ("compare", 16000, 0, 2),
    ("verdict", 4000, 0, 2), ("verdict", 16000, 0, 2),
    ("conditions", 1000, 3, 2), ("conditions", 4000, 3, 1),
    ("conditions", 16000, 2, 1),
    ("stability", 1000, 2, 2), ("stability", 4000, 2, 1),
    ("chain", 1000, 2, 2), ("chain", 4000, 2, 1),
    ("dossier", 1000, 0, None),
)


def _scale_op(slot, pmax, idx=None, s=None, t=None):
    if slot == "compare":
        return _compare(_gev(s), _gev(t), pmax)
    if slot == "conditions":
        return _conditions(idx, pmax)
    if slot == "stability":
        return _stability(idx, pmax)
    if slot == "chain":
        return _chain(idx, "2", pmax)
    return _scale_seq_ops(slot, s, pmax)


def _scale_round(d: Dealer) -> list[dict]:
    ops = []
    for slot, pmax, k, count in SCALE_SLOTS:
        name = f"{slot}{pmax}"
        if count is None:
            ops += [_scale_op(slot, pmax, s=s) for s in GEVREY_POOL * 2]
        elif k:
            sets = _subsets(GEVREY_POOL, (k,))
            ops += [_scale_op(slot, pmax, idx=c) for c in d.deal(name, sets, count)]
        elif slot == "compare":
            pairs = list(itertools.product(GEVREY_POOL, GEVREY_POOL))
            ops += [_scale_op(slot, pmax, s=a, t=b) for a, b in d.deal(name, pairs, count)]
        else:
            ops += [_scale_op(slot, pmax, s=s) for s in d.deal(name, GEVREY_POOL, count)]
    ops = _drop_ledger(ops, "matrix-scale")
    d.rng.shuffle(ops)
    return ops


def _scale_pool() -> list[dict]:
    pool = {}
    for slot, pmax, k, _ in SCALE_SLOTS:
        if k:
            ops = [_scale_op(slot, pmax, idx=c) for c in _subsets(GEVREY_POOL, (k,))]
        elif slot == "compare":
            ops = [_scale_op(slot, pmax, s=s, t=t) for s in GEVREY_POOL for t in GEVREY_POOL]
        else:
            ops = [_scale_op(slot, pmax, s=s) for s in GEVREY_POOL]
        pool.update((o["key"], o) for o in _drop_ledger(ops, "matrix-scale"))
    return list(pool.values())


# -- fourier-lab --------------------------------------------------------

BUMP_DEPTHS = (10, 20, 30)
HARNESS_ROWS = (2, 3, 4, 5)


def _harness(idx, depth):
    return cli(["fourier", "harness", "--gevrey", ",".join(map(num, idx)),
                "--bump-depth", str(depth)],
               checks=HARNESS_CHECKS, rows=gevrey_rows(idx, 200))


LEMMA53 = api("check_lemma53_i", LEMMA53_CHECKS)
SPECTRUM = api("reference_spectrum_standard_bump", SPECTRUM_CHECKS)


def _fourier_round(d: Dealer) -> list[dict]:
    # The harness cost varies about fivefold between index sets, so every
    # round runs every 2-5-row set once; the seed deals the bump depths and
    # the order.
    ops = []
    for k in HARNESS_ROWS:
        sets = _subsets(GEVREY_POOL, (k,))
        depths = d.deal(f"depth{k}", BUMP_DEPTHS, len(sets))
        ops += [_harness(c, depth) for c, depth in zip(sets, depths)]
    ops += [LEMMA53, LEMMA53, SPECTRUM]
    d.rng.shuffle(ops)
    return ops


def _fourier_pool() -> list[dict]:
    sets = _subsets(GEVREY_POOL, HARNESS_ROWS)
    pool = [_harness(s, d) for s in sets for d in BUMP_DEPTHS]
    return pool + [LEMMA53, SPECTRUM]


# -- entry points -------------------------------------------------------

_ROUND = {"battery": _battery_round, "matrix-scale": _scale_round,
          "fourier-lab": _fourier_round}
_POOL = {"battery": _battery_pool, "matrix-scale": _scale_pool,
         "fourier-lab": _fourier_pool}

# Ops run once before timing so that lazy imports (the Fourier module,
# mpmath) and first-call costs are paid outside the measurement.
WARMUP = {
    "battery": [cli(["analyze", "--seq", "gevrey:2"]),
                cli(["matrix", "dossier", "--seq", "gevrey:2"]),
                cli(["matrix", "conditions", "--gevrey", "1,2"]),
                cli(["quasi", "construct", "--rows", "1+1/q:q=1..2", "--pmax", "2000",
                     "--format", "csv"])],
    "matrix-scale": [cli(["analyze", "--seq", "gevrey:2", "--pmax", "1000"]),
                     cli(["matrix", "stability", "--gevrey", "1,2"])],
    "fourier-lab": [cli(["fourier", "harness", "--gevrey", "2.5,3",
                         "--bump-depth", "10"]),
                    {**SPECTRUM, "key": "api:warmup", "argv": ["warmup_spectrum"]}],
}


def round_ops(workload: str, seed: int, r: int) -> list[dict]:
    return _ROUND[workload](Dealer(workload, seed, r))


def pool(workload: str) -> list[dict]:
    return _POOL[workload]()
