"""Per-layer spans and counters, recorded from outside the program.

``install`` wraps public wcalc functions and methods in place.  A module
that did ``from .x import y`` holds its own binding of ``y``, so every
``wcalc`` module attribute (and every ``cli.SEQ_FAMILIES`` entry) that is
the original object is replaced, and ``install`` fails if any binding is
left unwrapped.  Spans nest on one stack; a span's self time is its wall
time minus the wall time of the spans it called.  Spans are aggregated in
memory per name (calls, self seconds) together with the counters below,
and returned when the traced run ends.

Per-layer metrics, the end-to-end metric each should move and the
workloads on which each must fire (FIRES) or stay zero (SILENT) are listed
in LAYERS; run.py checks both predictions on every traced run.
"""
from __future__ import annotations

import dataclasses
import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

BATTERY, SCALE, FOURIER = "battery", "matrix-scale", "fourier-lab"
ALL = (BATTERY, SCALE, FOURIER)
MATRIX = (BATTERY, SCALE)

# metric -> (workloads where it must be non-zero, workloads where it must be 0)
LAYERS = {
    "tails.log_values.calls": (MATRIX, ()),
    "tails.log_values.points": (MATRIX, ()),
    "tails.log_values.self_s": (MATRIX, ()),
    "sequences.construct.calls": (ALL, ()),
    "sequences.construct.self_s": (ALL, ()),
    "matrices.extender_calls": (MATRIX, ()),
    "sequences.check_moderate_growth.self_s": (MATRIX, ()),
    "convex.conjugate.calls": (MATRIX, ()),
    "convex.conjugate.self_s": (MATRIX, ()),
    "convex.lower_hull.points": (ALL, ()),
    "convex.lower_hull.self_s": (ALL, ()),
    "convex.upper_envelope_of_lines.lines": (MATRIX, ()),
    "convex.upper_envelope_of_lines.self_s": (MATRIX, ()),
    "weightfuncs.associated_function.calls": (ALL, ()),
    "weightfuncs.associated_function.self_s": (ALL, ()),
    "weightfuncs.sequence_from_weight.calls": (MATRIX, ()),
    "weightfuncs.sequence_from_weight.self_s": (MATRIX, ()),
    "matrices.check_matrix_condition.self_s": (ALL, ()),
    "matrices.check_stability_theorem.self_s": (MATRIX, (FOURIER,)),
    "matrices.check_pseudo_mg.self_s": (MATRIX, (FOURIER,)),
    "matrices.multi_index_step.self_s": (MATRIX, (FOURIER,)),
    "matrices.comparison_report.self_s": (MATRIX, (FOURIER,)),
    "fourier.fft_forward": ((FOURIER,), MATRIX),
    "fourier.fft_inverse": ((FOURIER,), MATRIX),
    "fourier.fft_bytes": ((FOURIER,), MATRIX),
    "fourier.spectral_derivative.self_s": ((FOURIER,), MATRIX),
    "fourier.compute_spectrum.self_s": ((FOURIER,), MATRIX),
    "fourier.fourier_norm.self_s": ((FOURIER,), MATRIX),
    "fourier.bump_builder.self_s": ((FOURIER,), MATRIX),
    "fourier.reference_spectrum_standard_bump.self_s": ((FOURIER,), MATRIX),
    "quasi.construct_minorant.self_s": ((BATTERY,), (SCALE, FOURIER)),
    "quasi.class_nq_verdict.calls": (ALL, ()),
    "quasi.class_nq_verdict.self_s": (ALL, ()),
    "quasi.probes": ((BATTERY,), (SCALE, FOURIER)),
    "cli.parse.self_s": (ALL, ()),
    "serialize.write.self_s": (ALL, ()),
    "serialize.write.bytes": (ALL, ()),
    "catalogue.construct.self_s": (ALL, ()),
    "trace.overhead_ratio": (ALL, ()),
    # known failures of ledger.json still open; falls to 0 as they are fixed
    "ledger.open": ((), ()),
}


class Recorder:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.stack: list = []          # [name, seconds spent in child spans]

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def span(self, name: str, fn, count=None):
        """Wrap fn in a span; count(args, kwargs, result) adds counters."""
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def metrics(self) -> dict:
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        return out


def _wcalc_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "wcalc" or name.startswith("wcalc."))]


def _rebind(original, wrapper) -> list[str]:
    """Point every wcalc module binding of original at wrapper."""
    sites = []
    for mod in _wcalc_modules():
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)
                sites.append(f"{mod.__name__}.{attr}")
    return sites


def install(rec: Recorder) -> list[str]:
    """Wrap the layers of an imported wcalc; returns the patched sites."""
    import numpy as np

    from wcalc import (catalogue, cli, convex, fourier, matrices, quasi,
                       sequences, serialize, tails, weightfuncs)

    sites: list[str] = []
    originals = []

    def function(module, attr, name, count=None):
        original = getattr(module, attr)
        originals.append(original)
        sites.extend(_rebind(original, rec.span(name, original, count)))

    def method(cls, attr, name, count=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, rec.span(name, original, count))
        sites.append(f"{cls.__module__}.{cls.__name__}.{attr}")

    def add(key, amount):
        rec.counts[key] += amount

    method(tails.Tail, "log_values", "tails.log_values",
           lambda a, k, r: add("tails.log_values.points", len(r)))
    method(sequences.LogWeightSequence, "__post_init__", "sequences.construct")
    method(convex.ConvexPL, "conjugate", "convex.conjugate")
    function(sequences, "check_moderate_growth", "sequences.check_moderate_growth")
    function(convex, "lower_hull", "convex.lower_hull",
             lambda a, k, r: add("convex.lower_hull.points", len(a[0])))
    function(convex, "upper_envelope_of_lines", "convex.upper_envelope_of_lines",
             lambda a, k, r: add("convex.upper_envelope_of_lines.lines", len(a[0])))
    for attr in ("associated_function", "sequence_from_weight"):
        function(weightfuncs, attr, f"weightfuncs.{attr}")
    for attr in ("check_matrix_condition", "check_stability_theorem",
                 "check_pseudo_mg", "multi_index_step", "comparison_report"):
        function(matrices, attr, f"matrices.{attr}")
    for attr in ("spectral_derivative", "compute_spectrum", "fourier_norm",
                 "bump_builder", "reference_spectrum_standard_bump"):
        function(fourier, attr, f"fourier.{attr}")
    for attr in ("construct_minorant", "class_nq_verdict"):
        function(quasi, attr, f"quasi.{attr}")
    for attr in ("parse_sequence", "parse_weight", "parse_matrix", "_parse_row_pattern"):
        function(cli, attr, "cli.parse")
    for attr in ("gevrey", "factorial_power", "power_index", "perturbed_gevrey",
                 "prefix_only"):
        original = getattr(catalogue, attr)
        wrapper = rec.span("catalogue.construct", original)
        originals.append(original)
        sites.extend(_rebind(original, wrapper))
        for fam, fn in list(cli.SEQ_FAMILIES.items()):
            if fn is original:
                cli.SEQ_FAMILIES[fam] = wrapper
                sites.append(f"wcalc.cli.SEQ_FAMILIES[{fam!r}]")

    # argparse: building the parser and parsing argv both count as cli.parse
    build_parser = cli.build_parser
    originals.append(build_parser)

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = rec.span("cli.parse", parser.parse_args)
        return parser

    sites.extend(_rebind(build_parser, rec.span("cli.parse", traced_build_parser)))

    # serialization: bytes are counted at the outermost serialize.write span
    def written(nbytes):
        def count(args, kwargs, result):
            if not rec.inside("serialize.write"):
                add("serialize.write.bytes", nbytes(args, result))
        return count

    function(serialize, "write_report", "serialize.write",
             written(lambda a, r: len(r)))
    for attr in ("write_report_csv", "write_sequence_csv"):
        function(serialize, attr, "serialize.write",
                 written(lambda a, r: os.path.getsize(a[0])))
    function(serialize, "flatten_report", "serialize.write",
             written(lambda a, r: sum(len(k) + len(v) + 2 for k, v in r)))

    # extender calls: matrices leave their builders with a counting extender
    def counting_builder(build):
        originals.append(build)

        def wrapper(*args, **kwargs):
            M = build(*args, **kwargs)
            extend = M.extender

            def counted(x):
                add("matrices.extender_calls", 1)
                return extend(x)

            return dataclasses.replace(M, extender=counted)

        sites.extend(_rebind(build, functools.wraps(build)(wrapper)))

    counting_builder(matrices.build_gevrey_matrix)
    counting_builder(matrices.build_omega_matrix)

    # index-search probes made inside construct_minorant
    def probe(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.inside("quasi.construct_minorant"):
                add("quasi.probes", 1)
            return fn(*args, **kwargs)
        return wrapper

    def subclasses(cls):
        yield cls
        for sub in cls.__subclasses__():
            yield from subclasses(sub)

    for cls in set(subclasses(tails.Tail)):
        if "root_sum_tail_upper" in cls.__dict__:
            cls.root_sum_tail_upper = probe(cls.__dict__["root_sum_tail_upper"])
            sites.append(f"{cls.__module__}.{cls.__name__}.root_sum_tail_upper")
    sequences.LogWeightSequence.root = probe(sequences.LogWeightSequence.root)
    sites.append("wcalc.sequences.LogWeightSequence.root")

    # FFTs: counts and computed bytes (n complex128 values per transform)
    for attr, key in (("fft", "fourier.fft_forward"), ("ifft", "fourier.fft_inverse")):
        original = getattr(np.fft, attr)

        def transform(a, *args, _fn=original, _key=key, **kwargs):
            add(_key, 1)
            add("fourier.fft_bytes", 16 * int(np.shape(a)[-1]))
            return _fn(a, *args, **kwargs)

        setattr(np.fft, attr, transform)
        sites.append(f"numpy.fft.{attr}")

    left = [f"{m.__name__}.{attr}" for m in _wcalc_modules()
            for attr, val in vars(m).items() if any(val is o for o in originals)]
    left += [f"wcalc.cli.SEQ_FAMILIES[{fam!r}]" for fam, fn in cli.SEQ_FAMILIES.items()
             if any(fn is o for o in originals)]
    if left:
        raise RuntimeError(f"unwrapped bindings remain: {left}")
    return sites
