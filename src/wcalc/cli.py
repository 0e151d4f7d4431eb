"""Command-line front-end.

Subcommands: analyze, matrix (conditions/chain/stability/compare/dossier),
quasi (verdict/construct), fourier (harness).  Exit codes: 0 success
(Inconclusive results are still success), 2 parse error, 3 precondition
failure, 4 internal consistency violation.
"""
from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import os
import sys

from . import __version__, catalogue, convex, sequences, serialize, verdicts
from .errors import RoutesDisagree, StorageExceeded, TruncationExhausted, WcalcError
from .matrices import (
    CONDITION_NAMES,
    MultiIndexChain,
    WeightMatrix,
    build_gevrey_matrix,
    check_matrix_condition,
    check_omega_stability,
    check_pseudo_mg,
    check_stability_theorem,
    comparison_report,
    integer_step_identity_error,
    multi_index_step,
)
from .quasi import class_nq_verdict, construct_minorant
from .sequences import (
    LogWeightSequence,
    check_beta3,
    check_carleman_consistency,
    check_in_LC,
    check_log_convex,
    check_moderate_growth,
    check_nq,
    root_gap_relations,
)
from .weightfuncs import (
    WeightFunction,
    check_omega_conditions,
    make_power_log_weight,
    make_root_power_weight,
)

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4

SEQ_FAMILIES = {
    "gevrey": catalogue.gevrey,
    "factorial_power": catalogue.factorial_power,
    "power_index": catalogue.power_index,
    "perturbed_gevrey": catalogue.perturbed_gevrey,
    "prefix_only": catalogue.prefix_only,
}


class DescriptorError(ValueError):
    pass


def _params(text: str) -> list[float]:
    try:
        out = [float(t) for t in text.split(",") if t]
    except ValueError as e:
        raise DescriptorError(str(e)) from None
    if not all(math.isfinite(v) for v in out):
        raise DescriptorError(f"non-finite parameter in {text!r}")
    return out


def _build(maker, *args, **kwargs):
    """maker(*args, **kwargs); a value outside its domain is a parse error."""
    try:
        return maker(*args, **kwargs)
    except (TypeError, ValueError) as e:
        raise DescriptorError(str(e)) from None
    except OverflowError:
        raise DescriptorError(f"{maker.__name__}: a parameter is out of float range") from None


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise DescriptorError(str(e)) from None
    except ValueError as e:                 # not JSON
        raise DescriptorError(f"{path}: {e}") from None


def _sequence_from_json(d, where: str) -> LogWeightSequence:
    """A sequence from {"family": ..., <family parameters>, "label"?}."""
    if not isinstance(d, dict):
        raise DescriptorError(f"{where}: expected a JSON object with a \"family\"")
    params = dict(d)
    fam = params.pop("family", None)
    label = params.pop("label", None)
    if not isinstance(fam, str) or fam not in SEQ_FAMILIES:
        raise DescriptorError(f"{where}: unknown family {fam!r}")
    seq = _build(SEQ_FAMILIES[fam], **params)
    return seq.with_label(label) if label else seq


def _required(args, name: str) -> str:
    """The value of --name, which args.action needs; missing is a parse error."""
    value = getattr(args, name)
    if value is None:
        raise DescriptorError(f"{args.command} {args.action} needs --{name}")
    return value


def parse_sequence(desc: str, pmax: int) -> LogWeightSequence:
    """`family:params` or `file:path` (CSV `p,logM` or JSON descriptor)."""
    if ":" not in desc:
        raise DescriptorError(f"descriptor {desc!r} lacks ':'")
    head, rest = desc.split(":", 1)
    if head == "file":
        if rest.endswith(".json"):
            return _sequence_from_json(_load_json(rest), rest)
        try:
            return serialize.read_sequence_csv(rest)
        except (OSError, ValueError) as e:
            raise DescriptorError(str(e)) from None
    if head not in SEQ_FAMILIES:
        raise DescriptorError(f"unknown sequence family {head!r}")
    return _build(SEQ_FAMILIES[head], *_params(rest), pmax=pmax)


def parse_weight(desc: str) -> WeightFunction:
    if ":" not in desc:
        raise DescriptorError(f"descriptor {desc!r} lacks ':'")
    head, rest = desc.split(":", 1)
    makers = {"powerlog": make_power_log_weight, "rootpower": make_root_power_weight}
    if head not in makers:
        raise DescriptorError(f"unknown weight family {head!r}")
    return _build(makers[head], *_params(rest))


def parse_matrix(args, pmax: int) -> WeightMatrix:
    if getattr(args, "gevrey", None):
        M = _build(build_gevrey_matrix, tuple(_params(args.gevrey)), pmax)
    elif getattr(args, "matrix", None):
        desc = args.matrix
        if not desc.startswith("file:"):
            raise DescriptorError("matrix descriptor must be file:<path>")
        path = desc[5:]
        d = _load_json(path)
        try:
            rows = [(float(x), d["rows"][str(x)]) for x in d["labels"]]
        except (KeyError, TypeError, ValueError) as e:
            raise DescriptorError(
                f'{path}: expected {{"labels": [...], "rows": {{...}}}} '
                f"with a row for every label ({type(e).__name__}: {e})"
            ) from None
        M = _build(
            WeightMatrix,
            tuple(x for x, _ in rows),
            tuple(_sequence_from_json(r, f"{path} row {x:g}") for x, r in rows),
            None,
            desc,
        )
    else:
        raise DescriptorError("no matrix given (use --gevrey or --matrix)")
    if not M.rows:
        raise DescriptorError("the matrix has no rows")
    return M


def _write(write, path: str, *data):
    """write(path, *data); a path that cannot be written is a parse error."""
    try:
        return write(path, *data)
    except OSError as e:
        raise DescriptorError(str(e)) from None


def _emit(args, report: dict, **tolerances: float) -> None:
    """Write the report with its config; tolerances are the command's own."""
    report["config"] = {
        "argv": args.argv,
        "version": __version__,
        "pmax": args.pmax,
        "tolerances": {
            "LOG_TOL": sequences.LOG_TOL,
            "TAIL_CONSISTENCY_TOL": sequences.TAIL_CONSISTENCY_TOL,
            "SLOPE_TOL": convex.SLOPE_TOL,
            **tolerances,
        },
    }
    if getattr(args, "format", "json") == "csv":
        if args.out:
            _write(serialize.write_report_csv, args.out, report)
        else:
            for k, v in serialize.flatten_report(report):
                print(f"{k},{v}")
        return
    text = _write(serialize.write_report, args.out, report)
    if not args.out:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    report: dict = {}
    if args.seq:
        seq = parse_sequence(args.seq, args.pmax)
        lc = check_log_convex(seq)
        report["sequence"] = {
            "label": seq.label,
            "P": seq.P,
            "normalized": seq.is_normalized(),
            "lc": lc.to_json("lc"),
            "LC": check_in_LC(seq).to_json("LC"),
            "mg": check_moderate_growth(seq).to_json("mg"),
            "nq": check_nq(seq).to_json("nq"),
            "beta3": check_beta3(seq).to_json("beta3"),
        }
        if lc.holds:
            report["sequence"]["carleman_consistency"] = (
                check_carleman_consistency(seq).to_json("carleman")
            )
        report["sequence"]["nq_routes"] = class_nq_verdict(seq).to_json("nq")
    if args.weight:
        w = parse_weight(args.weight)
        report["weight"] = {
            name: v.to_json(name)
            for name, v in check_omega_conditions(w).items()
        }
    if not report:
        raise DescriptorError("analyze needs --seq or --weight")
    _emit(args, report)
    return 0


def cmd_matrix(args) -> int:
    if args.action == "dossier":
        if args.seq:
            obj = parse_sequence(args.seq, args.pmax)
        elif args.weight:
            obj = parse_weight(args.weight)
        else:
            raise DescriptorError("dossier needs --seq or --weight")
        _emit(args, comparison_report(obj))
        return 0
    if args.action == "compare":
        a = parse_sequence(_required(args, "left"), args.pmax)
        b = parse_sequence(_required(args, "right"), args.pmax)
        preceq, preceq_rev, triangle = root_gap_relations(a, b)
        approx = verdicts.conjunction({"forward": preceq, "backward": preceq_rev})
        report = {
            "preceq": preceq.to_json(),
            "preceq_rev": preceq_rev.to_json(),
            "triangle": triangle.to_json(),
            "approx": approx.to_json(),
        }
        _emit(args, report)
        return 0
    M = parse_matrix(args, args.pmax)
    if args.action == "conditions":
        report = {
            name: check_matrix_condition(M, name).to_json(name)
            for name in CONDITION_NAMES
        }
        report["pseudo_mg"] = check_pseudo_mg(M).to_json("pseudo_mg")
        _emit(args, report)
        return 0
    if args.action == "stability":
        _emit(args, {"stability": check_stability_theorem(M).to_json()})
        return 0
    if args.action == "chain":
        steps = _params(args.steps)
        if any(l <= 0 for l in steps):
            raise DescriptorError(f"--steps {args.steps!r}: every step must be positive")
        chain = MultiIndexChain(M, (), None)
        for l in steps:
            chain = multi_index_step(chain, l)
        report = {
            "steps": list(chain.steps),
            "omega_stability": check_omega_stability(chain).to_json(),
        }
        if args.check_identity:
            report["integer_step_identity_error"] = integer_step_identity_error(chain)
        _emit(args, report)
        return 0
    raise DescriptorError(f"unknown matrix action {args.action!r}")


_ROW_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def _row_value(node, q: int):
    """Evaluate a row expression: numbers, q, binary + - * / ** and unary -."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id == "q":
        return q
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_row_value(node.operand, q)
    if isinstance(node, ast.BinOp) and type(node.op) in _ROW_OPS:
        left, right = _row_value(node.left, q), _row_value(node.right, q)
        if (isinstance(node.op, ast.Pow) and isinstance(left, int)
                and isinstance(right, int) and abs(left) > 1
                and abs(left).bit_length() * right > 4096):
            # an integer power this large is slow to build and overflows a float
            raise OverflowError("integer power too large")
        return _ROW_OPS[type(node.op)](left, right)
    raise DescriptorError(f"unsupported syntax {ast.unparse(node)!r}")


def _parse_row_pattern(pattern: str) -> list[tuple[float, float]]:
    """`EXPR:q=1..b` -> [(label 1/q, exponent EXPR(q))] for q in 1..b."""
    try:
        expr, rng = pattern.rsplit(":q=", 1)
        lo, hi = rng.split("..")
        qs = range(int(lo), int(hi) + 1)
        if qs.start != 1 or len(qs) < 2:
            raise ValueError("the range must run from q=1 over at least two rows")
        tree = ast.parse(expr, mode="eval").body
        rows = [(1.0 / q, float(_row_value(tree, q))) for q in qs]
    except (ValueError, SyntaxError, ZeroDivisionError, OverflowError,
            TypeError, RecursionError) as e:
        raise DescriptorError(f"bad row pattern {pattern!r}: {e}") from None
    if not all(math.isfinite(s) for _, s in rows):
        raise DescriptorError(f"bad row pattern {pattern!r}: non-finite exponent")
    return rows


def cmd_quasi(args) -> int:
    if args.action == "verdict":
        seq = parse_sequence(_required(args, "seq"), args.pmax)
        _emit(args, {"nq": class_nq_verdict(seq).to_json("nq")})
        return 0
    if args.action == "construct":
        rows = _parse_row_pattern(_required(args, "rows"))
        labels = tuple(l for l, _ in rows)
        try:
            seqs = tuple(catalogue.gevrey(s, args.pmax) for _, s in rows)
        except ValueError as e:
            raise DescriptorError(str(e)) from None
        order = sorted(range(len(rows)), key=lambda i: labels[i])
        M = WeightMatrix(
            tuple(labels[i] for i in order),
            tuple(seqs[i] for i in order),
            None,
            args.rows,
        )
        try:
            trace = construct_minorant(M)
        except TruncationExhausted as e:
            _emit(args, {"status": "partial", "q_reached": e.q_reached})
            return 0
        report = trace.to_json()
        report["status"] = "complete"
        # the trace first, taken back if the report cannot be written: a
        # refused call leaves neither file behind
        csv = args.out[:-5] + ".csv" if args.out and args.out.endswith(".json") else None
        if csv:
            _write(serialize.write_sequence_csv, csv, trace.N)
        try:
            _emit(args, report)
        except DescriptorError:
            if csv:
                os.remove(csv)
            raise
        return 0
    raise DescriptorError(f"unknown quasi action {args.action!r}")


def cmd_fourier(args) -> int:
    if args.bump_depth < 1:
        raise DescriptorError(f"--bump-depth {args.bump_depth}: a bump needs depth >= 1")
    from .fourier import MASK_REL, theorem51_harness

    M = parse_matrix(args, args.pmax)
    report = theorem51_harness(M, bump_depth=args.bump_depth)
    _emit(args, report, MASK_REL=MASK_REL)
    return 0


def _add_common(p) -> None:
    p.add_argument("--pmax", type=int, default=200)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wcalc")
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze")
    a.add_argument("--seq")
    a.add_argument("--weight")
    _add_common(a)
    a.set_defaults(fn=cmd_analyze)

    m = sub.add_parser("matrix")
    m.add_argument("action", choices=(
        "conditions", "chain", "stability", "compare", "dossier"
    ))
    m.add_argument("--gevrey")
    m.add_argument("--matrix")
    m.add_argument("--seq")
    m.add_argument("--weight")
    m.add_argument("--left")
    m.add_argument("--right")
    m.add_argument("--steps", default="2")
    m.add_argument("--check-identity", action="store_true")
    _add_common(m)
    m.set_defaults(fn=cmd_matrix)

    q = sub.add_parser("quasi")
    q.add_argument("action", choices=("verdict", "construct"))
    q.add_argument("--seq")
    q.add_argument("--rows")
    _add_common(q)
    q.set_defaults(fn=cmd_quasi)

    f = sub.add_parser("fourier")
    f.add_argument("action", choices=("harness",))
    f.add_argument("--gevrey")
    f.add_argument("--matrix")
    f.add_argument("--bump-depth", type=int, default=30)
    _add_common(f)
    f.set_defaults(fn=cmd_fourier)
    return ap


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    argv = sys.argv[1:] if argv is None else list(argv)
    if _parser is None:
        # built on first use, not at import; parse_args returns a fresh
        # Namespace every call, so one parser serves every report
        _parser = build_parser()
    args = _parser.parse_args(argv)
    args.argv = argv
    try:
        code = args.fn(args)
        sys.stdout.flush()          # a reader gone early raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader closed it: point stdout at devnull so that the
        # interpreter's last flush of what is still buffered cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except DescriptorError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except RoutesDisagree as e:
        print(f"internal consistency violation: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (WcalcError, MemoryError) as e:
        if isinstance(e, MemoryError):
            # the limit is the machine's: the same argv may pass on another
            e = StorageExceeded(str(e) or "out of memory")
        print(f"precondition failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
