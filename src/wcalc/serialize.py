"""Deterministic report and data serialization.

JSON output is canonical: keys sorted, floats printed with 17 significant
digits, no locale or hash-order dependence, so identical inputs give
byte-identical reports.
"""
from __future__ import annotations

import json

import numpy as np

from .sequences import LogWeightSequence


_str = json.encoder.encode_basestring_ascii     # json.dumps(s) for a str s


def _str_key(item) -> str:
    return str(item[0])


def _float_str(x: float) -> str:
    s = format(x, ".17g")
    if "." in s or "e" in s:
        return s
    if "n" in s:                 # nan, inf, -inf are quoted
        return f'"{s}"'
    # make sure the token parses as a JSON number
    return s + ".0"


def dumps_canonical(obj, indent: int = 0) -> str:
    out: list[str] = []
    _encode(obj, indent, out)
    return "".join(out)


def _encode(obj, indent: int, out: list[str]) -> None:
    """Append the canonical text of obj to out.  The common node types are
    dispatched on their exact type; subclasses, numpy scalars and to_json
    objects take the general branches of _encode_other."""
    t = type(obj)
    if t is float:
        out.append(_float_str(obj))
    elif t is str:
        out.append(_str(obj))
    elif t is dict:
        _encode_dict(obj, indent, out)
    elif t is list or t is tuple or t is np.ndarray:
        _encode_list(list(obj), indent, out)
    else:
        _encode_other(obj, indent, out)


def _encode_dict(obj, indent: int, out: list[str]) -> None:
    if not obj:
        out.append("{}")
        return
    pad1 = "\n" + "  " * (indent + 1)
    sep = "{" + pad1
    for k, v in sorted(obj.items(), key=_str_key):
        out.append(sep)
        out.append(_str(str(k)))
        out.append(": ")
        if type(v) is float:
            out.append(_float_str(v))
        else:
            _encode(v, indent + 1, out)
        sep = "," + pad1
    out.append("\n" + "  " * indent + "}")


def _encode_list(seq: list, indent: int, out: list[str]) -> None:
    if not seq:
        out.append("[]")
        return
    pad1 = "\n" + "  " * (indent + 1)
    sep = "[" + pad1
    for v in seq:
        out.append(sep)
        if type(v) is float:
            out.append(_float_str(v))
        else:
            _encode(v, indent + 1, out)
        sep = "," + pad1
    out.append("\n" + "  " * indent + "]")


def _encode_other(obj, indent: int, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_str(float(obj)))
    elif isinstance(obj, str):
        out.append(_str(obj))
    elif isinstance(obj, dict):
        _encode_dict(obj, indent, out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        _encode_list(list(obj), indent, out)
    elif hasattr(obj, "to_json"):
        _encode(obj.to_json(), indent, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_report(path: str | None, report: dict) -> str:
    text = dumps_canonical(report) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


# -- CSV ----------------------------------------------------------------

def _csv_column(name: str, col) -> list[str]:
    """The CSV text of one column: an integral p as an int, otherwise
    17 significant digits."""
    vals = np.asarray(col).tolist()
    if name == "p":
        return [
            str(int(v)) if float(v).is_integer() else format(v, ".17g")
            for v in vals
        ]
    return [format(v, ".17g") for v in vals]


def write_columns_csv(path: str, header: tuple[str, ...], *cols) -> None:
    columns = [_csv_column(h, c) for h, c in zip(header, cols)]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sequence_csv(path: str, seq: LogWeightSequence) -> None:
    write_columns_csv(
        path, ("p", "logM"), np.arange(seq.P + 1), seq.L
    )


def read_sequence_csv(path: str) -> LogWeightSequence:
    with open(path) as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "p,logM":
            raise ValueError(f"expected header 'p,logM', got {header!r}")
        ps, vals = [], []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            a, b = line.split(",")
            ps.append(int(a))
            vals.append(float(b))
    if ps != list(range(len(ps))):
        raise ValueError("indices must be 0,1,2,... without gaps")
    return LogWeightSequence(vals, None, 0, path)


def flatten_report(report: dict, prefix: str = "") -> list[tuple[str, str]]:
    """Depth-first (path, scalar) pairs for CSV report export."""
    rows: list[tuple[str, str]] = []
    for k in sorted(report, key=str):
        v = report[k]
        path = f"{prefix}.{k}" if prefix else str(k)
        if isinstance(v, dict):
            rows.extend(flatten_report(v, path))
        elif isinstance(v, (list, tuple)):
            rows.append((path, ";".join(str(x) for x in v)))
        else:
            rows.append((path, str(v)))
    return rows


def write_report_csv(path: str, report: dict) -> None:
    with open(path, "w") as fh:
        fh.write("key,value\n")
        for k, v in flatten_report(report):
            fh.write(f"{json.dumps(k)},{json.dumps(str(v))}\n")
