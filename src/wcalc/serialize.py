"""Deterministic report and data serialization.

dumps_canonical(obj) writes JSON whose bytes depend only on obj:
floats with 17 significant digits, ".0" on integral ones, nan and +-inf
quoted; dict members ordered stably by str(k), the key printed as str(k);
strings escaped to ASCII; one member per line, two spaces deeper per level;
a Verdict as its to_json().  Nodes are dispatched on exact type: a float or
str inside its container's loop, a Verdict from its fields without a copy,
a list of more than 16 floats formatted by one map over its items.
"""
from __future__ import annotations

import json
from itertools import repeat

import numpy as np

from .sequences import LogWeightSequence
from .verdicts import Verdict


_str = json.encoder.encode_basestring_ascii     # json.dumps(s) for a str s


def _float_str(x: float) -> str:
    s = f"{x:.17g}"
    if "." in s or "e" in s:
        return s
    if "n" in s:                 # nan, inf, -inf are quoted
        return f'"{s}"'
    return s + ".0"


def dumps_canonical(obj) -> str:
    out: list[str] = []
    _encode(obj, "\n", out)
    return "".join(out)


def _encode(obj, pad: str, out: list[str]) -> None:
    """Append the text of obj to out; pad is the start of its last line."""
    t = type(obj)
    if t is float:
        out.append(_float_str(obj))
    elif t is str:
        out.append(_str(obj))
    elif t is dict:
        _encode_dict(obj, pad, out)
    elif t is Verdict:               # the keys of to_json() in sorted order
        inner = pad + "  "
        out.append(f'{{{inner}"reason": {_str(obj.reason)},' if obj.reason else "{")
        out.append(f'{inner}"status": {_str(obj.status.value)}')
        if obj.witness:
            out.append(f',{inner}"witness": ')
            _encode(obj.witness, inner, out)
        out.append(pad + "}")
    elif t is list or t is tuple or t is np.ndarray:
        _encode_list(list(obj), pad, out)
    else:
        _encode_other(obj, pad, out)


def _encode_dict(obj, pad: str, out: list[str]) -> None:
    inner = pad + "  "
    sep = "{" + inner
    for k in sorted(obj, key=str):
        v = obj[k]
        t = type(v)
        if t is float:
            out.append(f"{sep}{_str(str(k))}: {_float_str(v)}")
        elif t is str:
            out.append(f"{sep}{_str(str(k))}: {_str(v)}")
        else:
            out.append(f"{sep}{_str(str(k))}: ")
            _encode(v, inner, out)
        sep = "," + inner
    out.append(pad + "}" if obj else "{}")


def _encode_list(seq: list, pad: str, out: list[str]) -> None:
    inner = pad + "  "
    if len(seq) > 16 and set(map(type, seq)) == {float}:
        texts = list(map(float.__format__, seq, repeat(".17g")))
        # only an integral or non-finite x lacks a "." or "e" at 17 digits
        for i in np.flatnonzero(~(np.floor(seq) < seq)).tolist():
            texts[i] = _float_str(seq[i])
        out.append("[" + inner + ("," + inner).join(texts) + pad + "]")
        return
    sep = "[" + inner
    for v in seq:
        if type(v) is float:
            out.append(sep + _float_str(v))
        else:
            out.append(sep)
            _encode(v, inner, out)
        sep = "," + inner
    out.append(pad + "]" if seq else "[]")


def _encode_other(obj, pad: str, out: list[str]) -> None:
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
        _encode_dict(obj, pad, out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        _encode_list(list(obj), pad, out)
    elif hasattr(obj, "to_json"):
        _encode(obj.to_json(), pad, out)
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
    return list(map(format, vals, repeat(".17g")))


def write_columns_csv(path: str, header: tuple[str, ...], *cols) -> None:
    columns = [_csv_column(h, c) for h, c in zip(header, cols)]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sequence_csv(path: str, seq: LogWeightSequence) -> None:
    write_columns_csv(path, ("p", "logM"), np.arange(seq.P + 1), seq.L)


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
