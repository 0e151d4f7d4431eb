"""Canonical JSON: the encoder against the recursive one it replaced.

dumps_recursive below is the reference: one call per node, floats with 17
significant digits and ".0" on integral ones, nan and +-inf quoted, dict
members sorted stably by str(k), two-space indent, ASCII escapes, and a
Verdict through its to_json().  dumps_canonical must give the same bytes
on every tree, including the trees its fast paths take: exact-type
dispatch, a Verdict written from its fields, and a list of more than 16
floats formatted in one call.
"""

import json
import math
import shlex

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_readme import readme_commands
from wcalc import cli, serialize
from wcalc.catalogue import gevrey
from wcalc.serialize import dumps_canonical
from wcalc.verdicts import Status, Verdict, holds


def float_text(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    s = format(x, ".17g")
    # make sure the token parses as a JSON number
    if "e" not in s and "." not in s and "n" not in s:
        s += ".0"
    return s


def dumps_recursive(obj, indent: int = 0) -> str:
    """The recursive canonical encoder, one call per node."""
    pad = "  " * indent
    pad1 = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return float_text(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ",\n".join(
            f"{pad1}{json.dumps(str(k))}: {dumps_recursive(v, indent + 1)}"
            for k, v in items
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        body = ",\n".join(f"{pad1}{dumps_recursive(v, indent + 1)}" for v in seq)
        return "[\n" + body + "\n" + pad + "]"
    if hasattr(obj, "to_json"):
        return dumps_recursive(obj.to_json(), indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class _Label(str):
    pass


class _Row(tuple):
    pass


class _Table(dict):
    pass


EDGE_CASES = [
    None, True, False, 0, -7, 2 ** 70, np.int64(-3), np.int32(5),
    0.0, -0.0, 1.0, 1e300, -2.5e-310, math.nan, math.inf, -math.inf, 0.1,
    np.float64(1 / 3), np.float32(0.1), np.float64(math.nan), np.float64(-math.inf),
    "", "plain", "quote\" back\\slash\nnewline", "café ω \U0001d4c2",
    _Label("sub"), {}, [], (), np.array([]),
    {"b": 1, "a": [1.0, (2, 3.5)], 3: None, (1, 2): "tuple key", 1.5: -0.0},
    {1: "int one", "1": "str one"},   # equal str keys keep insertion order
    [[], {}, [[]], [{}], ()], (1.0, "x", None, True),
    np.array([1.0, np.nan, -np.inf]), np.array([[1, 2], [3, 4]]),
    np.arange(3, dtype=np.int64), _Row((1.0, 2)), _Table(z=1.0, a=[_Label("y")]),
    holds(C=2.0, at=(1, 2)), {"verdict": holds(x=np.float64(0.5))},
    [1.0, [2.0, [3.0, [4.0, {"deep": [5.0]}]]]],
]


def _nested(obj, depth: int):
    """obj inside depth one-element lists, so its text is padded depth deep."""
    for _ in range(depth):
        obj = [obj]
    return obj


@pytest.mark.parametrize("obj", EDGE_CASES, ids=repr)
@pytest.mark.parametrize("depth", [0, 2])
def test_flat_encoder_matches_recursive(obj, depth):
    obj = _nested(obj, depth)
    assert dumps_canonical(obj) == dumps_recursive(obj)


# floats that print without a "." or an "e" at 17 digits, and the rest
_SPECIAL_FLOATS = [0.0, -0.0, 1.0, -7.0, 1e16, 2.0 ** 60, math.nan, math.inf, -math.inf]
_floats = st.one_of(
    st.sampled_from(_SPECIAL_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e3, 1e3).map(round).map(float),
)
# runs on both sides of the one-call length, some with np.float64 entries
_float_runs = st.one_of(
    st.lists(_floats, max_size=16),
    st.lists(_floats, min_size=17, max_size=60),
    st.lists(st.one_of(_floats, _floats.map(np.float64)), min_size=17, max_size=40),
)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), _floats, _floats.map(np.float64),
    st.text(max_size=6), st.text(max_size=3).map(_Label), _float_runs,
)
_keys = st.one_of(
    st.text(max_size=3), st.text(max_size=3).map(_Label), st.integers(-3, 12),
    st.floats(allow_nan=False), st.tuples(st.integers(0, 2), st.text(max_size=1)),
)


def _verdicts(children):
    return st.builds(
        Verdict,
        st.sampled_from(Status),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
        st.sampled_from(["", "no tail on one side", "quote\" ω"]),
    )


_trees = st.recursive(
    st.one_of(_leaves, _verdicts(_leaves)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_keys, children, max_size=5),
        _verdicts(children),
    ),
    max_leaves=30,
)


@given(_trees, st.integers(0, 3))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_encoder_matches_recursive_on_random_trees(obj, depth):
    obj = _nested(obj, depth)
    assert dumps_canonical(obj) == dumps_recursive(obj)


@pytest.mark.parametrize("obj", [
    object(), {"k": {1, 2}}, [1.0, b"bytes"], np.array(1.0), np.bool_(True),
])
def test_flat_encoder_refuses_what_the_recursive_one_refuses(obj):
    with pytest.raises(TypeError):
        dumps_recursive(obj)
    with pytest.raises(TypeError):
        dumps_canonical(obj)


@pytest.mark.parametrize("argv", readme_commands(), ids=shlex.join)
def test_readme_reports_match_recursive_encoder(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    written = []
    write_report = serialize.write_report

    def capture(path, report):
        text = write_report(path, report)
        written.append((report, text))
        return text

    monkeypatch.setattr(serialize, "write_report", capture)
    assert cli.main(argv) == 0
    capsys.readouterr()
    [(report, text)] = written
    assert text == dumps_recursive(report) + "\n"


# -- column-wise CSV against the row loop it replaced ---------------------

def write_columns_csv_rows(path, header, *cols):
    """The row loop: one float() and format per value."""
    arrs = [np.asarray(c) for c in cols]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*arrs):
            fh.write(
                ",".join(
                    str(int(v)) if float(v).is_integer() and h == "p"
                    else format(float(v), ".17g")
                    for h, v in zip(header, row)
                )
                + "\n"
            )


CSV_COLUMNS = {
    "trace": (("p", "logM"), np.arange(5001), gevrey(2.0, 5000).L),
    "non-integral p": (
        ("p", "logM"),
        np.array([0.0, 0.5, 2.0, -3.0, 1e20, 2.5e-7]),
        np.array([0.0, -0.0, 1 / 3, 1e300, -2.5e-310, 7.0]),
    ),
    "non-finite": (
        ("p", "x", "y"),
        np.array([math.nan, math.inf, -math.inf, 4.0]),
        np.array([math.nan, math.inf, -math.inf, 0.1]),
        np.array([1, -2, 3, 2 ** 40]),
    ),
    "no rows": (("p", "logM"), np.arange(0), np.zeros(0)),
    "ragged": (("p", "logM"), np.arange(4), np.array([1.5, 2.5, 3.5])),
}


@pytest.mark.parametrize("name", CSV_COLUMNS)
def test_column_csv_matches_row_loop(name, tmp_path):
    header, *cols = CSV_COLUMNS[name]
    serialize.write_columns_csv(str(tmp_path / "cols.csv"), header, *cols)
    write_columns_csv_rows(str(tmp_path / "rows.csv"), header, *cols)
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
