"""Command-line contract: descriptors, exit codes, deterministic reports."""

import ast
import contextlib
import io
import itertools
import json
import math
import pathlib
import resource
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wcalc import sequences
from wcalc.cli import main
from wcalc.serialize import dumps_canonical, read_sequence_csv, write_sequence_csv
from wcalc.sequences import LogWeightSequence


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_analyze_gevrey2_all_hold(tmp_path):
    code, rep = run(["analyze", "--seq", "gevrey:2", "--pmax", "200"], tmp_path)
    assert code == 0
    seq = rep["sequence"]
    for cond in ("lc", "mg", "nq", "beta3"):
        assert seq[cond]["status"] == "holds", cond


def test_analyze_weight_powerlog(tmp_path):
    code, rep = run(["analyze", "--weight", "powerlog:2"], tmp_path)
    assert code == 0
    assert rep["weight"]["omega6"]["status"] == "fails"


def test_parse_error_is_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("p,logM\n0,0\n2,1\n1,0.5\n")
    code = main(["analyze", "--seq", f"file:{bad}"])
    assert code == 2
    assert main(["analyze", "--seq", "nosuchfamily:1"]) == 2
    assert main(["analyze", "--seq", "gevrey"]) == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "--seq", "file:{missing}"],
    ["matrix", "conditions", "--matrix", "file:{missing}"],
    # an --out that cannot be written
    ["analyze", "--seq", "gevrey:2", "--out", "{missing}/r.json"],
    ["analyze", "--seq", "gevrey:2", "--format", "csv", "--out", "{missing}/r.csv"],
    ["quasi", "construct", "--rows", "1+1/q:q=1..2", "--pmax", "2000",
     "--out", "{missing}/r.json"],
])
def test_missing_descriptor_file_is_exit_2(tmp_path, argv):
    missing = str(tmp_path / "missing.json")
    res = subprocess.run(
        [sys.executable, "-m", "wcalc.cli", *(a.format(missing=missing) for a in argv)],
        capture_output=True,
    )
    assert res.returncode == 2
    assert b"Traceback" not in res.stderr
    assert b"missing.json" in res.stderr


_MALFORMED = {
    "not-json.json": "{\"family\": \"gevrey\", ",
    "unknown-keyword.json": json.dumps({"family": "gevrey", "s": 2.0, "sigma": 1.0}),
    "list.json": json.dumps([{"family": "gevrey", "s": 2.0}]),
    "no-family.json": json.dumps({"s": 2.0}),
    "bad-value.json": json.dumps({"family": "gevrey", "s": "two"}),
    "unknown-row-family.json": json.dumps(
        {"labels": [1], "rows": {"1": {"family": "nosuch", "s": 1.0}}}),
    "no-labels.json": json.dumps({"rows": {"1": {"family": "gevrey", "s": 1.0}}}),
    "missing-row.json": json.dumps(
        {"labels": [1, 2], "rows": {"1": {"family": "gevrey", "s": 1.0}}}),
    "row-list.json": json.dumps({"labels": [1], "rows": [{"family": "gevrey", "s": 1.0}]}),
    "unordered.json": json.dumps({"labels": [2, 1], "rows": {
        "1": {"family": "gevrey", "s": 1.0}, "2": {"family": "gevrey", "s": 2.0}}}),
}


@pytest.mark.parametrize("argv", [
    *(["analyze", "--seq", f"file:{{dir}}/{name}"]
      for name in ("not-json.json", "unknown-keyword.json", "list.json",
                   "no-family.json", "bad-value.json")),
    *(["matrix", "conditions", "--matrix", f"file:{{dir}}/{name}"]
      for name in ("not-json.json", "list.json", "unknown-row-family.json",
                   "no-labels.json", "missing-row.json", "row-list.json",
                   "unordered.json")),
    ["fourier", "harness", "--matrix", "file:{dir}/unknown-keyword.json"],
], ids=lambda argv: f"{argv[0]}-{argv[-1].rsplit('/', 1)[-1]}")
def test_malformed_descriptor_file_is_exit_2(tmp_path, argv):
    for name, text in _MALFORMED.items():
        (tmp_path / name).write_text(text)
    res = subprocess.run(
        [sys.executable, "-m", "wcalc.cli", *(a.format(dir=tmp_path) for a in argv)],
        capture_output=True,
    )
    assert res.returncode == 2
    assert b"Traceback" not in res.stderr
    assert res.stderr.startswith(b"error: ")


def test_file_descriptors_build_rows_through_one_reader(tmp_path):
    # a JSON sequence and a JSON matrix row accept the same keys
    row = {"family": "gevrey", "s": 2.0, "pmax": 100, "label": "two"}
    (tmp_path / "g2.json").write_text(json.dumps(row))
    (tmp_path / "m.json").write_text(json.dumps({"labels": [1, 2], "rows": {
        "1": {"family": "gevrey", "s": 1.0}, "2": row}}))
    code, rep = run(["analyze", "--seq", f"file:{tmp_path}/g2.json"], tmp_path)
    assert code == 0
    assert (rep["sequence"]["label"], rep["sequence"]["P"]) == ("two", 100)
    code, rep = run(["matrix", "conditions", "--matrix", f"file:{tmp_path}/m.json"], tmp_path)
    assert code == 0 and rep["L_roumieu"]["status"] in ("holds", "fails", "inconclusive")


@pytest.mark.parametrize("argv", [
    ["analyze", "--weight", "powerlog:0.5"],
    ["analyze", "--seq", "power_index:1,1e300"],
    ["analyze", "--weight", "rootpower:0"],
    ["analyze", "--weight", "rootpower:1e-300,1e-300"],
    ["matrix", "dossier", "--weight", "rootpower:1e-300,1e-300"],
    ["analyze", "--weight", "powerlog:nan"],
    ["analyze", "--weight", "powerlog:inf"],
    ["analyze", "--weight", "powerlog:"],
    ["matrix", "conditions", "--gevrey", "0"],
    ["matrix", "conditions", "--gevrey", "2,2"],
    ["matrix", "conditions", "--gevrey", "nan"],
    ["fourier", "harness", "--gevrey", "0"],
    ["matrix", "chain", "--gevrey", "2", "--steps", "0"],
    ["matrix", "chain", "--gevrey", "2", "--steps", "nan"],
    ["matrix", "chain", "--gevrey", "2", "--steps", "-1"],
    ["fourier", "harness", "--gevrey", "2", "--bump-depth", "0"],
    ["fourier", "harness", "--gevrey", "2", "--bump-depth", "-1"],
    ["quasi", "construct", "--rows", "1/0:q=1..2"],
    ["quasi", "construct", "--rows", "1+1/q:q=1..1"],
    ["quasi", "construct", "--rows", "1+1/q:q=3..1"],
    ["quasi", "construct", "--rows", "().__class__:q=1..2"],
    ["quasi", "construct", "--rows", "__import__('os'):q=1..2"],
    ["quasi", "construct", "--rows", "q.__class__:q=1..2"],
    ["matrix", "conditions", "--gevrey", ","],
    ["matrix", "stability", "--gevrey", ","],
    ["matrix", "chain", "--gevrey", ","],
    ["fourier", "harness", "--gevrey", ","],
    # one weight parameter too many
    ["matrix", "dossier", "--weight", "rootpower:1,2,7"],
    ["analyze", "--weight", "powerlog:2,3"],
    # a prefix too short for perturbed_gevrey's dent on p = 3..9
    ["analyze", "--seq", "perturbed_gevrey:2", "--pmax", "8"],
    ["quasi", "verdict", "--seq", "perturbed_gevrey:2", "--pmax", "5"],
    ["matrix", "dossier", "--seq", "perturbed_gevrey:2", "--pmax", "9"],
])
def test_out_of_domain_descriptor_value_is_exit_2(argv):
    res = subprocess.run(
        [sys.executable, "-m", "wcalc.cli", *argv], capture_output=True
    )
    assert res.returncode == 2
    assert b"Traceback" not in res.stderr
    assert res.stderr.startswith(b"error: ")
    # an OverflowError names the family, not its errno
    assert b"Numerical result out of range" not in res.stderr


@pytest.mark.parametrize("argv, option", [
    (["matrix", "compare"], "--left"),
    (["matrix", "compare", "--right", "gevrey:2"], "--left"),
    (["matrix", "compare", "--left", "gevrey:2"], "--right"),
    (["quasi", "verdict"], "--seq"),
    (["quasi", "construct"], "--rows"),
])
def test_missing_required_option_is_exit_2(argv, option):
    res = subprocess.run(
        [sys.executable, "-m", "wcalc.cli", *argv], capture_output=True, text=True
    )
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error: ") and option in res.stderr


def test_overflowing_dent_is_exit_0_without_a_warning():
    res = subprocess.run(
        [sys.executable, "-m", "wcalc.cli", "analyze", "--seq", "perturbed_gevrey:2,1e300"],
        capture_output=True,
    )
    assert res.returncode == 0
    assert b"Warning" not in res.stderr
    assert json.loads(res.stdout)["sequence"]["label"]


def test_storage_past_the_address_space_is_exit_3():
    # the row of 3e8 + 1 values does not fit in 1.2 GB of address space;
    # the limit is set in the child, so it acts on the child alone
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_200_000 * 1024,) * 2)

    res = subprocess.run(
        [sys.executable, "-m", "wcalc.cli", "analyze", "--seq", "gevrey:2",
         "--pmax", "300000000"],
        capture_output=True, text=True, preexec_fn=limit,
    )
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("precondition failure: StorageExceeded: ")
    assert res.stderr.count("\n") == 1 and res.stderr.endswith("\n")
    assert res.stdout == ""


def test_file_matrix_without_rows_is_exit_2(tmp_path, capsys):
    desc = tmp_path / "empty.json"
    desc.write_text(json.dumps({"labels": [], "rows": {}}))
    assert main(["matrix", "conditions", "--matrix", f"file:{desc}"]) == 2
    assert "no rows" in capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason="flatten_report expands dicts only, and the "
                   "dossier's verdicts are Verdict objects; the battery's golden "
                   "digests record these bytes, so the fix waits for a re-record")
def test_csv_dossier_flattens_its_verdicts(capsys):
    assert main(["matrix", "dossier", "--seq", "gevrey:2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "verdicts.mg.status,holds" in out.splitlines()
    assert "Verdict(" not in out


def test_tiny_rootpower_dossier_reports_log_constants(tmp_path):
    # exp of the root-gap constant C1 is past the float range
    code, rep = run(["matrix", "dossier", "--weight", "rootpower:0.001"], tmp_path)
    assert code == 0
    assert '"log_C1"' in json.dumps(rep)


def _constants(node, names=("C1", "log_C1")):
    if isinstance(node, dict):
        for k, v in node.items():
            if k in names:
                yield v
            yield from _constants(v, names)
    elif isinstance(node, list):
        for v in node:
            yield from _constants(v, names)


def test_overflowing_tail_samples_give_finite_root_gap_constants():
    # the omega-matrix rows' tails overflow far out; the sampled root-gap
    # sup skips those points instead of reporting C1 = inf (or nan)
    res = subprocess.run(
        [sys.executable, "-m", "wcalc.cli", "matrix", "dossier",
         "--weight", "rootpower:1e-300"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert res.stderr == ""
    values = list(_constants(json.loads(res.stdout)))
    assert len(values) >= 6
    for v in values:
        assert isinstance(v, float) and math.isfinite(v), v
    assert sum(1 for _ in _constants(json.loads(res.stdout), ("log_C1",))) == 3


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for v in node:
            yield from _numbers(v)
    elif isinstance(node, float):
        yield node


@pytest.mark.parametrize("argv", [
    ["analyze", "--seq", "power_index:1,101"],
    ["matrix", "compare", "--left", "power_index:1,60", "--right", "gevrey:2"],
    ["matrix", "dossier", "--weight", "powerlog:1.01"],
    ["matrix", "dossier", "--weight", "powerlog:1.02"],
    ["matrix", "dossier", "--weight", "powerlog:1.0000000001"],
    # a stepped row of it passes the float range when divided by its step
    ["matrix", "dossier", "--seq", "power_index:1e300,2", "--pmax", "200"],
])
def test_power_index_past_the_float_range_is_quiet(argv):
    # p**beta passes the float range inside the rows or their tail samples;
    # it counts as inf there, and a row that passes it refuses
    res = subprocess.run(
        [sys.executable, "-m", "wcalc.cli", *argv], capture_output=True, text=True,
    )
    assert res.returncode in (0, 3), res.stderr
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr
    if res.returncode == 0:
        assert not any(math.isnan(v) for v in _numbers(json.loads(res.stdout)))


def test_tiny_rootpower_exponent_gives_log_witness(tmp_path):
    # 2**ceil(1/alpha) is past the float range, so H is reported as log_H
    code, rep = run(["analyze", "--weight", "rootpower:1e-300"], tmp_path)
    assert code == 0
    omega6 = rep["weight"]["omega6"]
    assert omega6["status"] == "holds"
    assert omega6["witness"]["log_H"] == pytest.approx(1e300 * math.log(2))
    code, rep = run(["analyze", "--weight", "rootpower:1e-3"], tmp_path)
    assert rep["weight"]["omega6"]["witness"] == {"H": 2.0 ** 1000}


@pytest.mark.parametrize("family, condition", [
    ("rootpower", "omega1"), ("powerlog", "omega7"),
])
def test_huge_weight_exponent_gives_log_witness(family, condition, tmp_path):
    # C = 2**alpha (omega1) or 2**ceil(sigma) (omega7) is past the float
    # range from 1024 on; below, C keeps every bit of the power
    for x in ("1023", "1024", "2000", "1e300"):
        code, rep = run(["analyze", "--weight", f"{family}:{x}"], tmp_path)
        assert code == 0, x
        u = float(x)
        want = {"log_C": u * math.log(2.0)} if u >= 1024 else {"C": 2.0 ** u}
        witness = rep["weight"][condition]["witness"]
        assert {k: v for k, v in witness.items() if "C" in k} == want, x


@pytest.mark.parametrize("s", ["500", "710", "1e3", "1200", "1e10", "1e300"])
def test_huge_gevrey_index_gives_log_witnesses(s, tmp_path):
    # e**s passes the float range from s = 710 on, 2**s from 1024 on:
    # beta3 then reports log_ratio_limit and the root-series tail bound is
    # taken in log space; below, the witnesses keep every bit
    code, rep = run(["analyze", "--seq", f"gevrey:{s}"], tmp_path)
    assert code == 0
    u = float(s)
    ratio = {"log_ratio_limit": u * math.log(2.0)} if u >= 1024 else {"ratio_limit": 2.0 ** u}
    assert rep["sequence"]["beta3"]["witness"] == {"Q": 2, **ratio}
    code, rep = run(["quasi", "verdict", "--seq", f"gevrey:{s}"], tmp_path)
    assert code == 0


def test_config_records_parsed_argv_and_tolerances(tmp_path):
    out = str(tmp_path / "r.json")
    argv = ["analyze", "--seq", "gevrey:2", "--out", out]
    assert main(argv) == 0
    config = json.loads((tmp_path / "r.json").read_text())["config"]
    assert config["argv"] == argv
    assert sorted(config) == ["argv", "pmax", "tolerances", "version"]
    assert sorted(config["tolerances"]) == [
        "LOG_TOL", "SLOPE_TOL", "TAIL_CONSISTENCY_TOL"
    ]
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--seq", "gevrey:2", "--tol", "1e-9"])
    assert exc.value.code == 2


def test_fourier_config_records_mask_rel(tmp_path):
    from wcalc.fourier import MASK_REL

    code, rep = run(["fourier", "harness", "--gevrey", "1,2", "--bump-depth", "10"], tmp_path)
    assert code == 0
    tolerances = rep["config"]["tolerances"]
    assert sorted(tolerances) == ["LOG_TOL", "MASK_REL", "SLOPE_TOL", "TAIL_CONSISTENCY_TOL"]
    assert tolerances["MASK_REL"] == MASK_REL


def test_precondition_failure_is_exit_3(tmp_path):
    # a p! row carries no certified tail bound, so construction must refuse
    code = main(
        ["quasi", "construct", "--rows", "1+0*q:q=1..2", "--pmax", "200",
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 3


@pytest.mark.parametrize("gevrey", ["300", "709", "1000", "1e10", "1e300", "1,300"])
def test_unresolvable_bump_width_is_exit_3(gevrey):
    # log mu_p passes the float range: the mollifier width 1/mu_p underflows
    res = subprocess.run(
        [sys.executable, "-m", "wcalc.cli", "fourier", "harness", "--gevrey", gevrey],
        capture_output=True,
    )
    assert res.returncode == 3
    assert res.stderr.startswith(b"precondition failure: WidthBudgetExceeded")
    assert b"Traceback" not in res.stderr


def test_not_convex_refusal_is_exit_3_and_short():
    # rounding in the derived l = 0.5 row trips the conjugate's slope check
    res = subprocess.run(
        [sys.executable, "-m", "wcalc.cli", "matrix", "dossier",
         "--seq", "gevrey:3", "--pmax", "1000"],
        capture_output=True,
    )
    assert res.returncode == 3
    assert b"Traceback" not in res.stderr
    assert b"NotConvex" in res.stderr
    assert len(res.stderr) < 1024


def test_prefix_only_dossier_is_honest_not_fatal(tmp_path):
    # no tail certificate: the dossier completes with open verdicts
    code, rep = run(["matrix", "dossier", "--seq", "prefix_only:2"], tmp_path)
    assert code == 0
    assert rep["status"] == "inconclusive"


def test_quasi_verdict(tmp_path):
    code, rep = run(["quasi", "verdict", "--seq", "gevrey:1"], tmp_path)
    assert code == 0 and rep["nq"]["status"] == "fails"
    code, rep = run(["quasi", "verdict", "--seq", "gevrey:2"], tmp_path)
    assert code == 0 and rep["nq"]["status"] == "holds"


def test_quasi_construct_trace(tmp_path):
    code, rep = run(
        ["quasi", "construct", "--rows", "1+1/q:q=1..4", "--pmax", "5000"],
        tmp_path,
    )
    assert code == 0
    assert rep["status"] == "complete"
    assert rep["tail_sum_bound"] <= 1.0
    assert (tmp_path / "out.csv").exists()


def test_unwritable_trace_csv_is_exit_2(tmp_path, capsys):
    # a directory holds the trace's name; the refusal leaves no report behind
    (tmp_path / "out.csv").mkdir()
    code = main(["quasi", "construct", "--rows", "1+1/q:q=1..2", "--pmax", "2000",
                 "--out", str(tmp_path / "out.json")])
    assert code == 2
    assert "out.csv" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
    # and a report that cannot be written leaves no trace behind
    (tmp_path / "r.json").mkdir()
    code = main(["quasi", "construct", "--rows", "1+1/q:q=1..2", "--pmax", "2000",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert not (tmp_path / "r.csv").exists()


def test_matrix_conditions_cli(tmp_path):
    code, rep = run(["matrix", "conditions", "--gevrey", "1,2,3"], tmp_path)
    assert code == 0
    for name in ("mg_roumieu", "L_beurling", "BR_roumieu"):
        assert rep[name]["status"] == "holds"


def test_matrix_chain_identity_cli(tmp_path):
    code, rep = run(
        ["matrix", "chain", "--gevrey", "2", "--steps", "2", "--check-identity"],
        tmp_path,
    )
    assert code == 0
    assert rep["integer_step_identity_error"] <= 1e-9


def test_determinism_byte_identical(tmp_path):
    out = tmp_path / "r.json"
    main(["analyze", "--seq", "gevrey:2", "--out", str(out)])
    first = out.read_bytes()
    main(["analyze", "--seq", "gevrey:2", "--out", str(out)])
    assert out.read_bytes() == first


def test_report_does_not_depend_on_rows_built_before(tmp_path):
    # the descriptor builds FactorialPower(2, 1.0) and prints "s": 2; the
    # equal FactorialPower(2.0, 1.0) of gevrey:2 prints "s": 2.0
    desc = tmp_path / "g.json"
    desc.write_text('{"family": "gevrey", "s": 2}')
    out = tmp_path / "r.json"
    argv = ["matrix", "dossier", "--seq", f"file:{desc}", "--out", str(out)]
    res = subprocess.run([sys.executable, "-m", "wcalc.cli", *argv], capture_output=True)
    assert res.returncode == 0
    fresh = out.read_bytes()
    assert type(json.loads(fresh)["input"]["s"]) is int
    sequences._rows.clear()
    other = str(tmp_path / "other.json")
    for before in ([], ["--pmax", "200"]):
        assert main(["matrix", "dossier", "--seq", "gevrey:2", *before, "--out", other]) == 0
        assert main(argv) == 0 and out.read_bytes() == fresh


def test_row_working_set_stays_warm(tmp_path, monkeypatch):
    # 30 matrix ops over 69 distinct rows, more than the 64 rows the memo
    # once held: a second pass in the same process finds every row, and
    # every pseudo-mg constant kept on one, already built
    from wcalc import matrices

    pairs = [",".join(p) for p in itertools.combinations(("1", "1.5", "2", "2.5", "3"), 2)]
    ops = [[*cmd, "--gevrey", idx, "--pmax", pmax]
           for cmd, pmax in ((["matrix", "conditions"], "16000"),
                             (["matrix", "conditions"], "4000"),
                             (["matrix", "stability"], "1000"))
           for idx in pairs]
    counts = {"rows": 0, "grid": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    init = LogWeightSequence.__post_init__
    monkeypatch.setattr(LogWeightSequence, "__post_init__", counted("rows", init))
    monkeypatch.setattr(matrices, "_pseudo_mg_grid_ok",
                        counted("grid", matrices._pseudo_mg_grid_ok))
    sequences._rows.clear()
    out = str(tmp_path / "r.json")
    for _ in range(2):
        counts.update(rows=0, grid=0)
        assert all(main([*argv, "--out", out]) == 0 for argv in ops)
    assert counts == {"rows": 0, "grid": 0}
    assert len(sequences._rows) == 69


def test_closed_stdout_exits_quietly():
    # the reader is gone before the report is written
    for argv in (["matrix", "dossier", "--seq", "gevrey:2", "--format", "csv"],
                 ["analyze", "--seq", "gevrey:2"]):
        proc = subprocess.Popen([sys.executable, "-m", "wcalc.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) in (0, 2, 3, 4)
        assert b"Traceback" not in err and b"BrokenPipeError" not in err, err


def test_console_script_installed():
    res = subprocess.run(
        [sys.executable, "-m", "wcalc.cli", "analyze", "--seq", "gevrey:2"],
        capture_output=True,
    )
    assert res.returncode == 0
    assert b'"status"' in res.stdout


def test_csv_round_trip(tmp_path):
    g = LogWeightSequence.gevrey(2.0, 30)
    path = tmp_path / "g.csv"
    write_sequence_csv(str(path), g)
    back = read_sequence_csv(str(path))
    assert back.P == 30
    assert max(abs(a - b) for a, b in zip(back.log_values, g.log_values)) == 0.0


def test_canonical_json_formatting():
    text = dumps_canonical({"b": 1.0, "a": [0.5, float("inf")], "c": None})
    # keys sorted, floats as numbers, infinities stringified
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert '"inf"' in text and "0.5" in text and "null" in text


def test_csv_report_format(tmp_path):
    out = tmp_path / "r.csv"
    code = main(
        ["analyze", "--seq", "gevrey:2", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "key,value"
    assert any("sequence.nq" in ln for ln in lines)


# -- witness constants past the float range -------------------------------

_kappa = st.floats(min_value=0.0, max_value=4.0, exclude_min=True)
_beta = st.floats(min_value=1.0, max_value=4.0)


@given(_kappa, _beta, st.integers(min_value=50, max_value=4000),
       st.sampled_from(["prefix_only:2", "gevrey:2", "power_index:1,1", "power_index:3,2"]))
@settings(max_examples=25, deadline=None)
def test_power_index_reports_never_overflow(kappa, beta, pmax, other):
    # exp of a log witness constant (2 p^3 at p = 200, say) is past the
    # float range; the report carries log_<name> instead of raising
    seq = f"power_index:{kappa!r},{beta!r}"
    for argv in (["analyze", "--seq", seq],
                 ["matrix", "dossier", "--seq", seq],
                 ["matrix", "compare", "--left", seq, "--right", other],
                 ["matrix", "compare", "--left", other, "--right", seq]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--pmax", str(pmax)])
        assert code in (0, 3), argv


_EDGE_VALUES = (1e-300, 1e-5, 0.5, 1.0, 2.0, 7.0, 1e5, 1e300)
_ANY_SIZE = st.one_of(st.sampled_from(_EDGE_VALUES),
                      st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
_ARITY = {"gevrey": 1, "factorial_power": 2, "power_index": 2}


@given(st.sampled_from([("analyze",), ("matrix", "dossier")]),
       st.sampled_from(sorted(_ARITY)), st.lists(_ANY_SIZE, min_size=2, max_size=2),
       st.sampled_from([200, 1000, 4000, 16000]))
@example(("matrix", "dossier"), "power_index", [1e300, 2.0], 200)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_sequence_reports_keep_the_exit_code_contract(command, family, params, pmax):
    # any parameter size: a report or a typed refusal, and no numpy warning
    seq = f"{family}:" + ",".join(map(repr, params[: _ARITY[family]]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*command, "--seq", seq, "--pmax", str(pmax)])
    assert code in (0, 2, 3, 4), (seq, pmax)
    assert "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (seq, pmax)


# -- the argv fuzz property over the README grammar ------------------------

# out-of-domain values, then valid ones; a list of them repeats labels
_VALUE = st.sampled_from(
    ["0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", "",
     "0.5", "1", "1.5", "2", "3", "7"])
_VALUES = st.lists(_VALUE, max_size=3).map(",".join)


def _family(names):
    return st.tuples(st.sampled_from(names), _VALUES).map(":".join)


_SEQ = _family(["gevrey", "factorial_power", "power_index", "perturbed_gevrey",
                "prefix_only"])
_WEIGHT = _family(["powerlog", "rootpower"])
_ROWS = st.tuples(st.sampled_from(["1+1/q", "1+2/q", "1.5+1/q", "1/q", "q", "-1", "7"]),
                  st.sampled_from(["1..3", "1..2", "1..1", "1..0", "2..3", "3..1", ""]),
                  ).map(lambda t: f"{t[0]}:q={t[1]}")


def _option(name, values):
    """name with a drawn value, or nothing: a missing option."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


_ARGV = st.tuples(
    st.one_of(
        st.tuples(st.just(["analyze"]), _option("--seq", _SEQ), _option("--weight", _WEIGHT)),
        st.tuples(st.sampled_from([["matrix", a] for a in ("conditions", "stability", "chain")]),
                  _option("--gevrey", _VALUES), _option("--steps", _VALUES)),
        st.tuples(st.just(["matrix", "dossier"]), _option("--seq", _SEQ),
                  _option("--weight", _WEIGHT)),
        st.tuples(st.just(["matrix", "compare"]), _option("--left", _SEQ),
                  _option("--right", _SEQ)),
        st.tuples(st.just(["quasi", "verdict"]), _option("--seq", _SEQ)),
        st.tuples(st.just(["quasi", "construct"]), _option("--rows", _ROWS)),
        st.tuples(st.just(["fourier", "harness"]), _option("--gevrey", _VALUES),
                  _option("--bump-depth", st.sampled_from(["0", "1", "5", "10", "30"]))),
    ),
    _option("--pmax", st.sampled_from(["3", "9", "60", "200", "1000"])),
).map(lambda t: [a for part in (*t[0], t[1]) for a in part])


@given(_ARGV)
@example(["analyze", "--seq", "perturbed_gevrey:2", "--pmax", "9"])
@example(["matrix", "chain", "--gevrey", "2", "--steps", "0"])
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_every_argv_keeps_the_exit_code_contract(argv):
    # a report or a typed refusal, never a traceback or a numpy warning;
    # argparse refuses with SystemExit(2), which is the process's exit code
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue(), argv
    assert not caught, (argv, [str(w.message) for w in caught])


@pytest.mark.parametrize("argv, logged", [
    (["analyze", "--seq", "power_index:1000,1"], "log_root_limit"),
    (["matrix", "compare", "--left", "power_index:1000,1", "--right", "power_index:1,1"],
     "log_ratio_limit"),
    (["matrix", "compare", "--left", "power_index:2,3", "--right", "prefix_only:2"],
     "log_prefix_sup"),
    (["matrix", "compare", "--left", "prefix_only:2", "--right", "power_index:2,3"],
     "log_prefix_sup"),
    # the failed pair tests of a search leave no witness in the report
    (["matrix", "conditions", "--matrix", "file:{rows}"], None),
    (["matrix", "stability", "--matrix", "file:{rows}"], None),
])
def test_overflowing_witnesses_are_reported_in_logs(tmp_path, argv, logged):
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps({"labels": [1, 2], "rows": {
        "1": {"family": "power_index", "kappa": 1.0, "beta": 3.0},
        "2": {"family": "power_index", "kappa": 2.0, "beta": 3.0}}}))
    code, rep = run([a.format(rows=rows) for a in argv], tmp_path)
    assert code == 0
    if logged:
        assert f'"{logged}"' in json.dumps(rep)


_VERDICT_CALLS = {"holds", "fails", "inconclusive"}


def _overflowing_witness(v) -> bool:
    """math.exp(...) or a power of two such as 2.0 ** x."""
    if (isinstance(v, ast.Call) and isinstance(v.func, ast.Attribute)
            and isinstance(v.func.value, ast.Name)
            and v.func.value.id == "math" and v.func.attr == "exp"):
        return True
    return (isinstance(v, ast.BinOp) and isinstance(v.op, ast.Pow)
            and isinstance(v.left, ast.Constant) and v.left.value == 2)


def bare_exp_witnesses(path) -> list[str]:
    """Sites where a verdict gets a keyword argument math.exp(...) or
    2.0 ** x: those raise OverflowError past the float range,
    verdicts.exp_witness and verdicts.pow2_witness do not."""
    found = []
    tree = ast.parse(pathlib.Path(path).read_text())
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "verdicts"
                and node.func.attr in _VERDICT_CALLS):
            continue
        for kw in node.keywords:
            if _overflowing_witness(kw.value):
                found.append(f"{pathlib.Path(path).name}:{node.lineno} {kw.arg}")
    return found


def test_bare_witness_check_flags_powers_of_two(tmp_path):
    src = tmp_path / "sites.py"
    src.write_text(
        "a = verdicts.holds(C=2.0 ** alpha)\n"
        "b = verdicts.fails(r=math.exp(x), H=1.0)\n"
        "c = verdicts.holds(C=2 ** math.ceil(s), H=1.0)\n"
        "d = verdicts.holds(**verdicts.pow2_witness('C', alpha), L=2.0 * x)\n"
    )
    assert bare_exp_witnesses(src) == ["sites.py:1 C", "sites.py:2 r", "sites.py:3 C"]


def test_verdict_witnesses_use_exp_witness():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "wcalc"
    sources = sorted(src.glob("*.py"))
    assert len(sources) >= 10
    assert [site for p in sources for site in bare_exp_witnesses(p)] == []
