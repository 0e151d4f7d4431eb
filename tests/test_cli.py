"""Command-line contract: descriptors, exit codes, deterministic reports."""

import json
import math
import subprocess
import sys

import pytest

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


@pytest.mark.parametrize("argv", [
    ["analyze", "--weight", "powerlog:0.5"],
    ["analyze", "--weight", "rootpower:0"],
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
])
def test_out_of_domain_descriptor_value_is_exit_2(argv):
    res = subprocess.run(
        [sys.executable, "-m", "wcalc.cli", *argv], capture_output=True
    )
    assert res.returncode == 2
    assert b"Traceback" not in res.stderr
    assert res.stderr.startswith(b"error: ")


def test_file_matrix_without_rows_is_exit_2(tmp_path, capsys):
    desc = tmp_path / "empty.json"
    desc.write_text(json.dumps({"labels": [], "rows": {}}))
    assert main(["matrix", "conditions", "--matrix", f"file:{desc}"]) == 2
    assert "no rows" in capsys.readouterr().err


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


def test_tiny_rootpower_exponent_gives_log_witness(tmp_path):
    # 2**ceil(1/alpha) is past the float range, so H is reported as log_H
    code, rep = run(["analyze", "--weight", "rootpower:1e-300"], tmp_path)
    assert code == 0
    omega6 = rep["weight"]["omega6"]
    assert omega6["status"] == "holds"
    assert omega6["witness"]["log_H"] == pytest.approx(1e300 * math.log(2))
    code, rep = run(["analyze", "--weight", "rootpower:1e-3"], tmp_path)
    assert rep["weight"]["omega6"]["witness"] == {"H": 2.0 ** 1000}


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


def test_precondition_failure_is_exit_3(tmp_path):
    # a p! row carries no certified tail bound, so construction must refuse
    code = main(
        ["quasi", "construct", "--rows", "1+0*q:q=1..2", "--pmax", "200",
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 3


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
