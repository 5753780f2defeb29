"""End-to-end tests of the command-line interface via subprocess."""

import json
import subprocess
import sys

import pytest

CP2 = {"weights": [[1], [1], [1]], "alpha": ["1"], "beta": [["3", "0"]]}
PAIR = {"weights": [[1], [1]], "alpha": ["1"], "beta": [["3", "0"]]}
EMPTY_BASE = {"weights": [[], []]}
TORUS_MATS = {
    "matrices": [
        {"re": [[0, 0], [0, 0]], "im": [[1, 0], [0, 1]]},
        {"re": [[0, 0], [0, 0]], "im": [[1, 0], [0, -1]]},
    ],
    "alpha": [0.5, -0.25],
}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hypertoric", *args],
                          capture_output=True, text=True)


def test_analyze_reports_triple_agreement(tmp_path):
    path = write_json(tmp_path, "cp2.json", CP2)
    proc = run_cli("analyze", path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["morse"]["poincare"] == [1, 1, 1]
    assert report["census"]["poincare"] == [1, 1, 1]
    assert report["ring"]["ordinary"][:3] == [1, 1, 1]
    assert report["agreement"]["all"] is True
    assert report["sampled_generic"] is False


def test_analyze_flats_are_one_based(tmp_path):
    path = write_json(tmp_path, "cp2.json", CP2)
    report = json.loads(run_cli("analyze", path).stdout)
    assert [1, 2, 3] in report["flats"]
    assert all(0 not in flat for flat in report["flats"])


def test_analyze_rejects_degenerate_levels_with_witness(tmp_path):
    path = write_json(tmp_path, "zero.json", {"weights": [[1], [1]]})
    proc = run_cli("analyze", path)
    assert proc.returncode == 3
    report = json.loads(proc.stdout)
    assert report["error"]["type"] == "NonGenericAlpha"
    assert report["error"]["witness"]["kind"] == "pairing"


def test_analyze_can_sample_generic_levels(tmp_path):
    path = write_json(tmp_path, "zero.json", {"weights": [[1], [1]]})
    proc = run_cli("analyze", path, "--sample-generic", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["sampled_generic"] is True
    assert report["agreement"]["all"] is True


def test_census_output(tmp_path):
    path = write_json(tmp_path, "pair.json", PAIR)
    proc = run_cli("census", path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"d": [2, 1], "poincare": [1, 1]}


def test_modify_with_recurrence_checks(tmp_path):
    path = write_json(tmp_path, "pair.json", PAIR)
    proc = run_cli("modify", path, "--column", "1,0", "--check-recurrence")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["recurrence"]["holds"] is True
    assert report["census_recurrence"]["holds"] is True
    assert report["polynomials"]["extended"] == [1, 2]
    tri = report["trichotomy"]
    assert len(tri["new_only"]) + len(tri["shared_both"]) + len(
        tri["shared_extended"]) > 0


def test_modify_rejects_spanned_column(tmp_path):
    path = write_json(tmp_path, "pair.json", PAIR)
    proc = run_cli("modify", path, "--column", "1,1")
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"]["type"] == "CircleInsideTorus"


def test_modify_empty_base(tmp_path):
    path = write_json(tmp_path, "empty.json", EMPTY_BASE)
    proc = run_cli("modify", path, "--column", "1,1", "--check-recurrence")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["census_recurrence"]["extended_d"] == [3, 3, 1]
    assert report["recurrence"]["holds"] is True


def test_modify_bad_column_length(tmp_path):
    path = write_json(tmp_path, "pair.json", PAIR)
    proc = run_cli("modify", path, "--column", "1,0,0")
    assert proc.returncode == 2


def test_flow_records(tmp_path):
    path = write_json(tmp_path, "pair.json", PAIR)
    proc = run_cli("flow", path, "--trials", "2", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    records = json.loads(proc.stdout)
    assert len(records) == 2
    for rec in records:
        assert rec["status"] == "Converged"
        assert rec["k_hat"] > 0
        assert rec["J"] is not None
        assert rec["arclength"] <= 1.5 * rec["bound"]


def test_crossterm_abelian(tmp_path):
    path = write_json(tmp_path, "mats.json", TORUS_MATS)
    proc = run_cli("crossterm", path, "--samples", "50", "--seed", "2")
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout)
    assert stats["abelian"] is True
    for pair in stats["pairs"].values():
        assert pair["max_ratio"] < 1e-10


def test_malformed_json_is_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "JSON" in proc.stderr


def test_missing_file_is_input_error(tmp_path):
    proc = run_cli("census", str(tmp_path / "nope.json"))
    assert proc.returncode == 2


def test_max_n_guard(tmp_path):
    path = write_json(tmp_path, "cp2.json", CP2)
    proc = run_cli("analyze", path, "--max-n", "2")
    assert proc.returncode == 2
    assert "max-n" in proc.stderr


def test_out_writes_file(tmp_path):
    path = write_json(tmp_path, "pair.json", PAIR)
    out = tmp_path / "report.json"
    proc = run_cli("census", path, "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert json.loads(out.read_text()) == {"d": [2, 1], "poincare": [1, 1]}


def test_float_levels_rejected(tmp_path):
    path = write_json(tmp_path, "f.json",
                      {"weights": [[1], [1]], "alpha": [0.5]})
    proc = run_cli("census", path)
    assert proc.returncode == 2
    assert "3/4" in proc.stderr


@pytest.mark.parametrize("args", [
    ("analyze",),
    ("flow", "--trials", "2", "--seed", "9"),
])
def test_repeat_runs_are_byte_identical(tmp_path, args):
    path = write_json(tmp_path, "pair.json", PAIR)
    first = run_cli(args[0], path, *args[1:])
    second = run_cli(args[0], path, *args[1:])
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")


NAN_GENERATOR = {"matrices": [{"re": [[0, 0], [0, 0]],
                               "im": [[float("nan"), 0], [0, 1]]}]}


@pytest.mark.parametrize("command, obj, flags", [
    ("analyze", {"weights": [[1], [1]], "alpha": 5}, ()),
    ("analyze", {"weights": [[1], [1]], "beta": 3}, ()),
    ("crossterm", dict(TORUS_MATS, alpha=["abc"]), ()),
    ("crossterm", NAN_GENERATOR, ()),
    ("flow", PAIR, ("--radius", "nan")),
    ("flow", PAIR, ("--radius", "inf")),
    ("crossterm", TORUS_MATS, ("--radius", "nan")),
    ("flow", PAIR, ("--trials", "-1")),
], ids=["alpha-scalar", "beta-scalar", "crossterm-alpha-text",
        "nan-generator", "flow-radius-nan", "flow-radius-inf",
        "crossterm-radius-nan", "flow-negative-trials"])
def test_bad_input_exits_2_with_one_line(tmp_path, command, obj, flags):
    path = write_json(tmp_path, "input.json", obj)
    proc = run_cli(command, path, *flags)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr
