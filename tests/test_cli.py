"""End-to-end tests of the command-line interface via subprocess."""

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_reference import build_parser
from hypertoric import cli, errors
from hypertoric.errors import (InsufficientTail, InvariantViolation,
                               NonGenericAlpha, RankDeficient)

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


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "hypertoric", *args],
                          capture_output=True, text=True, cwd=cwd)


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


def test_flow_refuses_a_non_generic_level(tmp_path):
    path = write_json(tmp_path, "pair.json", dict(PAIR, beta=[["0", "0"]]))
    proc = run_cli("flow", path, "--trials", "2")
    assert proc.returncode == 3
    report = json.loads(proc.stdout)
    assert report["error"]["type"] == "NonGenericBeta"
    assert "witness" in report["error"]
    proc = run_cli("flow", path, "--trials", "2", "--sample-generic")
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)) == 2


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


@pytest.mark.parametrize("command, text", [
    ("census", '{"weights": ' + "[" * 100_000 + "]" * 100_000 + "}"),
    ("crossterm", '{"matrices": [{"re": ' + "[" * 900 + "0" + "]" * 900
     + ', "im": [[0]]}]}'),
], ids=["beyond-the-json-reader", "beyond-numpy-dimensions"])
def test_deeply_nested_json_is_input_error(tmp_path, command, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    proc = run_cli(command, str(path))
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr


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
SU2 = {"matrices": [{"re": [[0, 0.5], [-0.5, 0]], "im": [[0, 0], [0, 0]]},
                    {"re": [[0, 0], [0, 0]], "im": [[0, 0.5], [0.5, 0]]},
                    {"re": [[0, 0], [0, 0]], "im": [[0.5, 0], [0, -0.5]]}]}


@pytest.mark.parametrize("command, obj, flags", [
    ("analyze", {"weights": [[1], [1]], "alpha": 5}, ()),
    ("analyze", {"weights": [[1], [1]], "beta": 3}, ()),
    ("crossterm", dict(TORUS_MATS, alpha=["abc"]), ()),
    ("crossterm", NAN_GENERATOR, ()),
    ("flow", PAIR, ("--radius", "nan")),
    ("flow", PAIR, ("--radius", "inf")),
    ("crossterm", TORUS_MATS, ("--radius", "nan")),
    ("flow", PAIR, ("--trials", "-1")),
    ("flow", PAIR, ("--grad-tol", "nan")),
    ("flow", PAIR, ("--grad-tol", "-1")),
    ("flow", PAIR, ("--grad-tol", "0")),
    ("flow", PAIR, ("--max-time", "-5")),
    ("flow", PAIR, ("--max-time", "nan")),
    ("analyze", {"weights": [[1], [1]], "alpha": ["1/0"]}, ()),
    ("analyze", {"weights": [[1], [1]], "beta": [["1/0", "0"]]}, ()),
    ("analyze", {"weights": [[1], [1]], "alpha": [True]}, ()),
    ("flow", dict(PAIR, weights=[[10 ** 400], [1]]), ()),
    ("flow", dict(PAIR, alpha=["1e400"]), ()),
    ("flow", dict(PAIR, beta=[["1e400", "0"]]), ()),
    ("flow", dict(PAIR, weights=[[10 ** 200], [1]]), ("--sample-generic",)),
    ("flow", dict(PAIR, alpha=["1e200"]), ()),
    ("flow", dict(PAIR, beta=[["1e200", "0"]]), ()),
    ("flow", PAIR, ("--seed", "-1")),
    ("flow", PAIR, ("--sample-generic", "--seed", "-1")),
    ("crossterm", TORUS_MATS, ("--seed", "-1")),
    ("flow", {"weights": []}, ()),
    ("flow", {"weights": []}, ("--sample-generic",)),
    ("crossterm", {"matrices": [{"re": [[0]], "im": [[True]]}]}, ()),
    ("crossterm", {"matrices": [{"re": [[0]], "im": [["1"]]}]}, ()),
    ("crossterm", dict(TORUS_MATS, alpha=[True, 0]), ()),
    ("crossterm", dict(TORUS_MATS, alpha=["1", 0]), ()),
    ("crossterm", {"matrices": [{"re": [[10 ** 400]], "im": [[0]]}]}, ()),
    ("bogus", PAIR, ()),
    ("census", PAIR, ("--bogus",)),
    ("flow", PAIR, ("--trials",)),
    ("flow", PAIR, ("--trials", "abc")),
    ("flow", PAIR, ("--function", "bogus")),
    ("modify", PAIR, ()),
    ("census", None, ()),
    ("census", PAIR, ("--sam",)),
    ("census", PAIR, ("--out", ".")),
    ("analyze", PAIR, ("--out", "missing/report.json")),
    ("census", {"weights": [[1], [1]], "alpha": ["0"]}, ("--out", ".")),
    ("crossterm", SU2, ("--radius", "1e300", "--samples", "5")),
    ("crossterm", SU2, ("--radius", "1e100", "--samples", "5")),
    ("flow", PAIR, ("--radius", "1e300")),
    ("flow", PAIR, ("--radius", "1e100", "--function", "muHK2")),
    ("flow", PAIR, ("--radius", "1.7e308")),
    ("flow", {"weights": [[0, 1], [1, 10 ** 20]]}, ("--sample-generic",)),
    ("crossterm", {"matrices": [{"re": [[0]], "im": [[1e200]]}]}, ()),
    ("crossterm", {"matrices": [{"re": [[0]], "im": [[1e308]]}]}, ()),
], ids=["alpha-scalar", "beta-scalar", "crossterm-alpha-text",
        "nan-generator", "flow-radius-nan", "flow-radius-inf",
        "crossterm-radius-nan", "flow-negative-trials",
        "flow-grad-tol-nan", "flow-grad-tol-negative", "flow-grad-tol-zero",
        "flow-max-time-negative", "flow-max-time-nan",
        "alpha-zero-denominator", "beta-zero-denominator", "alpha-bool",
        "flow-weight-beyond-float", "flow-alpha-beyond-float",
        "flow-beta-beyond-float", "flow-weight-square-beyond-float",
        "flow-alpha-square-beyond-float", "flow-beta-square-beyond-float",
        "flow-negative-seed", "flow-sampled-negative-seed",
        "crossterm-negative-seed", "flow-no-rows", "flow-sampled-no-rows",
        "crossterm-bool-entry", "crossterm-string-entry",
        "crossterm-alpha-bool", "crossterm-alpha-string",
        "crossterm-entry-beyond-float", "unknown-command", "unknown-option",
        "missing-value", "non-integer-value", "value-outside-choices",
        "modify-without-column", "no-input-path", "abbreviated-option",
        "out-is-a-directory", "out-in-a-missing-directory",
        "error-payload-out-is-a-directory", "crossterm-radius-overflow",
        "crossterm-radius-square-overflow", "flow-radius-overflow",
        "flow-muHK2-radius-overflow", "flow-start-overflow",
        "flow-gram-singular-in-floats", "crossterm-entry-square-overflow",
        "crossterm-entry-near-float-max"])
def test_bad_input_exits_2_with_one_line(tmp_path, command, obj, flags):
    paths = [] if obj is None else [write_json(tmp_path, "input.json", obj)]
    proc = run_cli(command, *paths, *flags, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        [] if obj is None else ["input.json"])


def test_modify_refuses_a_setup_whose_extension_is_too_large(tmp_path):
    path = write_json(tmp_path, "wide.json", {"weights": [[1]] * 14})
    proc = run_cli("modify", path, "--column", ",".join(["1"] + ["0"] * 13))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("EnumerationTooLarge: modify ")
    assert "at most 13 rows" in proc.stderr


@pytest.mark.parametrize("error, code", [
    (RankDeficient("broken on purpose"), 2),
    (NonGenericAlpha(("pairing", (0,), 1)), 3),
    (InvariantViolation("broken on purpose"), 4),
    (InsufficientTail("broken on purpose"), 4),
], ids=["RankDeficient", "NonGenericAlpha", "InvariantViolation",
        "InsufficientTail"])
def test_invariant_violation_exits_4(tmp_path, monkeypatch, capsys, error,
                                     code):
    def broken(setup):
        raise error

    monkeypatch.setattr(cli.arrangement, "face_census", broken)
    path = write_json(tmp_path, "cp2.json", CP2)
    assert cli.main(["census", path]) == code
    out, err = capsys.readouterr()
    assert err == f"{type(error).__name__}: {error}\n"
    if code == 2:
        assert out == ""
        return
    payload = json.loads(out)["error"]
    assert payload.pop("type") == type(error).__name__
    assert payload.pop("message") == str(error)
    if code == 3:
        assert payload.pop("witness") == {"kind": "pairing", "flat": [1],
                                          "weight": 2}
    assert payload == {}


def test_a_non_finite_report_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "cross_term_stats",
                        lambda *args, **kwargs: {"max_abs": float("nan")})
    assert cli.main(["crossterm", write_json(tmp_path, "mats.json",
                                             TORUS_MATS)]) == 4
    out, err = capsys.readouterr()
    assert json.loads(out)["error"]["type"] == "InvariantViolation"
    assert err.startswith("InvariantViolation: the report holds a non-finite")


# The exit code of every class in errors.py.  The classes the command line
# raises keep the codes they had when cli.py sorted them into lists.
EXIT_CODES = {
    "HypertoricError": 4, "InputError": 2, "DimensionMismatch": 2,
    "RankDeficient": 2, "EnumerationTooLarge": 2, "NonGeneric": 3,
    "CircleInsideTorus": 3, "NonGenericBeta": 3, "NonGenericAlpha": 3,
    "SamplingExhausted": 3, "DegenerateNormal": 3, "NotSimple": 3,
    "NonZeroRemainder": 4, "InvariantViolation": 4, "PartitionViolation": 4,
    "NonFiniteState": 4, "InsufficientTail": 4,
}


def test_every_error_class_has_its_exit_code():
    classes = {name: value for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__}
    assert {name: cls.exit_code for name, cls in classes.items()} == EXIT_CODES


@pytest.mark.parametrize("flags", [[], ["--sample-generic"]])
def test_analyze_decides_each_level_once(tmp_path, capsys, flags):
    from hypertoric import cli, torus

    path = write_json(tmp_path, "cp2.json", CP2)
    torus._alpha_witness.cache_clear()
    torus._beta_witness.cache_clear()
    assert cli.main(["analyze", path, *flags]) == 0
    assert json.loads(capsys.readouterr().out)["sampled_generic"] is False
    assert torus._alpha_witness.cache_info().misses == 1
    assert torus._beta_witness.cache_info().misses == 1
    # critical_components checks beta again and reads the cached decision
    assert torus._beta_witness.cache_info().hits >= 1


def test_help_exits_0_and_lists_every_option():
    proc = run_cli("--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: hypertoric COMMAND INPUT")
    for command, (_, _, own) in cli.COMMANDS.items():
        assert command in proc.stdout
        for option in [*own, *cli._SHARED]:
            assert option in proc.stdout
    proc = run_cli("flow", "input.json", "-h")
    assert proc.returncode == 0, proc.stderr
    assert "--trials" in proc.stdout and "--column" not in proc.stdout


def test_argument_parsing_imports_no_argparse(tmp_path):
    path = write_json(tmp_path, "pair.json", PAIR)
    out = str(tmp_path / "report.json")
    code = ("import json, sys\n"
            "from hypertoric.cli import main\n"
            f"code = main(['census', {path!r}, '--out', {out!r}])\n"
            "print(json.dumps([code, sorted({'argparse', 'gettext', 'locale'}"
            " & set(sys.modules))]))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


# Values both parsers read alike: argparse takes a value after a space only
# if it does not start with "-" or reads as a negative decimal number.
_WORDS = st.from_regex(r"[a-z0-9,./_][a-z0-9,./_=-]{0,6}", fullmatch=True)
_INTS = st.integers(-10 ** 6, 10 ** 6).map(str)
_FLOATS = st.one_of(
    st.tuples(st.integers(-999, 999), st.integers(0, 999)).map(
        lambda p: f"{p[0]}.{p[1]}"),
    st.sampled_from(["1e6", "2.5e-3", "nan", "inf", "0"]))


def _values(kind):
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    return {int: _INTS, float: _FLOATS, str: _WORDS}[kind]


@st.composite
def valid_argv(draw):
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    options = {**cli._SHARED, **cli.COMMANDS[command][2]}
    names = sorted(options)
    if command == "modify":  # --column is required
        names.remove("--column")
    tokens = [[token] for token in draw(st.lists(st.sampled_from(names),
                                                 max_size=6))]
    if command == "modify":
        tokens.append(["--column"])
    for token in tokens:
        kind = options[token[0]][0]
        if kind is bool:
            continue
        value = draw(_values(kind))
        if draw(st.booleans()):
            token[0] += "=" + value
        else:
            token.append(value)
    tokens = draw(st.permutations(tokens))
    at = draw(st.integers(0, len(tokens)))
    argv = [command]
    for token in tokens[:at] + [[draw(_WORDS)]] + tokens[at:]:
        argv.extend(token)
    return argv


def _fields(namespace):
    fields = dict(vars(namespace), fn=namespace.fn.__name__)
    return {key: repr(value) for key, value in fields.items()}


@settings(max_examples=300, deadline=None)
@given(valid_argv())
def test_parse_args_matches_the_argparse_reference(argv):
    assert _fields(cli.parse_args(argv)) == _fields(
        build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["flow", "in.json", "--seed", "-1", "--radius=-2.5"],
    ["modify", "--column=-1,2", "in.json", "--check-recurrence"],
    ["flow", "--trials", "3", "in.json", "--trials=5", "--function=muHK2"],
])
def test_parse_args_reads_negative_and_repeated_values(argv):
    assert _fields(cli.parse_args(argv)) == _fields(
        build_parser().parse_args(argv))
