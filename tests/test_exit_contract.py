"""The exit-code contract, fuzzed in process through ``cli.main``.

Every command on every input ends in exit 0, 2, 3 or 4 with at most one
line on stderr and no warning.  A report, on stdout or in the --out file,
is JSON without NaN or Infinity (RFC 8259), and exit 2 reports nothing.

Inputs are valid setups and generator families, mutated by huge, fractional
or ill-typed entries and dropped keys, with extreme values of every option.
Generic setups with only their level entries replaced reach the report
path, where a level near the integer digit limit must still print or exit 2.
--trials and --samples stay small: their cost grows without bound (see
ROADMAP item 3), which is a budget question, not an exit-code one.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertoric import cli

HUGE_INTS = [10 ** 20, 10 ** 200, 10 ** 400, -10 ** 400]
ODD_VALUES = ["1.5", "1/0", "abc", "", "1e400", "1e5000", True, None, 1.5,
              1e308, [], {}, [1]]
EXTREME_FLOATS = ["5e-324", "1e-300", "1e-30", "0.5", "1", "1e30", "1e100",
                  "1e154", "1e200", "1e300", "1.7e308", "1e400", "0", "-1",
                  "nan", "inf", "-inf"]
SEEDS = [0, 1, 7, -1, 2 ** 32, 2 ** 64, 10 ** 30]
LIMIT = sys.get_int_max_str_digits()
# Levels that parse, whose reports print numbers near or past the limit.
NEAR_LIMIT = [f"1e{LIMIT - 1}", f"99e{LIMIT - 1}", f"1e{LIMIT // 2}",
              f"1e-{LIMIT // 2}", f"-7e-{LIMIT - 1}"]
GENERIC_SETUPS = [
    {"weights": [[1], [1], [1]], "alpha": ["-2"], "beta": [["1", "1"]]},
    {"weights": [[1, 0], [0, 1], [1, 1], [1, -1]], "alpha": ["-2", "1"],
     "beta": [["1", "-2"], ["-1", "1"]]},
]

odd = st.sampled_from(ODD_VALUES + HUGE_INTS)
level = st.one_of(st.integers(-3, 3).map(str),
                  st.tuples(st.integers(-7, 7), st.integers(1, 4)).map(
                      lambda p: f"{p[0]}/{p[1]}"))
extreme_float = st.one_of(st.sampled_from(EXTREME_FLOATS),
                          st.floats(allow_nan=False).map(repr))


@st.composite
def mutated(draw, value):
    """``value`` with up to two entries, anywhere in it, replaced by odd
    values or dropped."""
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        paths, stack = [], [((), value)]
        while stack:
            path, item = stack.pop()
            children = (item.items() if isinstance(item, dict)
                        else enumerate(item) if isinstance(item, list) else ())
            for key, child in children:
                paths.append(path + (key,))
                stack.append((path + (key,), child))
        if not paths:
            break
        *head, last = draw(st.sampled_from(paths))
        parent = value
        for key in head:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = copy.deepcopy(draw(odd))  # shared lists stay intact
    return value


@st.composite
def setups(draw):
    d = draw(st.integers(0, 2))
    n = draw(st.integers(max(d, 1), d + 3))
    setup = {"weights": draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=d, max_size=d),
        min_size=n, max_size=n))}
    if draw(st.booleans()):
        setup["alpha"] = draw(st.lists(level, min_size=d, max_size=d))
    if draw(st.booleans()):
        setup["beta"] = draw(st.lists(st.lists(level, min_size=2, max_size=2),
                                      min_size=d, max_size=d))
    return draw(mutated(setup))


@st.composite
def generic_setups(draw):
    """A generic setup with one or two level entries replaced by an odd
    value, a level near the digit limit or another level: most stay
    generic, so the value reaches the report."""
    setup = copy.deepcopy(draw(st.sampled_from(GENERIC_SETUPS)))
    slots = [(setup["alpha"], i) for i in range(len(setup["alpha"]))]
    slots += [(pair, j) for pair in setup["beta"] for j in range(2)]
    for _ in range(draw(st.integers(1, 2))):
        entries, i = draw(st.sampled_from(slots))
        entries[i] = draw(st.one_of(odd, st.sampled_from(NEAR_LIMIT), level))
    return setup


TORUS = {"matrices": [{"re": [[0, 0], [0, 0]], "im": [[1, 0], [0, 1]]},
                      {"re": [[0, 0], [0, 0]], "im": [[1, 0], [0, -1]]}],
         "alpha": [0.5, -0.25]}
SU2 = {"matrices": [{"re": [[0, 0.5], [-0.5, 0]], "im": [[0, 0], [0, 0]]},
                    {"re": [[0, 0], [0, 0]], "im": [[0, 0.5], [0.5, 0]]},
                    {"re": [[0, 0], [0, 0]], "im": [[0.5, 0], [0, -0.5]]}]}


@st.composite
def families(draw):
    """TORUS or SU2 with every matrix entry scaled, then mutated."""
    family = copy.deepcopy(draw(st.sampled_from([TORUS, SU2])))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e-10, 1e10, 1e150, 1e160]))
    for matrix in family["matrices"]:
        for part in ("re", "im"):
            matrix[part] = [[scale * entry for entry in row]
                            for row in matrix[part]]
    return draw(mutated(family))


@st.composite
def requests(draw):
    """(command, input object, options) of one invocation; the option
    "--out" names a kind of path, filled in by the test."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    obj = draw(families() if command == "crossterm"
               else st.one_of(setups(), generic_setups()))
    options = {}
    if draw(st.booleans()):
        options["--seed"] = str(draw(st.one_of(st.sampled_from(SEEDS),
                                               st.integers(0, 1000))))
    if draw(st.booleans()):
        options["--sample-generic"] = True
    options["--out"] = draw(st.sampled_from(
        [None] * 5 + ["file", "directory", "missing-directory"]))
    if command == "flow":
        options["--function"] = draw(st.sampled_from(["muR2", "muC2", "muHK2"]))
        options["--trials"] = str(draw(st.integers(1, 3)))
        for option in ("--radius", "--max-time", "--grad-tol"):
            if draw(st.booleans()):
                options[option] = draw(extreme_float)
    elif command == "crossterm":
        options["--samples"] = str(draw(st.integers(1, 20)))
        if draw(st.booleans()):
            options["--radius"] = draw(extreme_float)
    elif command == "modify":
        rows = obj.get("weights") if isinstance(obj, dict) else None
        size = len(rows) if isinstance(rows, list) else 2
        size = draw(st.sampled_from([size] * 3 + [max(size - 1, 1), size + 1]))
        entries = draw(st.lists(st.one_of(st.integers(-2, 2),
                                          st.sampled_from(HUGE_INTS)),
                                min_size=size, max_size=size))
        options["--column"] = ",".join(map(str, entries))
        if draw(st.booleans()):
            options["--check-recurrence"] = True
    return command, obj, options


def _refuse(name):
    raise ValueError(f"{name} is not JSON")


# Every warning is an error, but for one that Hypothesis's failure report
# raises on import; pytest would otherwise swallow the warnings numpy prints.
@pytest.mark.filterwarnings(
    "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=300, deadline=None)
@given(requests())
def test_every_input_ends_in_a_contract_exit(request):
    command, obj, options = request
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle)
        out_file = os.path.join(tmp, "report.json")
        out = {None: None, "file": out_file, "directory": tmp,
               "missing-directory": os.path.join(tmp, "missing", "report.json")}
        argv = [command, path]
        for option, value in options.items():
            if option == "--out":
                value = out[value]
            if value is True:
                argv.append(option)
            elif value is not None:
                argv.extend([option, value])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        report = stdout.getvalue()
        if os.path.exists(out_file):
            assert report == ""
            with open(out_file, encoding="utf-8") as handle:
                report = handle.read()
    assert code in (0, 2, 3, 4), (argv, stderr.getvalue())
    assert len(stderr.getvalue().splitlines()) <= 1, stderr.getvalue()
    if code == 2:
        assert report == "", report
    if report:
        json.loads(report, parse_constant=_refuse)
