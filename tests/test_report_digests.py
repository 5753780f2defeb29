"""Every report on the acceptance setups is pinned by digest.

Each case runs ``cli.main`` in process on a setup written to a file, and
hashes its stdout, its stderr and its exit code.  ``report_digests.json``
holds the digests, so a change to any report, exit code or message fails
here.  The cases are ``analyze`` and ``census`` on every catalog setup at
five kinds of level, two sampled and three given, and ``modify`` on
every modification pair, both plain and with ``--check-recurrence
--sample-generic``, and ``analyze --sample-generic`` on one setup of each
shape in ``RING_SHAPES`` with entries in [-9, 9], drawn from a fixed seed:
the wide-entry ring matrices whose deficient ranks the generators'
syzygies prove.  Some
given levels exit 3 with a witness: the zero alpha always, the given
alphas on four setups, and the unit beta with a level collision on two.
After a deliberate report change, regenerate the file with

    PYTHONPATH=src python tests/test_report_digests.py
"""

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypertoric import cli
from hypertoric.exact import int_rank
from test_acceptance import CATALOG, MODIFICATION_PAIRS

DIGESTS = Path(__file__).resolve().parent / "report_digests.json"


def _given(weights):
    d = len(weights[0])
    return {"weights": weights, "alpha": [str(k + 1) for k in range(d)],
            "beta": [[str(2 * k + 1), "0"] for k in range(d)]}


def _unit_beta(weights):
    d = len(weights[0])
    return {"weights": weights, "alpha": [str(k + 1) for k in range(d)],
            "beta": [["1", "0"]] * d}


def _zero_alpha(weights):
    d = len(weights[0])
    return {"weights": weights, "alpha": ["0"] * d,
            "beta": [[str(k + 2), str(5 - k)] for k in range(d)]}


LEVELS = (
    ("sampled", lambda w: {"weights": w}, ["--sample-generic"]),
    ("sampled-seed-3", lambda w: {"weights": w},
     ["--sample-generic", "--seed", "3"]),
    ("given", _given, []),
    ("unit-beta", _unit_beta, []),
    ("zero-alpha", _zero_alpha, []),
)


RING_SHAPES = ((5, 3), (6, 3), (7, 3), (5, 4), (6, 4))


def wide_weights():
    """One n x d setup of each RING_SHAPES shape, entries in [-9, 9], each
    redrawn until it has rank d."""
    rng = random.Random("wide-ring-digests")
    for n, d in RING_SHAPES:
        while True:
            rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(n)]
            if int_rank(rows, d) == d:
                yield rows
                break


def cases():
    """(name, setup object, argv after the input path) for every report."""
    for weights in CATALOG:
        for level, make, flags in LEVELS:
            for command in ("analyze", "census"):
                yield (f"{command} {level} {json.dumps(weights)}",
                       make(weights), [command, "{input}", *flags])
    for weights, column in MODIFICATION_PAIRS:
        argv = ["modify", "{input}", "--column", ",".join(map(str, column))]
        yield (f"modify {json.dumps(weights)} {json.dumps(column)}",
               {"weights": weights},
               [*argv, "--check-recurrence", "--sample-generic"])
        yield (f"modify plain {json.dumps(weights)} {json.dumps(column)}",
               {"weights": weights}, argv)
    for weights in wide_weights():
        yield (f"analyze sampled {json.dumps(weights)}", {"weights": weights},
               ["analyze", "{input}", "--sample-generic"])


def run(setup, argv, directory):
    """Exit code, stdout and stderr of one CLI run."""
    path = Path(directory) / "setup.json"
    path.write_text(json.dumps(setup), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(path) if a == "{input}" else a for a in argv])
    return code, out.getvalue(), err.getvalue()


def digest(setup, argv, directory):
    """sha256 of stdout and stderr, and the exit code, of one CLI run."""
    code, out, err = run(setup, argv, directory)
    return {"exit": code,
            "stdout": hashlib.sha256(out.encode()).hexdigest(),
            "stderr": hashlib.sha256(err.encode()).hexdigest()}


def all_digests():
    with tempfile.TemporaryDirectory() as directory:
        return {name: digest(setup, argv, directory)
                for name, setup, argv in cases()}


def test_reports_match_their_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = all_digests()
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert changed == []
    assert {d["exit"] for d in got.values()} >= {0, 3}


def test_each_refusal_names_its_witness_as_the_report_does():
    # The message of an exit-3 payload names the same 1-based flats and row
    # as its witness field, and the stderr line repeats the message.
    refusals = 0
    with tempfile.TemporaryDirectory() as directory:
        for name, setup, argv in cases():
            code, out, err = run(setup, argv, directory)
            if code != 3:
                continue
            error = json.loads(out)["error"]
            witness = error["witness"]
            if witness["kind"] == "pairing":
                named = f"flat {witness['flat']}, weight {witness['weight']}"
            else:
                named = f"flats {witness['flats']}"
            assert error["message"].endswith(named), name
            assert err == f"{error['type']}: {error['message']}\n", name
            refusals += 1
    assert refusals == 60


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    sys.exit(0)
