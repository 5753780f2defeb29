"""Every report on the acceptance setups is pinned by digest.

Each case runs ``cli.main`` in process on a setup written to a file, and
hashes its stdout, its stderr and its exit code.  ``report_digests.json``
holds the digests, so a change to any report, exit code or message fails
here.  The cases are ``analyze`` and ``census`` on every catalog setup at
five kinds of level, two sampled and three given, and ``modify
--check-recurrence --sample-generic`` on every modification pair.  Some
given levels exit 3 with a witness: the zero alpha always, the given
alphas on four setups, and the unit beta with a level collision on two.
After a deliberate report change, regenerate the file with

    PYTHONPATH=src python tests/test_report_digests.py
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypertoric import cli
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


def cases():
    """(name, setup object, argv after the input path) for every report."""
    for weights in CATALOG:
        for level, make, flags in LEVELS:
            for command in ("analyze", "census"):
                yield (f"{command} {level} {json.dumps(weights)}",
                       make(weights), [command, "{input}", *flags])
    for weights, column in MODIFICATION_PAIRS:
        yield (f"modify {json.dumps(weights)} {json.dumps(column)}",
               {"weights": weights},
               ["modify", "{input}", "--column", ",".join(map(str, column)),
                "--check-recurrence", "--sample-generic"])


def digest(setup, argv, directory):
    """sha256 of stdout and stderr, and the exit code, of one CLI run."""
    path = Path(directory) / "setup.json"
    path.write_text(json.dumps(setup), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(path) if a == "{input}" else a for a in argv])
    return {"exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


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


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    sys.exit(0)
