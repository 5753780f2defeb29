"""Run every benchmark request on two source trees and compare their bytes.

    python tests/compare_reports.py PARENT_TREE CHANGE_TREE SEED...

For each seed, every request of ``perfbench/workloads.build_exact`` and
``build_flow`` (read from this checkout, which is not written) runs as
``python -m hypertoric COMMAND INPUT FLAGS...`` in a fresh process on each
tree's ``src``, with PYTHONDONTWRITEBYTECODE=1.  Both trees read the same
input file, so a message naming it is the same.  Prints the seed and id of
each request whose exit code, stdout or stderr differ between the trees,
and exits 1 if any differ.  Not a test module: pytest does not collect it.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import build_exact, build_flow  # noqa: E402


def run(tree, request, path):
    """(exit code, stdout, stderr) of one request on one tree's src."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "hypertoric", request["command"], str(path),
         *request["flags"]],
        env=env, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv) -> int:
    if len(argv) < 3:
        print("usage: python tests/compare_reports.py PARENT_TREE CHANGE_TREE "
              "SEED...", file=sys.stderr)
        return 2
    parent, change, seeds = argv[0], argv[1], [int(s) for s in argv[2:]]
    total = differ = 0
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            for request in build_exact(seed) + build_flow(seed):
                path = Path(workdir) / f"{seed}-{request['id']}.json"
                path.write_text(json.dumps(request["input"]), encoding="utf-8")
                total += 1
                if run(parent, request, path) != run(change, request, path):
                    differ += 1
                    print(f"{seed} {request['id']}")
    print(f"{differ} of {total} requests differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
