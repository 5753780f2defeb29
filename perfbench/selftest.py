"""Smoke test of the benchmark itself, on a tiny slice of each workload.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that every metric the benchmark prints has the name and unit that
BENCHMARK.json declares, that a corrupted reference answer and a wrong
flow limit of each energy are counted as failures, that reversing the
request order leaves the answers unchanged, and that the benchmark refuses to run without the
package source.  Records environment facts in perfbench/out/selftest.json.
"""

import contextlib
import copy
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import checks
import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 0
SLICE = 3
SECONDS = 10


def tiny(name):
    """A few of the workload's cheapest requests."""
    requests = WORKLOADS[name].build(SEED)
    if name == "exact":
        requests = [r for r in requests if r["id"].startswith("catalog-")]
    return requests[:SLICE]


def quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


def check_metric_names():
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in WORKLOADS.values():
            result = quiet(run.benchmark, workload, SEED, SECONDS, trace,
                           tiny(workload.name))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{workload.name} {key}: {got} != {want}"
            assert result["failed"] == 0, f"{workload.name}: {result}"
    print("ok: metric names and units match BENCHMARK.json on every workload")


def check_corrupted_reference():
    workload = WORKLOADS["exact"]
    requests = copy.deepcopy(tiny("exact"))
    expected = requests[0]["expected"]
    key = next(iter(expected))           # a polynomial or a count vector
    expected[key] = expected[key] + [1]
    result = quiet(run.benchmark, workload, SEED, SECONDS, False, requests)
    assert result["failed"] == 1 and not result["correct"], result
    print(f"ok: a corrupted reference answer fails "
          f"({result['failed']}/{result['attempted']})")


def run_requests(workload, requests, orders):
    """Run the requests once per order; return each order's answers by id."""
    workdir = run.OUT / "selftest-inputs"
    workdir.mkdir(parents=True, exist_ok=True)
    for request in requests:
        (workdir / f"{request['id']}.json").write_text(json.dumps(request["input"]))
    try:
        runner = run.Runner(workload, workdir, time.monotonic(), SECONDS)
        return [{r.request["id"]: r for r in runner.run_pass(order)}
                for order in orders(requests)]
    finally:
        shutil.rmtree(workdir)


def check_flow_limits():
    workload = WORKLOADS["flow"]
    for energy in ("muR2", "muC2", "muHK2"):
        request = next(r for r in workload.build(SEED) if energy in r["flags"])
        [answers] = run_requests(workload, [request], lambda rs: [rs])
        res = answers[request["id"]]
        assert res.failed == 0, (energy, res.reasons)
        report = json.loads(res.stdout)
        for shift, fails in ((1e-12, 0), (1e-3, len(report))):
            shifted = [dict(rec, f_limit=rec["f_limit"] + shift) for rec in report]
            _, failed, _ = checks.check(request, 0, json.dumps(shifted))
            assert failed == fails, (energy, shift, failed)
    print("ok: flow limits of every energy are judged by meaning "
          "(1e-12 shift passes, 1e-3 fails)")


def check_order_free():
    requests = tiny("exact")
    first, second = run_requests(WORKLOADS["exact"], requests,
                                 lambda rs: [rs, rs[::-1]])
    for rid, res in first.items():
        assert res.failed == 0 and res.stdout == second[rid].stdout, rid
    print("ok: the requests in reverse order give byte-identical answers")


def check_refuses_without_source():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "exact", "--seed", "0", "--seconds", str(SECONDS)],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"ok: without src/ the benchmark exits {proc.returncode} and prints no result")


def environment():
    import numpy
    facts = {"python": platform.python_version(), "numpy": numpy.__version__,
             "nproc": os.cpu_count(), "machine": platform.machine(),
             "src_lines": run.src_lines()}
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "selftest.json").write_text(json.dumps(facts, indent=2) + "\n")
    print("environment:", json.dumps(facts))


def main():
    environment()
    check_metric_names()
    check_corrupted_reference()
    check_flow_limits()
    check_order_free()
    check_refuses_without_source()


if __name__ == "__main__":
    main()
