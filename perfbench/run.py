"""Benchmark of the hypertoric command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives the CLI in a closed loop: one request at a time, each
in a fresh interpreter (perfbench/request.py), so the package's
process-wide caches start empty, as they do for a user.  Every answer is
checked against its reference (see checks.py).  A run makes one pass over
the seed's requests; the workloads are sized so that a pass takes about
S seconds, and no request starts after 4.5 * S seconds (at most 150).

Times are reported at a reference host speed (see request.py), because
this host's speed swings by up to 2x; the wall-clock figures are printed
beside them.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
makes one plain and one traced pass and prints the per-layer metrics,
including the tracing overhead, and writes the spans under
perfbench/out/.  The last line of output is one JSON object: correct,
attempted, failed, metrics.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REQUEST = HERE / "request.py"
MAX_DEADLINE_S = 150.0   # no request starts later; the run must end by 180 s
LAYERS = ("cli", "torus", "flats", "morse", "arrangement", "ringcalc",
          "exact", "flowlab")


class Result:
    """One request's measured outcome.

    A request that produced no measurement (killed at its limit, crashed,
    or never started before the run deadline) counts as failed with the
    workload's limit as its latency.
    """

    def __init__(self, request, raw, failed, reasons, limit_s):
        raw = raw or {}
        self.request = request
        self.import_s = raw.get("import_s_ref")
        self.import_wall_s = raw.get("import_s")
        self.call_s = raw.get("call_s_ref", limit_s)
        self.call_wall_s = raw.get("call_s", limit_s)
        self.maxrss_kb = raw.get("maxrss_kb", 0)
        self.stdout = raw.get("stdout", "")
        self.trace = raw.get("trace")
        self.ops = checks.operations(request)
        self.failed = self.ops if failed is None else failed
        self.reasons = reasons


class Runner:
    def __init__(self, workload, workdir, started, seconds):
        self.workload = workload
        self.workdir = workdir
        self.started = started
        self.deadline_s = min(MAX_DEADLINE_S, 4.5 * seconds)

    def run(self, request, trace_file=None):
        def lost(reason):
            return Result(request, None, None, [reason], self.workload.limit_s)

        elapsed = time.monotonic() - self.started
        if elapsed > self.deadline_s:
            return lost("run deadline passed")
        timeout = min(self.workload.limit_s, 170.0 - elapsed)
        path = self.workdir / f"{request['id']}.json"
        argv = [sys.executable, str(REQUEST), str(trace_file or "-"),
                request["command"], str(path), *request["flags"]]
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return lost(f"passed its {timeout:.0f} s limit")
        try:
            raw = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return lost(f"request process failed: {proc.stderr[-500:]}")
        _, failed, reasons = checks.check(request, raw["exit"], raw["stdout"])
        return Result(request, raw, failed, reasons, self.workload.limit_s)

    def run_pass(self, requests, trace_dir=None):
        out = []
        for request in requests:
            trace_file = trace_dir / f"{request['id']}.json.gz" if trace_dir else None
            out.append(self.run(request, trace_file))
        return out


def tail(values):
    """Value at the highest percentile with at least ten samples above it.

    Returns (value, percentile); with ten samples or fewer no such
    percentile exists and the maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    i = len(ordered) - 11
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(results, wall=False):
    """End-to-end metrics: {name: (value, unit, note)}.

    Times are at the reference host speed, or on the wall clock if wall.
    """
    def call(r):
        return r.call_wall_s if wall else r.call_s

    latencies = [call(r) for r in results]
    imports = [r.import_wall_s if wall else r.import_s
               for r in results if r.import_s is not None]
    tail_value, tail_pct = tail(latencies)
    # On flow an operation is a trial, timed by its ensemble's latency.
    flow = [r for r in results if r.request["command"] == "flow"] or results
    done = sum(r.ops - r.failed for r in flow)
    flow_s = sum(call(r) for r in flow)
    n = len(results)
    return {
        "setup_s": (statistics.median(imports), "s",
                    f"median import of hypertoric.cli, n={len(imports)}"),
        "total_s": (sum(latencies), "s", f"summed latency of n={n} requests"),
        "request_p50_s": (statistics.median(latencies), "s", f"n={n}"),
        "request_tail_s": (tail_value, "s", f"p{tail_pct:.1f} of n={n}"),
        "peak_rss_mb": (max(r.maxrss_kb for r in results) / 1024, "MB",
                        f"largest of n={n} request processes"),
        "ops_per_s": (done / flow_s, "1/s",
                      f"{done} completed operations over {flow_s:.3f} s "
                      "of their latency"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(plain, traced, lines):
    """Per-layer metrics from the traced pass: {name: (value, unit, note)}."""
    names = defaultdict(lambda: [0, 0.0])
    layers, groups, counts = Counter(), Counter(), Counter()
    spans = 0
    for r in traced:
        if not r.trace:
            continue
        for name, (calls, outer) in r.trace["names"].items():
            names[name][0] += calls
            names[name][1] += outer
        layers.update(r.trace["layers"])
        groups.update(r.trace["groups"])
        counts.update(r.trace["counts"])
        spans += r.trace["spans"]

    def calls(name):
        return names[name][0] if name in names else 0

    def seconds(name):
        return names[name][1] if name in names else 0.0

    requests = len(traced)
    energy, grads = calls("flowlab.energy"), calls("flowlab.grad")
    trials, accepted = counts["flowlab.trials"], counts["flowlab.accepted_steps"]
    flow_s = seconds("flowlab.integrate_flow")
    plain_total = sum(r.call_s for r in plain)
    traced_total = sum(r.call_s for r in traced)
    m = {
        "cli.parse_s": (groups["cli.parse"], "s", "build_parser, reading and parsing inputs"),
        "cli.emit_s": (groups["cli.emit"], "s", "serializing and writing reports"),
        "cli.report_bytes": (sum(len(r.stdout) for r in traced), "bytes", ""),
        "torus.sample_generic_s": (seconds("torus.sample_generic"), "s", ""),
        "torus.sample_generic_calls": (calls("torus.sample_generic"), "count", ""),
        "torus.alpha_witness_calls": (calls("torus.alpha_witness"), "count", ""),
        "torus.beta_witness_calls": (calls("torus.beta_witness"), "count", ""),
        "torus.genericity_s": (groups["torus.genericity"], "s",
                               "alpha, beta and simple-arrangement witnesses"),
        "torus.genericity_checks_per_request": (
            _ratio(counts["torus.genericity_checks"], requests), "count",
            f"witness calls outside sampling, over {requests} requests"),
        "flats.enumerate_flats_s": (seconds("flats.enumerate_flats"), "s", ""),
        "flats.flats_count": (counts["flats.flats_count"], "count", "flats enumerated on cache misses"),
        "flats.closure_calls": (calls("flats.closure"), "count", ""),
        "morse.poincare_morse_s": (seconds("morse.poincare_morse"), "s", ""),
        "morse.critical_components_s": (seconds("morse.critical_components"), "s", ""),
        "morse.modification_s": (groups["morse.modification"], "s", "recurrence and case split"),
        "arrangement.face_census_s": (seconds("arrangement.face_census"), "s", ""),
        "arrangement.bounded_regions_calls": (calls("arrangement.bounded_regions"), "count", ""),
        "arrangement.fm_feasible_calls": (calls("arrangement.fm_feasible"), "count", ""),
        "arrangement.fm_feasible_s": (seconds("arrangement.fm_feasible"), "s", ""),
        "arrangement.cone_is_pointed_calls": (calls("arrangement.cone_is_pointed"), "count", ""),
        "arrangement.cone_is_pointed_s": (seconds("arrangement.cone_is_pointed"), "s", ""),
        "arrangement.feasible_ratio": (
            _ratio(counts["arrangement.prefix_feasible"], counts["arrangement.prefix_tests"]),
            "ratio", f"feasible sign-vector prefixes over {counts['arrangement.prefix_tests']} tests"),
        "arrangement.bounded_ratio": (
            _ratio(counts["arrangement.bounded_cells"], calls("arrangement.cone_is_pointed")),
            "ratio", f"bounded cells over {calls('arrangement.cone_is_pointed')} cone tests"),
        "ringcalc.ring_dims_s": (seconds("ringcalc.ring_dims"), "s", ""),
        "ringcalc.circle_dims_s": (seconds("ringcalc.circle_dims"), "s", ""),
        "ringcalc.generators": (counts["ringcalc.generators"], "count", ""),
        "ringcalc.matrix_cells": (counts["ringcalc.matrix_cells"], "count",
                                  "rows x columns summed over degrees"),
        "ringcalc.matrix_cells_above_top": (counts["ringcalc.matrix_cells_above_top"], "count",
                                            "cells in degrees above n - d"),
        "exact.rank_calls": (calls("exact.rank"), "count", ""),
        "exact.rank_s": (seconds("exact.rank"), "s", ""),
        "exact.solve_exact_s": (seconds("exact.solve_exact"), "s", ""),
        "exact.nullspace_s": (seconds("exact.nullspace"), "s", ""),
        "flowlab.integrate_flow_s": (flow_s, "s", f"{trials} trials"),
        "flowlab.accepted_steps": (accepted, "count", ""),
        "flowlab.energy_evals": (energy, "count", ""),
        "flowlab.grad_evals": (grads, "count", ""),
        "flowlab.rejected_halvings": (energy - trials - accepted, "count",
                                      "energy evals - trials - accepted steps"),
        "flowlab.accept_ratio": (_ratio(accepted, energy - trials), "ratio",
                                 f"accepted over {energy - trials} step attempts"),
        "flowlab.us_per_eval": (_ratio(1e6 * flow_s, energy + grads), "us",
                                "integrate_flow time per energy or gradient eval"),
        "flowlab.classify_limit_s": (seconds("flowlab.classify_limit"), "s", ""),
        "flowlab.cross_term_stats_s": (seconds("flowlab.cross_term_stats"), "s", ""),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layers[layer], "s", "span time minus child spans")
    m["src.lines"] = (lines, "lines", "lines of src/**/*.py")
    m["trace.spans"] = (spans, "count", "")
    m["trace.overhead_ratio"] = (_ratio(traced_total, plain_total), "ratio",
                                 f"traced {traced_total:.3f} s over plain {plain_total:.3f} s")
    return m


def dominant_layers(traced):
    """Print the layers and functions with the most self time per group."""
    by_group = defaultdict(Counter)
    funcs = defaultdict(Counter)
    for r in traced:
        if r.trace:
            by_group[r.request["group"]].update(r.trace["layers"])
            for name, (_, outer) in r.trace["names"].items():
                funcs[r.request["group"]][name] += outer
    for group, layers in sorted(by_group.items()):
        total = sum(layers.values()) or 1.0
        top = ", ".join(f"{k} {v / total:.0%}" for k, v in layers.most_common(3))
        heavy = ", ".join(f"{k} {v:.2f}s" for k, v in funcs[group].most_common(6)
                          if not k.startswith("cli."))
        print(f"dominant [{group}] self time: {top}; inclusive: {heavy}")


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def report(metrics):
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()}


def benchmark(workload, seed, seconds, trace, requests=None):
    """Run the workload; return the result object the last line prints."""
    requests = workload.build(seed) if requests is None else requests
    started = time.monotonic()
    workdir = OUT / f"inputs-{workload.name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for request in requests:
            path = workdir / f"{request['id']}.json"
            path.write_text(json.dumps(request["input"]), encoding="utf-8")
        runner = Runner(workload, workdir, started, seconds)
        results = runner.run_pass(requests)
        traced = []
        if trace:
            trace_dir = OUT / f"trace-{workload.name}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            traced = runner.run_pass(requests, trace_dir)
            print(f"spans written to {trace_dir.relative_to(ROOT)}/")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = results + traced
    attempted = sum(r.ops for r in everything)
    failed = sum(r.failed for r in everything)
    for r in everything:
        for reason in r.reasons[:3]:
            print(f"FAILED {r.request['id']}: {reason}")
    print(f"workload {workload.name}: seed {seed}, {len(results)} plain and "
          f"{len(traced)} traced requests in {time.monotonic() - started:.1f} s; "
          f"{workload.why}")
    ops = "flow trials and crossterm requests" if workload.name == "flow" else "requests"
    print(f"failed_ratio = {failed}/{attempted} = {_ratio(failed, attempted):.6g}"
          f"  (operations: {ops})")
    if trace:
        dominant_layers(traced)
        metrics = per_layer(results, traced, src_lines())
    else:
        for name, (value, unit, _) in end_to_end(results, wall=True).items():
            if unit == "s" or name == "ops_per_s":
                print(f"wall clock {name} = {value:.6g} {unit}")
        metrics = end_to_end(results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": report(metrics)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hypertoric" / "cli.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
