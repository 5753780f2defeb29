"""Output checks: every answer is compared with its reference, not trusted.

``check`` returns (operations, failed operations, reasons).  An exact
request is one operation; a flow request is one operation per trial, and
a flow trial is judged by meaning (status, classified flat, limit energy
against the exact critical levels of the energy), never by bytes, so a
rewrite that only reassociates floating-point sums still passes, while a
limit off every critical level fails.
"""

import json
import math

import oracle

LEVEL_TOL = 1e-6


def analyze_answer(report):
    return {"poincare": report["morse"]["poincare"],
            "census_d": report["census"]["d"],
            "ring_ordinary": report["ring"]["ordinary"],
            "ring_circle": report["ring"]["circle"]}


def census_answer(report):
    return {"poincare": report["poincare"], "d": report["d"]}


def modify_answer(report):
    answer = dict(report["polynomials"])
    if "census_recurrence" in report:
        for key in ("base_d", "enlarged_d", "extended_d"):
            answer[key] = report["census_recurrence"][key]
    return answer


def flags_hold(report):
    """Whether every agreement and recurrence flag in the report is true."""
    flags = list(report.get("agreement", {}).values())
    for key in ("recurrence", "census_recurrence"):
        if key in report:
            flags.append(report[key]["holds"])
    return all(flag is True for flag in flags)


ANSWERS = {"analyze": analyze_answer, "census": census_answer,
           "modify": modify_answer}


def operations(request):
    return request["expected"].get("trials", 1)


def check(request, exit_code, stdout):
    ops = operations(request)
    if exit_code != 0:
        return ops, ops, [f"exit code {exit_code}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return ops, ops, [f"unreadable report: {exc}"]
    command = request["command"]
    if command == "flow":
        return check_flow(request, report)
    if command == "crossterm":
        reasons = check_crossterm(request, report)
        return 1, int(bool(reasons)), reasons
    expected = request["expected"]
    try:
        answer = ANSWERS[command](report)
        holds = flags_hold(report)
    except (KeyError, TypeError, AttributeError) as exc:
        return 1, 1, [f"report lacks {exc}"]
    reasons = [f"{key}: got {answer.get(key)}, want {want}"
               for key, want in expected.items() if answer.get(key) != want]
    if not holds:
        reasons.append("an agreement or recurrence flag is false")
    return 1, int(bool(reasons)), reasons


def check_flow(request, report):
    trials = request["expected"]["trials"]
    energy = request["expected"]["energy"]
    setup = request["input"]
    if not isinstance(report, list) or len(report) != trials:
        return trials, trials, ["wrong number of trial records"]
    levels = [float(v) for v in oracle.critical_levels(
        setup["weights"], setup["alpha"], setup["beta"], energy)]
    metric = oracle.Metric(setup["weights"]) if energy == "muC2" else None
    failed, reasons = 0, []
    for rec in report:
        why = _flow_trial_fault(rec, energy, setup, levels, metric)
        if why:
            failed += 1
            reasons.append(f"trial {rec.get('seed')}: {why}")
    return trials, failed, reasons


def _flow_trial_fault(rec, energy, setup, levels, metric):
    if rec.get("status") != "Converged":
        return f"status {rec.get('status')}"
    f_limit = rec.get("f_limit")
    if not isinstance(f_limit, float) or not math.isfinite(f_limit):
        return f"limit energy {f_limit}"
    if energy != "muC2":
        if rec.get("J") is not None:
            return "unexpected classified flat"
        if min(abs(f_limit - level) for level in levels) >= LEVEL_TOL:
            return f"limit {f_limit} is no critical level of {energy}"
        return None
    if rec.get("J") is None:
        return "holomorphic limit left unclassified"
    flat = tuple(j - 1 for j in rec["J"])
    if oracle.closure(setup["weights"], flat) != flat:
        return f"J = {rec['J']} is not a flat"
    level = float(metric.level(setup["beta"], flat))
    if abs(f_limit - level) >= LEVEL_TOL:
        return f"limit {f_limit} is not the critical level {level} of J"
    return None


def _all_finite(obj):
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def check_crossterm(request, report):
    """Nonabelian cross-term statistics at real level zero.

    There the (2,3) inner product is exactly -4 times the bracket scalar,
    and Cauchy-Schwarz caps both the normalized inner products (by 1) and
    the remark ratio (by 1/4).
    """
    reasons = []
    try:
        if report["samples"] != request["expected"]["samples"]:
            reasons.append("wrong sample count")
        if report["abelian"] is not False:
            reasons.append("su(2) input reported abelian")
        if not _all_finite(report):
            reasons.append("non-finite statistic")
        if report["bracket"]["max_identity_residual"] >= 1e-9:
            reasons.append("bracket identity residual too large")
        if report["bracket"]["max_remark_ratio"] > 0.25 + 1e-9:
            reasons.append("remark ratio above 1/4")
        if any(report["pairs"][p]["max_ratio"] > 1 + 1e-9 for p in ("12", "13", "23")):
            reasons.append("normalized inner product above 1")
    except (KeyError, TypeError) as exc:
        reasons.append(f"report lacks {exc}")
    return reasons
