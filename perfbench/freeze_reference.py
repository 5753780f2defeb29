"""Write reference/catalog.json: the catalog inputs and their frozen answers.

Usage (from the repository root): python3 perfbench/freeze_reference.py

Takes CATALOG and MODIFICATION_PAIRS from the acceptance tests, runs each
through the CLI exactly as the catalog workload does, and keeps the fields
checks.py compares.  Every frozen answer is first cross-checked against
the independent oracle, so a wrong answer cannot be frozen.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import oracle  # noqa: E402
from hypertoric import cli  # noqa: E402
from test_acceptance import CATALOG, MODIFICATION_PAIRS  # noqa: E402
from workloads import REFERENCE, _column_flag  # noqa: E402


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    report = json.loads(out.getvalue())
    if code != 0 or not checks.flags_hold(report):
        raise SystemExit(f"{argv}: exit {code} or a false flag")
    return report


def main():
    scratch = HERE / "out"
    scratch.mkdir(exist_ok=True)
    path = scratch / "freeze-input.json"
    analyze, modify = [], []
    for weights in CATALOG:
        weights = [list(row) for row in weights]
        path.write_text(json.dumps({"weights": weights}), encoding="utf-8")
        answer = checks.analyze_answer(
            run(["analyze", str(path), "--sample-generic"]))
        want = oracle.expected_analyze(weights)
        if answer != want:
            raise SystemExit(f"analyze {weights}: {answer} disagrees with {want}")
        analyze.append({"weights": weights, "expected": answer})
    for weights, column in MODIFICATION_PAIRS:
        weights = [list(row) for row in weights]
        path.write_text(json.dumps({"weights": weights}), encoding="utf-8")
        answer = checks.modify_answer(run(
            ["modify", str(path), _column_flag(column), "--check-recurrence",
             "--sample-generic"]))
        want = oracle.expected_modify(weights, column)
        for key in ("base", "enlarged", "extended"):
            d = len(weights[0]) + (key != "base")
            n = len(weights) + (key == "extended")
            counts = oracle.census_counts(want[key], n - d + 1)
            if answer[key] != want[key] or answer[f"{key}_d"] != counts:
                raise SystemExit(f"modify {weights} {column}: {key} disagrees")
        modify.append({"weights": weights, "column": list(column),
                       "expected": answer})
    path.unlink()
    REFERENCE.parent.mkdir(exist_ok=True)
    lines = ["{"]
    for key, items in (("analyze", analyze), ("modify", modify)):
        body = ",\n".join("  " + json.dumps(item) for item in items)
        lines.append(f'"{key}": [\n{body}\n]' + ("," if key == "analyze" else ""))
    lines.append("}")
    REFERENCE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(analyze)} analyze and {len(modify)} modify answers "
          f"to {REFERENCE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
