"""Command-line interface: analyze, census, modify, flow, crossterm.

Reports are JSON on stdout (or --out), without NaN or Infinity; status
prose goes to stderr.  An error exits with its class's ``exit_code`` (see
errors.py), success with 0.  Exact data is emitted as rational strings
and all indices are 1-based.
"""

import json
import sys
from types import SimpleNamespace

import numpy as np

from . import arrangement, crosscheck, flats
from .errors import (EnumerationTooLarge, HypertoricError, InputError,
                     InvariantViolation, witness_to_json)
from .flowlab import cross_term_stats, from_matrices, run_ensemble
from .flowlab.moments import ENERGY_KINDS
from .serialize import (
    flat_to_json,
    parse_float_array,
    parse_matrix_list,
    poly_to_json,
    rational_to_str,
    setup_from_json,
    setup_to_json,
)
from .torus import (critical_levels, derived_seed, modify, negative_rows,
                    sample_generic)

EXIT_OK = 0
EXIT_CROSS_CHECK = HypertoricError.exit_code


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, not UTF-8, or past the digit limit
        raise InputError(f"cannot read {path} as JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} nests too deeply to read") from exc


def _emit(payload, out_path):
    try:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN and Infinity are not JSON (RFC 8259)
        raise InvariantViolation(f"the report holds a non-finite number: "
                                 f"{exc}") from exc
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_setup(args):
    return setup_from_json(_load_json(args.input))


def _ensure_generic(setup, args):
    """Return (setup, sampled) with generic levels, resampling if allowed."""
    if not args.sample_generic:
        negative_rows(setup)
        critical_levels(setup)
        return setup, False
    seed = derived_seed("cli-sample", setup.weights, args.seed)
    result = sample_generic(setup, seed)
    return result, result != setup


def _verdict(holds, complaint) -> int:
    """Exit 0 when a cross-check holds, else say so on stderr and exit 4."""
    if holds:
        return EXIT_OK
    print(complaint, file=sys.stderr)
    return EXIT_CROSS_CHECK


def cmd_analyze(args) -> int:
    setup, sampled = _ensure_generic(_load_setup(args), args)
    result = crosscheck.analyze(setup)
    report = {
        "setup": setup_to_json(setup),
        "sampled_generic": sampled,
        "flats": [flat_to_json(flat) for flat, *_ in result.components],
        "morse": {
            "poincare": poly_to_json(result.poincare),
            "components": [
                {"flat": flat_to_json(flat), "rank": rank, "index": index,
                 "level": rational_to_str(level)}
                for flat, rank, index, level in result.components
            ],
        },
        "census": {"d": list(result.counts),
                   "poincare": poly_to_json(result.census_poincare)},
        "ring": {"ordinary": list(result.ordinary), "circle": list(result.circle)},
        "agreement": result.agreement,
    }
    _emit(report, args.out)
    return _verdict(result.agreement["all"],
                    "cross-check disagreement: the routes to the Poincare "
                    "polynomial do not match; see the agreement flags")


def cmd_census(args) -> int:
    setup = _load_setup(args)
    setup, _ = _ensure_generic(setup, args)
    counts = arrangement.face_census(setup)
    poly = arrangement.census_poincare(counts)
    _emit({"d": list(counts), "poincare": poly_to_json(poly)}, args.out)
    return EXIT_OK


def _parse_column(text, n):
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise InputError(f"--column must be comma-separated integers, "
                         f"got {text!r}") from exc
    if len(parts) != n:
        raise InputError(f"--column needs {n} entries, got {len(parts)}")
    return tuple(parts)


def cmd_modify(args) -> int:
    setup = _load_setup(args)
    if setup.n + 1 > flats.MAX_GROUND_SET:
        raise EnumerationTooLarge(
            f"modify adds a row: {setup.n} rows become {setup.n + 1}, above "
            f"the flat-enumeration bound of {flats.MAX_GROUND_SET}; modify "
            f"takes at most {flats.MAX_GROUND_SET - 1} rows")
    circle = _parse_column(args.column, setup.n)
    if args.check_recurrence:
        setup, _ = _ensure_generic(setup, args)
    pair = modify(setup, circle, seed=args.seed)
    base, enlarged, extended = pair
    p_base, p_enl, p_ext, holds = crosscheck.polynomial_recurrence(pair)
    report = {
        "base": setup_to_json(base),
        "enlarged": setup_to_json(enlarged),
        "extended": setup_to_json(extended),
        "polynomials": {
            "base": poly_to_json(p_base),
            "enlarged": poly_to_json(p_enl),
            "extended": poly_to_json(p_ext),
        },
        "recurrence": {"holds": holds},
    }
    if args.check_recurrence:
        cases, base_d, enl_d, ext_d, census_ok = crosscheck.census_recurrence(
            pair)
        report["trichotomy"] = {
            key: [flat_to_json(f) for f in case] for key, case in
            zip(("new_only", "shared_both", "shared_extended"), cases)}
        report["census_recurrence"] = {
            "base_d": list(base_d),
            "enlarged_d": list(enl_d),
            "extended_d": list(ext_d),
            "holds": census_ok,
        }
        holds = holds and census_ok
    _emit(report, args.out)
    return _verdict(holds, "modification recurrence violated; see the report")


def cmd_flow(args) -> int:
    setup, _ = _ensure_generic(_load_setup(args), args)
    records = run_ensemble(setup, args.trials, args.seed,
                           function=args.function, radius=args.radius,
                           grad_tol=args.grad_tol, max_time=args.max_time)
    _emit([dict(rec, J=None if rec["J"] is None else flat_to_json(rec["J"]))
           for rec in records], args.out)
    return EXIT_OK


def cmd_crossterm(args) -> int:
    obj = _load_json(args.input)
    if isinstance(obj, dict):
        unknown = set(obj) - {"matrices", "alpha"}
        if unknown:
            raise InputError(f"unknown crossterm fields: {sorted(unknown)}")
    mats = parse_matrix_list(obj)
    rep = from_matrices(mats)
    alpha = np.zeros(rep.k)
    if isinstance(obj, dict) and "alpha" in obj:
        alpha = parse_float_array(obj["alpha"], "alpha")
        if alpha.shape != (rep.k,) or not np.all(np.isfinite(alpha)):
            raise InputError(f"alpha must have one finite entry per "
                             f"independent generator ({rep.k})")
    stats = cross_term_stats(rep, alpha, args.samples, args.seed,
                             radius=args.radius)
    _emit(stats, args.out)
    return EXIT_OK


_REQUIRED = object()

# Options of every command: option -> (int, float, str, bool for a flag, or a
# tuple of choices; default).
_SHARED = {
    "--out": (str, None),
    "--seed": (int, 0),
}
# An option of the commands that read a setup's levels.
_SAMPLE_GENERIC = {"--sample-generic": (bool, False)}

# command -> (command function, summary, options of its own).
COMMANDS = {
    "analyze": (cmd_analyze, "full exact report with all cross-checks",
                _SAMPLE_GENERIC),
    "census": (cmd_census, "bounded face census of {z : B^T z = alpha} cut "
               "by the coordinate hyperplanes", _SAMPLE_GENERIC),
    "modify": (cmd_modify, "extend the setup by a circle and check recurrences",
               {"--column": (str, _REQUIRED),
                "--check-recurrence": (bool, False), **_SAMPLE_GENERIC}),
    "flow": (cmd_flow, "random-start gradient descents of a moment energy",
             {"--function": (ENERGY_KINDS, "muC2"),
              "--trials": (int, 8),
              "--max-time": (float, 1e6),
              "--grad-tol": (float, 1e-5),
              "--radius": (float, 1.0), **_SAMPLE_GENERIC}),
    "crossterm": (cmd_crossterm,
                  "pairwise gradient inner products of the component energies",
                  {"--samples": (int, 1000), "--radius": (float, 1.0)}),
}


def _dest(option):
    return option[2:].replace("-", "_")


def _convert(option, kind, text):
    if isinstance(kind, tuple):
        if text not in kind:
            raise InputError(f"{option} must be one of {', '.join(kind)}, "
                             f"got {text!r}")
        return text
    try:
        return kind(text)
    except ValueError:
        raise InputError(f"{option} takes {kind.__name__} values, "
                         f"got {text!r}") from None


def parse_args(argv):
    """Read ``COMMAND INPUT [--option VALUE | --option=VALUE | --flag ...]``.

    Options may come before or after INPUT, the last of a repeated option
    wins, and a value may start with "-".  Options are matched whole, never
    by prefix.  Every argument error raises InputError; -h or --help gives
    a namespace whose fn prints the usage.
    """
    if not argv:
        raise InputError(f"expected a command: {', '.join(COMMANDS)}")
    command, rest = argv[0], iter(argv[1:])
    if command in ("-h", "--help"):
        return SimpleNamespace(fn=_print_usage, command=None)
    if command not in COMMANDS:
        raise InputError(f"unknown command {command!r}; expected one of "
                         f"{', '.join(COMMANDS)}")
    fn, _, own = COMMANDS[command]
    options = {**_SHARED, **own}
    args = {_dest(option): default for option, (_, default) in options.items()}
    args.update(command=command, fn=fn, input=None)
    for token in rest:
        if token in ("-h", "--help"):
            return SimpleNamespace(fn=_print_usage, command=command)
        if not token.startswith("-") or token == "-":
            if args["input"] is not None:
                raise InputError(f"unexpected argument {token!r}: {command} "
                                 f"reads one input file")
            args["input"] = token
            continue
        option, has_value, value = token.partition("=")
        if option not in options:
            raise InputError(f"{command} has no option {option!r}")
        kind = options[option][0]
        if kind is bool:
            if has_value:
                raise InputError(f"{option} takes no value")
            args[_dest(option)] = True
            continue
        if not has_value:
            value = next(rest, None)
            if value is None:
                raise InputError(f"{option} needs a value")
        args[_dest(option)] = _convert(option, kind, value)
    if args["input"] is None:
        raise InputError(f"{command} needs an input file")
    for option in own:
        if args[_dest(option)] is _REQUIRED:
            raise InputError(f"{command} needs {option}")
    return SimpleNamespace(**args)


def _usage(command):
    lines = ["usage: hypertoric COMMAND INPUT [--option VALUE | "
             "--option=VALUE | --flag ...]",
             "Exact toric hyperkahler invariants and moment-map flows.", ""]
    for name, (_, summary, own) in COMMANDS.items():
        if command in (None, name):
            lines.append(f"{name}: {summary}")
            lines.extend(_option_line(o, *spec) for o, spec in own.items())
    lines.append("every command:")
    lines.extend(_option_line(o, *spec) for o, spec in _SHARED.items())
    return "\n".join(lines) + "\n"


def _option_line(option, kind, default):
    if kind is bool:
        return f"  {option}"
    value = ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
             else kind.__name__.upper())
    if default is _REQUIRED:
        return f"  {option} {value}  (required)"
    return f"  {option} {value}" + ("" if default is None
                                   else f"  (default {default})")


def _print_usage(args) -> int:
    sys.stdout.write(_usage(args.command))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.fn(args)
    except HypertoricError as exc:
        if exc.exit_code != InputError.exit_code:
            error = {"type": type(exc).__name__, "message": str(exc)}
            witness = getattr(exc, "witness", None)
            if witness is not None:
                error["witness"] = witness_to_json(witness)
            try:
                _emit({"error": error}, args.out)
            except InputError as unwritten:
                exc = unwritten
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
