"""Command-line interface: analyze, census, modify, flow, crossterm.

Reports are JSON on stdout (or --out); status prose goes to stderr.
Exit codes: 0 success, 2 invalid input, 3 non-generic or degenerate
parameters, 4 failed cross-check.  Exact data is emitted as rational
strings and all indices are 1-based.
"""

import argparse
import json
import sys

import numpy as np

from . import arrangement, flats, morse, ringcalc
from .errors import (
    CircleInsideTorus,
    DegenerateNormal,
    EnumerationTooLarge,
    InputError,
    NonFiniteState,
    NonGenericAlpha,
    NonGenericBeta,
    NonZeroRemainder,
    NotSimple,
    PartitionViolation,
    SamplingExhausted,
)
from .flowlab import cross_term_stats, from_matrices, run_ensemble
from .serialize import (
    flat_to_json,
    parse_matrix_list,
    poly_to_json,
    rational_to_str,
    setup_from_json,
    setup_to_json,
    witness_to_json,
)
from .torus import (
    derived_seed,
    is_generic_alpha,
    is_generic_beta,
    modify,
    sample_generic,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NON_GENERIC = 3
EXIT_CROSS_CHECK = 4

_INPUT_ERRORS = (InputError, EnumerationTooLarge)
_NON_GENERIC_ERRORS = (NonGenericAlpha, NonGenericBeta, CircleInsideTorus,
                       NotSimple, DegenerateNormal, SamplingExhausted)
_CROSS_CHECK_ERRORS = (PartitionViolation, NonZeroRemainder, NonFiniteState)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_setup(args):
    setup = setup_from_json(_load_json(args.input))
    if setup.n > args.max_n:
        raise EnumerationTooLarge(
            f"setup has {setup.n} weights, above the --max-n bound {args.max_n}")
    return setup


def _ensure_generic(setup, args):
    """Return (setup, sampled) with generic levels, resampling if allowed."""
    alpha_ok = is_generic_alpha(setup)
    beta_ok = is_generic_beta(setup)
    if alpha_ok and beta_ok:
        return setup, False
    if not args.sample_generic:
        if not alpha_ok:
            from .torus import alpha_witness
            raise NonGenericAlpha(alpha_witness(setup))
        from .torus import beta_witness
        raise NonGenericBeta(beta_witness(setup))
    seed = derived_seed("cli-sample", setup.weights, args.seed)
    sampled = sample_generic(setup.weights, seed,
                             alpha=setup.alpha if alpha_ok else None,
                             beta=setup.beta if beta_ok else None)
    return sampled, True


def cmd_analyze(args) -> int:
    setup = _load_setup(args)
    setup, sampled = _ensure_generic(setup, args)

    all_flats = flats.enumerate_flats(setup.weights)
    components = morse.critical_components(setup)
    p_morse = morse.poincare_morse(setup.weights)
    counts = arrangement.face_census(setup)
    p_census = arrangement.census_poincare(counts)
    ordinary = ringcalc.ring_dims(setup.weights)
    circle = ringcalc.circle_dims(setup)

    m = setup.ambient_dim
    p_coeffs = poly_to_json(p_morse)
    ring_head = list(ordinary[:m + 1])
    ring_tail_zero = all(v == 0 for v in ordinary[m + 1:])
    padded = p_coeffs + [0] * (m + 1 - len(p_coeffs))
    agree_census = p_morse == p_census
    agree_ring = ring_head == padded and ring_tail_zero
    agree_circle = list(circle) == list(
        ringcalc.cumulative(ordinary, len(circle)))
    report = {
        "setup": setup_to_json(setup),
        "sampled_generic": sampled,
        "flats": [flat_to_json(f) for f in all_flats],
        "morse": {
            "poincare": p_coeffs,
            "components": [
                {"flat": flat_to_json(c.flat), "rank": c.rank, "index": c.index,
                 "level": rational_to_str(c.level)}
                for c in components
            ],
        },
        "census": {"d": list(counts), "poincare": poly_to_json(p_census)},
        "ring": {"ordinary": list(ordinary), "circle": list(circle)},
        "agreement": {
            "morse_census": agree_census,
            "morse_ring": agree_ring,
            "circle_series": agree_circle,
        },
    }
    report["agreement"]["all"] = all(report["agreement"].values())
    _emit(report, args.out)
    if not report["agreement"]["all"]:
        print("cross-check disagreement: the routes to the Poincare "
              "polynomial do not match; see the agreement flags",
              file=sys.stderr)
        return EXIT_CROSS_CHECK
    return EXIT_OK


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
    circle = _parse_column(args.column, setup.n)
    if args.check_recurrence:
        setup, _ = _ensure_generic(setup, args)
    pair = modify(setup, circle, seed=args.seed)
    p_base, p_enl, p_ext, poly_ok = morse.modification_recurrence(
        setup.weights, circle)
    report = {
        "base": setup_to_json(pair.base),
        "enlarged": setup_to_json(pair.enlarged),
        "extended": setup_to_json(pair.extended),
        "polynomials": {
            "base": poly_to_json(p_base),
            "enlarged": poly_to_json(p_enl),
            "extended": poly_to_json(p_ext),
        },
        "recurrence": {"holds": poly_ok},
    }
    if args.check_recurrence:
        cases = morse.modification_cases(setup.weights, circle)
        base_d, enl_d, ext_d, census_ok = arrangement.modification_census(
            setup, circle, seed=args.seed)
        report["trichotomy"] = {
            "new_only": [flat_to_json(f) for f in cases.new_only],
            "shared_both": [flat_to_json(f) for f in cases.shared_both],
            "shared_extended": [flat_to_json(f) for f in cases.shared_extended],
        }
        report["census_recurrence"] = {
            "base_d": list(base_d),
            "enlarged_d": list(enl_d),
            "extended_d": list(ext_d),
            "holds": census_ok,
        }
    _emit(report, args.out)
    trouble = not poly_ok or (args.check_recurrence
                              and not report["census_recurrence"]["holds"])
    if trouble:
        print("modification recurrence violated; see the report",
              file=sys.stderr)
        return EXIT_CROSS_CHECK
    return EXIT_OK


def cmd_flow(args) -> int:
    setup = _load_setup(args)
    if args.sample_generic:
        setup, _ = _ensure_generic(setup, args)
    records = run_ensemble(setup, args.trials, args.seed,
                           function=args.function, radius=args.radius,
                           grad_tol=args.grad_tol, max_time=args.max_time)
    payload = []
    for rec in records:
        payload.append({
            "seed": rec["seed"],
            "status": rec["status"],
            "f_limit": rec["f_limit"],
            "J": None if rec["J"] is None else flat_to_json(rec["J"]),
            "k_hat": rec["k_hat"],
            "fitted_exponent": rec["fitted_exponent"],
            "arclength": rec["arclength"],
            "bound": rec["bound"],
        })
    _emit(payload, args.out)
    return EXIT_OK


def cmd_crossterm(args) -> int:
    obj = _load_json(args.input)
    mats = parse_matrix_list(obj)
    rep = from_matrices(mats)
    alpha = np.zeros(rep.k)
    if isinstance(obj, dict) and "alpha" in obj:
        try:
            alpha = np.array(obj["alpha"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InputError("alpha must be a list of numbers") from exc
        if alpha.shape != (rep.k,) or not np.all(np.isfinite(alpha)):
            raise InputError(f"alpha must have one finite entry per "
                             f"independent generator ({rep.k})")
    stats = cross_term_stats(rep, alpha, args.samples, args.seed,
                             radius=args.radius)
    _emit(stats, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report to this file")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized work (default 0)")
    common.add_argument("--sample-generic", action="store_true",
                        help="replace non-generic levels by sampled generic ones")
    common.add_argument("--max-n", type=int, default=14,
                        help="refuse setups with more weights than this")

    parser = argparse.ArgumentParser(
        prog="hypertoric",
        description="Exact toric hyperkahler invariants and moment-map flows")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="full exact report with all cross-checks")
    p.add_argument("input", help="setup JSON file")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("census", parents=[common],
                       help="bounded face census of the dual arrangement")
    p.add_argument("input", help="setup JSON file")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("modify", parents=[common],
                       help="extend the setup by a circle and check recurrences")
    p.add_argument("input", help="setup JSON file")
    p.add_argument("--column", required=True,
                   help="comma-separated integer weight of the new circle")
    p.add_argument("--check-recurrence", action="store_true",
                   help="also verify the trichotomy and the census recurrence")
    p.set_defaults(fn=cmd_modify)

    p = sub.add_parser("flow", parents=[common],
                       help="random-start gradient descents of a moment energy")
    p.add_argument("input", help="setup JSON file")
    p.add_argument("--function", choices=["muR2", "muC2", "muHK2"],
                   default="muC2", help="energy to descend (default muC2)")
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--max-time", type=float, default=1e6)
    p.add_argument("--grad-tol", type=float, default=1e-5)
    p.add_argument("--radius", type=float, default=1.0,
                   help="scale of the random starting states")
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("crossterm", parents=[common],
                       help="pairwise gradient inner products of the component energies")
    p.add_argument("input",
                   help="JSON list of complex matrices {\"re\": ..., \"im\": ...}")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--radius", type=float, default=1.0)
    p.set_defaults(fn=cmd_crossterm)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _NON_GENERIC_ERRORS as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        witness = getattr(exc, "witness", None)
        if witness is not None:
            payload["error"]["witness"] = witness_to_json(witness)
        _emit(payload, args.out)
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NON_GENERIC
    except _CROSS_CHECK_ERRORS as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}},
              args.out)
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CROSS_CHECK
    except _INPUT_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
