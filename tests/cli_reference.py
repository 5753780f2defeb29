"""An argparse parser of the command line's options: the reference that
``cli.parse_args`` is compared against."""

import argparse

from hypertoric.cli import (cmd_analyze, cmd_census, cmd_crossterm, cmd_flow,
                            cmd_modify)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report to this file")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized work (default 0)")
    levels = argparse.ArgumentParser(add_help=False)
    levels.add_argument("--sample-generic", action="store_true",
                        help="replace non-generic levels by sampled generic ones")

    parser = argparse.ArgumentParser(
        prog="hypertoric",
        description="Exact toric hyperkahler invariants and moment-map flows")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common, levels],
                       help="full exact report with all cross-checks")
    p.add_argument("input", help="setup JSON file")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("census", parents=[common, levels],
                       help="bounded face census of {z : B^T z = alpha} cut "
                            "by the coordinate hyperplanes")
    p.add_argument("input", help="setup JSON file")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("modify", parents=[common, levels],
                       help="extend the setup by a circle and check recurrences")
    p.add_argument("input", help="setup JSON file")
    p.add_argument("--column", required=True,
                   help="comma-separated integer weight of the new circle")
    p.add_argument("--check-recurrence", action="store_true",
                   help="also verify the trichotomy and the census recurrence")
    p.set_defaults(fn=cmd_modify)

    p = sub.add_parser("flow", parents=[common, levels],
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
