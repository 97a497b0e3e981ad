"""Command line for reproducible broadcast-cloning experiments.

Subcommands: discriminate, clone, optimize, rates, sweep, verify.
Angles are radians (``--theta-deg`` converts for convenience); JSON is the
default output, CSV is available for sweeps. Exit codes: 0 success,
1 verification or optimization failure, 2 usage error, reported on stderr
as one line ``qbc <cmd>: <message>``.
"""

import argparse
import json
import math
import os
import sys

from . import reports, verify
from .errors import OptimizationFailure, ProjectionError

# upper bound on sweep STEPS and --n-starts, so a typo cannot exhaust memory
MAX_COUNT = 10**6


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors are one line on stderr, exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: {' '.join(message.splitlines())}\n")


def _check_count(name: str, value: int) -> int:
    if value > MAX_COUNT:
        raise ValueError(f"{name} must be at most {MAX_COUNT}, got {value}")
    return value


def _add_theta(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", type=float, help="overlap angle in radians, in [0, pi/2]")
    group.add_argument("--theta-deg", type=float, help="overlap angle in degrees")


def _theta_of(args: argparse.Namespace) -> float:
    if args.theta is not None:
        return args.theta
    return math.radians(args.theta_deg)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbc",
        description="Broadcast cloning of a two-state qubit source: optimal clones, "
        "decoding error, entanglement, and achievable rate pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discriminate", help="optimal decoding error for the input pair")
    _add_theta(p)
    p.add_argument("--format", choices=["json"], default="json")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_discriminate)

    p = sub.add_parser(
        "clone",
        help="optimal cloning map, clone states, and marginals",
        description="Optimal cloning map, clone states and marginals. The reported "
        "lambda has relative error |lambda / sin(theta)^2 - 1| <= 2^-49 / sin(theta).",
    )
    _add_theta(p)
    p.add_argument("--phi", type=float, default=0.0, help="free parameter in [0, 2*pi)")
    p.add_argument("--format", choices=["json"], default="json")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_clone)

    p = sub.add_parser("optimize", help="re-derive the optimum by multi-start ascent")
    _add_theta(p)
    p.add_argument("--n-starts", type=int, default=32, help=f"at most {MAX_COUNT}")
    p.add_argument("--format", choices=["json"], default="json")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("rates", help="achievable rate pair of the broadcast cascade")
    _add_theta(p)
    p.add_argument("--epsilon", type=float, required=True, help="trade-off crossover in [0, 0.5]")
    p.add_argument("--format", choices=["json"], default="json")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser(
        "sweep",
        help="tabulate quantities over a theta grid",
        description="Tabulate closed-form quantities over a theta grid. Each "
        "lambda_max has relative error |lambda_max / sin(theta)^2 - 1| <= 2^-49 / sin(theta).",
    )
    p.add_argument(
        "--theta-grid", required=True, metavar="START:STOP:STEPS",
        help=f"inclusive uniform grid of at most {MAX_COUNT} steps, e.g. 0:1.5707963267948966:25",
    )
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run every invariant suite; exit 0 only if all pass")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_verify)

    return parser


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _cmd_discriminate(args) -> int:
    _emit_json(reports.report_discriminate(_theta_of(args), args.seed))
    return 0


def _cmd_clone(args) -> int:
    _emit_json(reports.report_clone(_theta_of(args), args.phi, args.seed))
    return 0


def _cmd_optimize(args) -> int:
    n_starts = _check_count("--n-starts", args.n_starts)
    _emit_json(reports.report_optimize(_theta_of(args), n_starts, args.seed))
    return 0


def _cmd_rates(args) -> int:
    _emit_json(reports.report_rates(_theta_of(args), args.epsilon, args.seed))
    return 0


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be START:STOP:STEPS, got {text!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"grid must be START:STOP:STEPS with numeric fields, got {text!r}") from None
    return start, stop, _check_count("STEPS", steps)


def _cmd_sweep(args) -> int:
    start, stop, steps = _parse_grid(args.theta_grid)
    records = reports.sweep_records(start, stop, steps, args.phi, args.epsilon, args.seed)
    if args.format == "csv":
        payload = reports.sweep_csv(records)
    else:
        payload = json.dumps({"records": records}, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(payload)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        except OSError as exc:
            sys.stderr.write(f"qbc sweep: cannot write {args.out}: {exc}\n")
            return 1
    return 0


def _cmd_verify(args) -> int:
    corrupt = os.environ.get("QBC_VERIFY_CORRUPT", "0").strip().lower() in ("1", "true", "yes")
    results = verify.run_all(seed=args.seed, corrupt=corrupt)
    text, code = verify.format_report(results, args.seed)
    sys.stdout.write(text)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OptimizationFailure, ProjectionError) as exc:
        sys.stderr.write(f"qbc {args.command}: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"qbc {args.command}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
