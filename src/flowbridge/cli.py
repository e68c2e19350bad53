"""Command-line front end.

    flowbridge run --scenario navigation --out results/
    flowbridge run --topology topo.json --scenario plan.json --seed 7
    flowbridge diff results/a results/b
    flowbridge scenarios

Exit codes: 0 clean run, 1 differing runs (diff), 2 bad arguments or
unreadable input files, 3 invariant violation during a run.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .configstore import ConfigError
from .report import MetricsParseError, diff_runs
from .runner import WorldError, run_scenario
from .scenario import ScenarioError, builtin_scenarios, load_scenario
from .topology import TopologyError

log = logging.getLogger(__name__)

_LOG_LEVELS = ("debug", "info", "warning", "error")


def _add_log_level(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--log-level", default="info", choices=_LOG_LEVELS,
                        help="logging verbosity (default: info)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowbridge",
        description="Layered pub/sub data-bridging middleware simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario")
    run_p.add_argument("--topology", default=None, metavar="FILE",
                       help="topology JSON file (default: the scenario's "
                            "embedded topology)")
    run_p.add_argument("--scenario", required=True, metavar="FILE|NAME",
                       help="scenario JSON file, or a bundled scenario name")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's random seed")
    run_p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default: $FLOWBRIDGE_OUT or .)")
    run_p.add_argument("--duration-override", type=float, default=None,
                       metavar="SECONDS", help="run this long instead of the "
                       "scenario's duration")
    _add_log_level(run_p)

    diff_p = sub.add_parser("diff", help="compare two finished run directories")
    diff_p.add_argument("run_a", help="first run directory")
    diff_p.add_argument("run_b", help="second run directory")
    _add_log_level(diff_p)

    ls_p = sub.add_parser("scenarios", help="list bundled scenarios")
    _add_log_level(ls_p)

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    out_dir = args.out
    if out_dir is None:
        out_dir = os.environ.get("FLOWBRIDGE_OUT", ".")
    return run_scenario(
        args.topology,
        args.scenario,
        seed=args.seed,
        out_dir=out_dir,
        duration_override=args.duration_override,
    )


def _cmd_diff(args: argparse.Namespace) -> int:
    identical, lines = diff_runs(args.run_a, args.run_b)
    for line in lines:
        print(line)
    return 0 if identical else 1


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    for name in builtin_scenarios():
        sc = load_scenario(name)
        print(f"{name}: {sc.duration_s:g}s, {len(sc.services)} services")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    handlers = {"run": _cmd_run, "diff": _cmd_diff, "scenarios": _cmd_scenarios}
    try:
        return handlers[args.command](args)
    except (ScenarioError, TopologyError, ConfigError, WorldError,
            MetricsParseError, json.JSONDecodeError, OSError) as exc:
        print(f"flowbridge: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
