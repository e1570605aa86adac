"""Command-line front end.

Subcommands:
  params       print the lattice/encoding layout of a named preset
  simulate     run a federated experiment suite from a JSON config
  check-bound  evaluate the norm-gap tolerance threshold as JSON

Exit codes: 0 on success, 1 when a run fails mid-flight (protocol abort,
divergence), 2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

from .aggregation import AGGREGATORS
from .errors import FheflError, ParameterError
from .he import get_params, preset_names
from .simulation import SimConfig, bound_report, run_experiment_suite


def cmd_params(args) -> int:
    params = get_params(args.preset)
    security = (
        "~128-bit classical (RLWE, ternary key)"
        if params.name.startswith("fhefl-")
        else "toy parameters - testing only"
    )
    rows = [
        ("preset", params.name),
        ("ring dimension N", params.ring.n),
        ("log2 q", params.total_logq()),
        ("scale bits", params.scale_bits),
        ("mult depth L", params.ring.max_level),
        ("slot capacity", params.capacity),
        ("security", security),
    ]
    if params.logq_budget is not None:
        rows.insert(3, ("log2 q budget", params.logq_budget))
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k:<{width}}  {v}")
    return 0


def _apply_overrides(cfg: SimConfig, args) -> SimConfig:
    updates = {}
    if args.preset is not None:
        updates["preset"] = args.preset
    if args.seed is not None:
        updates["seeds"] = (args.seed,)
    if args.mode is not None:
        updates["mode"] = args.mode
    if args.aggregator is not None:
        updates["aggregator"] = args.aggregator
    return replace(cfg, **updates) if updates else cfg


def cmd_simulate(args) -> int:
    cfg = SimConfig.from_json(args.config) if args.config else SimConfig()
    cfg = _apply_overrides(cfg, args)
    cfg.validate(override_attacker_cap=args.override_attacker_cap)
    progress = None if args.quiet else print
    out = run_experiment_suite(cfg, args.out, progress=progress)
    agg = out["aggregate"]
    print(
        f"wrote {args.out}/summary.json  "
        f"(seeds={len(cfg.seeds)}, mean final accuracy "
        f"{agg['mean_final_accuracy']:.4f}, mean attack rate "
        f"{agg['mean_aasr_last10']:.4f})"
    )
    return 0


def cmd_check_bound(args) -> int:
    report = bound_report(args.benign, args.malicious, args.g_sq, args.z_sq)
    print(json.dumps(asdict(report), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhefl",
        description="Privacy-preserving federated learning with norm-based "
        "attacker downweighting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="show a preset's lattice layout")
    p.add_argument("--preset", default="fhefl-8192", choices=preset_names())
    p.set_defaults(func=cmd_params)

    s = sub.add_parser("simulate", help="run a federated experiment suite")
    s.add_argument("--config", help="JSON experiment config")
    s.add_argument("--preset", choices=preset_names())
    s.add_argument("--seed", type=int, help="run a single seed")
    s.add_argument("--mode", choices=["plain", "encrypted"])
    s.add_argument("--aggregator", choices=["fhefl", *AGGREGATORS])
    s.add_argument("--out", default="runs", help="output directory")
    s.add_argument(
        "--override-attacker-cap",
        action="store_true",
        help="allow attacker fractions above the 20%% threat model",
    )
    s.add_argument("--quiet", action="store_true", help="suppress progress lines")
    s.set_defaults(func=cmd_simulate)

    c = sub.add_parser("check-bound", help="norm-gap tolerance as JSON")
    c.add_argument("--benign", type=int, required=True)
    c.add_argument("--malicious", type=int, required=True)
    c.add_argument("--g-sq", type=float, required=True)
    c.add_argument("--z-sq", type=float, default=0.0)
    c.set_defaults(func=cmd_check_bound)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FheflError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
