#!/usr/bin/env python3
"""Sweep aggregators against label-flipping attacker fractions.

Runs the desk-scale task for every (aggregator, attacker fraction) pair and
prints final accuracy plus the mean attack success rate over the last ten
rounds, averaged across seeds.  Reproduces the directional story of the
attack-statistics comparison: norm-weighted aggregation suppresses the flip
while plain averaging absorbs it.

Usage:
    python3 scripts/attack_sweep.py --rounds 100 --seeds 0 1 2 3 4 --out sweep.csv
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from fhefl.errors import ParameterError
from fhefl.simulation import SimConfig, run_experiment


def cell_config(aggregator: str, fraction: float, args) -> SimConfig:
    return SimConfig(
        spread=0.5,
        eta=0.1,
        local_epochs=2,
        attacker_epochs=10,
        n_users=100,
        roster_size=10,
        attacker_fraction=fraction,
        aggregator=aggregator,
        rounds=args.rounds,
        seeds=tuple(args.seeds),
    )


def run_cell(cfg: SimConfig) -> tuple[float, float]:
    accs, aasrs = [], []
    for seed in cfg.seeds:
        history, _ = run_experiment(cfg, seed)
        accs.append(np.mean([m.accuracy for m in history[-10:]]))
        aasrs.append(np.mean([m.aasr for m in history[-10:]]))
    return float(np.mean(accs)), float(np.mean(aasrs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument(
        "--fractions", type=float, nargs="+", default=[0.0, 0.1, 0.2]
    )
    parser.add_argument(
        "--aggregators",
        nargs="+",
        default=["fedavg", "fhefl", "median", "trimmed_mean", "krum"],
    )
    parser.add_argument("--out", help="optional CSV destination")
    args = parser.parse_args(argv)

    cells = [
        cell_config(agg, fraction, args)
        for fraction in args.fractions
        for agg in args.aggregators
    ]
    # refuse a bad cell before the first one spends minutes training
    try:
        for cfg in cells:
            cfg.validate()
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = []
    print(f"{'aggregator':<14} {'attackers':>9} {'accuracy':>9} {'aasr':>7}")
    for cfg in cells:
        acc, aasr = run_cell(cfg)
        rows.append((cfg.aggregator, cfg.attacker_fraction, acc, aasr))
        print(f"{cfg.aggregator:<14} {cfg.attacker_fraction:>9.0%} {acc:>9.4f} {aasr:>7.4f}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["aggregator", "attacker_fraction", "accuracy", "aasr"])
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
