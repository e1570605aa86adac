"""Command-line front end.

Subcommands:
  params       print the lattice/encoding layout of a named preset
  simulate     run a federated experiment suite from a JSON config
  bench        micro-benchmarks for the cipher ops, one protocol round and the
               wire encoding of its upload
  check-bound  evaluate the norm-gap tolerance threshold as JSON

Exit codes: 0 on success, 1 when a run fails mid-flight (protocol abort,
divergence), 2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from .aggregation import AGGREGATORS, encrypt_update, secure_aggregate_round
from .errors import FheflError, ParameterError
from .he import (
    EvalKey,
    SecretKey,
    ciphertext_from_bytes,
    ciphertext_to_bytes,
    common_poly,
    encrypt,
    get_params,
    he_add,
    he_mult_relin,
    preset_names,
)
from .multikey import setup_pairwise
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


def _timeit(fn, reps: int) -> tuple[float, float]:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e6)
    return float(np.mean(samples)), float(np.percentile(samples, 95))


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise ParameterError("bench needs at least one repetition")
    params = get_params(args.preset)
    rng = np.random.default_rng(0)
    sk = SecretKey.generate(params, seed=b"bench-sk")
    evk = EvalKey.generate(params, sk, rng)
    a = common_poly(params, seed=b"bench-a")
    dim = min(64, params.capacity)
    vec = rng.normal(0, 1, dim)
    ct = encrypt(params, vec, sk, a, rng)
    ct2 = encrypt(params, vec, sk, a, rng)

    rows = [
        ("encrypt", *_timeit(lambda: encrypt(params, vec, sk, a, rng), args.reps)),
        ("add", *_timeit(lambda: he_add(ct, ct2), args.reps)),
        ("mult+relin", *_timeit(lambda: he_mult_relin(ct, ct2, evk), args.reps)),
    ]

    users = list(range(10))
    keyrings = setup_pairwise(params, users, epoch=0, master_seed=b"bench")
    grads = rng.normal(0, 1, (10, dim))
    w_prev = np.zeros(dim)

    rounds = itertools.count()
    uploads = []

    def one_round():
        # a fresh common polynomial and round tag per repetition: a reused tag
        # lets two mask layers cancel outside the intended sum
        tag = b"bench-round-%d" % next(rounds)
        a_r = common_poly(params, seed=tag + b"|a")
        enc = {u: encrypt_update(keyrings[u], grads[u], a_r, rng) for u in users}
        uploads.append(enc[users[0]])
        secure_aggregate_round(enc, keyrings, w_prev, 0.1, rng, round_tag=tag)

    round_reps = max(1, args.reps // 5)
    round_row = ("aggregate_round(10 users)", *_timeit(one_round, round_reps))
    # the wire rows time the last round's upload; the round row stays last,
    # next to the byte count of that upload
    last = uploads[-1].chunks
    blobs = [ciphertext_to_bytes(ct) for ct in last]
    rows += [
        (
            "upload to_bytes",
            *_timeit(lambda: [ciphertext_to_bytes(ct) for ct in last], args.reps),
        ),
        (
            "upload from_bytes",
            *_timeit(lambda: [ciphertext_from_bytes(b, params) for b in blobs], args.reps),
        ),
        round_row,
    ]
    upload_bytes = sum(map(len, blobs))

    print(f"preset {params.name}  (vector dim {dim})")
    print(f"{'op':<26} {'mean us':>12} {'p95 us':>12}")
    for name, mean, p95 in rows:
        print(f"{name:<26} {mean:>12.1f} {p95:>12.1f}")
    print(f"{'upload per user per round':<26} {upload_bytes:>12d} B")
    # a user's evaluation key as held in memory: its own half, and the seed
    # its public half is expanded from on each key switch
    evk = keyrings[users[0]].evk
    print(f"{'evk own half per user':<26} {sum(e.data.nbytes for e in evk.ks_b):>12d} B")
    print(f"{'evk public seed per user':<26} {len(evk.a_seed):>12d} B")
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

    b = sub.add_parser("bench", help="micro-benchmarks")
    b.add_argument("--preset", default="test-1024", choices=preset_names())
    b.add_argument("--reps", type=int, default=20)
    b.set_defaults(func=cmd_bench)

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
