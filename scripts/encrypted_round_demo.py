#!/usr/bin/env python3
"""Walk one encrypted aggregation round and narrate every stage.

Four users encrypt gradient updates under their own keys, the server computes
squared norms homomorphically, users re-encrypt their own norms, the server
turns them into weights, and the weighted model update is opened through
masked partial decryptions.  The final vector is compared against the plaintext oracle.

Usage:
    python3 scripts/encrypted_round_demo.py --preset test-1024 --dim 32
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from fhefl.aggregation import (
    encrypt_update,
    non_poisoning_rates,
    secure_aggregate_round,
    sq_norm_plain,
    weighted_aggregate_plain,
)
from fhefl.he import common_poly, get_params
from fhefl.multikey import setup_pairwise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--preset", default="test-1024")
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--users", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    params = get_params(args.preset)
    rng = np.random.default_rng(args.seed)
    users = list(range(args.users))
    print(f"preset={params.name}  users={args.users}  dim={args.dim}")

    t0 = time.perf_counter()
    keyrings = setup_pairwise(params, users, epoch=0, master_seed=b"demo")
    print(f"[keys]    per-user secrets + eval keys      {time.perf_counter()-t0:6.2f}s")

    grads = rng.normal(0, 1, (args.users, args.dim))
    grads[-1] *= 4.0  # one user submits a conspicuously large update
    w_prev = rng.normal(0, 1, args.dim)

    t0 = time.perf_counter()
    a = common_poly(params, seed=b"demo-a")
    enc = {u: encrypt_update(keyrings[u], grads[u], a, rng) for u in users}
    print(f"[users]   encrypted updates (mirrored)      {time.perf_counter()-t0:6.2f}s")

    t0 = time.perf_counter()
    w_enc = secure_aggregate_round(
        enc, keyrings, w_prev, eta=0.1, rng=rng, round_tag=b"demo-round"
    )
    print(f"[server]  norms, rates, weighted aggregate  {time.perf_counter()-t0:6.2f}s")

    dists = np.array([sq_norm_plain(g) for g in grads])
    rates = non_poisoning_rates(dists)
    w_plain = weighted_aggregate_plain(w_prev, grads, rates, eta=0.1)
    rel = np.linalg.norm(w_enc - w_plain) / np.linalg.norm(w_plain)

    print(f"\nplain-oracle weights : {np.array2string(rates, precision=4)}")
    print(f"large-update user got {rates[-1]:.4f} (uniform share {1/args.users:.4f})")
    print(f"encrypted vs plain relative error: {rel:.2e}")
    return 0 if rel < 1e-2 else 1


if __name__ == "__main__":
    sys.exit(main())
