"""Acceptance gate: every shipping claim, one test per criterion.

Each test checks the claim at its stated tolerance AND its runtime budget,
then prints a single `criterion NN PASS` line (visible with `pytest -s`;
`pytest -v` shows the same verdict per test name).  Tolerances and budgets
are asserted, not advisory.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from fhefl.aggregation import (
    encrypt_update,
    non_poisoning_rates,
    rates_encrypted,
    secure_aggregate_round,
    sq_norm_encrypted,
    sq_norm_plain,
    weighted_aggregate_plain,
)
from fhefl.he import (
    EvalKey,
    SecretKey,
    common_poly,
    decrypt,
    encrypt,
    get_params,
    he_add,
    he_mult_relin,
)
from fhefl.multikey import (
    combine_partials,
    mask_key,
    masked_partial_decrypt,
    reconstruct_group_key,
    setup_pairwise,
)
from fhefl.ntt import find_ntt_primes
from fhefl.ring import RingElement, RingParams, ring_add, ring_mul
from fhefl.simulation import (
    Architecture,
    SimConfig,
    corollary_threshold,
    loss_and_grad,
    run_experiment,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _pass(num, desc, elapsed, budget):
    print(f"\ncriterion {num:02d} PASS  {desc}  [{elapsed:.1f}s < {budget:.0f}s]")
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


# ---------------------------------------------------------------------------


def test_criterion_01_he_correctness_suite():
    """test-1024: 1000 roundtrips < 1e-3 abs; 100 adds and mults < 1e-2 rel."""
    t0 = time.perf_counter()
    params = get_params("test-1024")
    rng = np.random.default_rng(101)
    sk = SecretKey.generate(params, seed=b"acc1-sk")
    evk = EvalKey.generate(params, sk, rng)
    a = common_poly(params, seed=b"acc1-a")

    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, params.capacity + 1))
        v = rng.uniform(-10, 10, dim)
        dec = decrypt(encrypt(params, v, sk, a, rng), sk).values
        worst = max(worst, float(np.abs(dec - v).max()))
    assert worst < 1e-3

    for _ in range(100):
        dim = int(rng.integers(1, 257))
        x, y = rng.uniform(-2, 2, dim), rng.uniform(-2, 2, dim)
        s = decrypt(
            he_add(encrypt(params, x, sk, a, rng), encrypt(params, y, sk, a, rng)), sk
        ).values
        assert np.linalg.norm(s - (x + y)) <= 1e-2 * max(np.linalg.norm(x + y), 1e-9)

        prod = decrypt(
            he_mult_relin(
                encrypt(params, x, sk, a, rng), encrypt(params, y, sk, a, rng), evk
            ),
            sk,
        ).values
        ref = np.convolve(x, y)
        assert np.linalg.norm(prod - ref) <= 1e-2 * max(np.linalg.norm(ref), 1e-9)

    _pass(1, f"1000 roundtrips (worst {worst:.1e}) + 100 add/mult cases",
          time.perf_counter() - t0, 60)


def _schoolbook_negacyclic(a, b, q, n):
    c = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            k = i + j
            if k < n:
                c[k] = (c[k] + ai * bj) % q
            else:
                c[k - n] = (c[k - n] - ai * bj) % q
    return c


def test_criterion_02_ring_schoolbook_oracle():
    """ring_mul == schoolbook negacyclic product, exactly, N in {16, 32}."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    for n in (16, 32):
        q = find_ntt_primes(n, 41, 1)[0]
        params = RingParams(n=n, chain=(q,))
        for _ in range(500):
            av = rng.integers(0, q, n).tolist()
            bv = rng.integers(0, q, n).tolist()
            a = RingElement.from_int_coeffs(params, av, level=0)
            b = RingElement.from_int_coeffs(params, bv, level=0)
            got = ring_mul(a, b).data[0].tolist()
            assert got == _schoolbook_negacyclic(av, bv, q, n)
    _pass(2, "1000 random negacyclic products exact (N=16, N=32)",
          time.perf_counter() - t0, 10)


def test_criterion_03_key_cancellation_suite():
    """Masked key sums: sum(ss_u) == sum(s_u) exactly; mask double-sum == 0."""
    t0 = time.perf_counter()
    params = get_params("test-16")
    # one 64-user population; every roster size 2..64 drawn from it
    krs = setup_pairwise(params, range(64), epoch=0, master_seed=b"acc3")
    for size in range(2, 65):
        roster = list(range(size))
        masked = [mask_key(krs[u], roster) for u in roster]
        gk = reconstruct_group_key(masked, roster)

        sum_sk = krs[0].sk.s
        for u in roster[1:]:
            sum_sk = ring_add(sum_sk, krs[u].sk.s)
        assert np.array_equal(gk.data, sum_sk.data)  # exact integer equality

        # pairwise double sum: sum_u (ss_u - s_u) must be the zero element
        double = None
        for u, mk in zip(roster, masked):
            diff = mk.elem.sub(krs[u].sk.s)
            double = diff if double is None else ring_add(double, diff)
        assert not double.data.any()
    _pass(3, "group key == key sum and mask double-sum == 0, rosters 2..64",
          time.perf_counter() - t0, 10)


def test_criterion_04_pipeline_oracle_equivalence():
    """100 random encrypted rounds match the plaintext aggregate, rel 1e-2."""
    t0 = time.perf_counter()
    params = get_params("test-1024")
    rng = np.random.default_rng(404)
    for i in range(100):
        n_users = int(rng.integers(2, 9))
        dim = int(rng.integers(1, 129))
        run_rng = np.random.default_rng([404, i])
        roster = list(range(n_users))
        krs = setup_pairwise(params, roster, epoch=0, master_seed=b"acc4|%d" % i)
        a = common_poly(params, seed=b"acc4-a|%d" % i)
        grads = run_rng.uniform(-2, 2, (n_users, dim))
        w_prev = run_rng.uniform(-1, 1, dim)
        enc = {u: encrypt_update(krs[u], grads[u], a, run_rng) for u in roster}
        w_enc = secure_aggregate_round(
            enc, krs, w_prev, 0.5, run_rng, round_tag=b"acc4|%d" % i
        )
        rates = non_poisoning_rates([sq_norm_plain(g) for g in grads])
        w_plain = weighted_aggregate_plain(w_prev, grads, rates, 0.5)
        np.testing.assert_allclose(w_enc, w_plain, rtol=1e-2, atol=1e-4)
    _pass(4, "100 instances (U<=8, dim<=128) encrypted == plain",
          time.perf_counter() - t0, 300)


def test_criterion_05_rate_identities():
    """Rates sum to one (plain exactly, encrypted to 1e-2) and fall with norm."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    for _ in range(200):
        d = rng.uniform(0, 100, int(rng.integers(2, 40)))
        p = non_poisoning_rates(d)
        assert abs(p.sum() - 1.0) < 1e-12
        order = np.argsort(d)
        assert np.all(np.diff(p[order]) <= 1e-15)  # monotone non-increasing

    assert np.allclose(non_poisoning_rates([1.0, 3.0]), [0.75, 0.25], atol=1e-15)

    # encrypted leg: three users' norm ciphertexts -> affine rates -> masked sum
    params = get_params("test-16")
    roster = [0, 1, 2]
    krs = setup_pairwise(params, roster, epoch=0, master_seed=b"acc5")
    a = common_poly(params, seed=b"acc5-a")
    grads = rng.uniform(-1, 1, (3, 4))
    enc = {u: encrypt_update(krs[u], grads[u], a, rng) for u in roster}
    d_plain = [sq_norm_plain(g) for g in grads]
    p_cts = {}
    for u in roster:
        d_ct = sq_norm_encrypted(enc[u], krs[u].evk)
        p_cts[u] = rates_encrypted(d_ct, sum(d_plain), 3, readout=enc[u].readout)
    partials = {
        u: masked_partial_decrypt(krs[u], p_cts[u].c1, b"acc5-r", roster, rng)
        for u in roster
    }
    opened = combine_partials(p_cts, partials)
    rate_sum = float(opened[enc[0].readout])
    assert abs(rate_sum - 1.0) < 1e-2
    _pass(5, f"sum(p)=1 plain and encrypted ({rate_sum:.4f}), p monotone in d",
          time.perf_counter() - t0, 5)


def _desk_arm(config_name, aggregator, seeds):
    cfg = SimConfig.from_json(str(CONFIG_DIR / config_name))
    cfg = SimConfig(**{**cfg.__dict__, "aggregator": aggregator})
    finals, aasrs = [], []
    for seed in seeds:
        history, _ = run_experiment(cfg, seed)
        finals.append(history[-1].accuracy)
        aasrs.append(np.mean([m.aasr for m in history[-10:]]))
    return float(np.mean(finals)), float(np.mean(aasrs))


def test_criterion_06_attack_suppression_direction():
    """Desk attack task: norm weighting beats plain averaging on AASR without
    giving up accuracy (the claim is directional, not a magnitude match)."""
    t0 = time.perf_counter()
    seeds = (0, 1, 2, 3, 4)
    acc_fhefl, aasr_fhefl = _desk_arm("desk_attack.json", "fhefl", seeds)
    acc_fedavg, aasr_fedavg = _desk_arm("desk_attack.json", "fedavg", seeds)
    assert aasr_fhefl < aasr_fedavg
    assert acc_fhefl >= acc_fedavg
    _pass(6, f"AASR {aasr_fhefl:.3f} < {aasr_fedavg:.3f}, "
             f"acc {acc_fhefl:.3f} >= {acc_fedavg:.3f} (5 seeds)",
          time.perf_counter() - t0, 900)


def test_criterion_07_zero_attacker_parity():
    """No attackers: the weighting must not cost accuracy vs plain averaging."""
    t0 = time.perf_counter()
    seeds = (0, 1, 2, 3, 4)
    acc_fhefl, _ = _desk_arm("desk_clean.json", "fhefl", seeds)
    acc_fedavg, _ = _desk_arm("desk_clean.json", "fedavg", seeds)
    assert abs(acc_fhefl - acc_fedavg) < 0.01  # within one percentage point
    _pass(7, f"clean-task accuracy {acc_fhefl:.4f} vs {acc_fedavg:.4f} (5 seeds)",
          time.perf_counter() - t0, 600)


def test_criterion_08_norm_gap_threshold():
    t0 = time.perf_counter()
    assert corollary_threshold(8, 2, 1.0) == pytest.approx(54 / 14, abs=1e-12)
    assert corollary_threshold(4, 4, 7.0) == 0.0  # equal cohorts: no slack
    _pass(8, "threshold(8,2,1)=54/14 and the B==M -> 0 boundary",
          time.perf_counter() - t0, 1)


def test_criterion_09_production_preset_round_time():
    """fhefl-16384: a full 10-user encrypted round, one ciphertext pair each."""
    t0 = time.perf_counter()
    params = get_params("fhefl-16384")
    rng = np.random.default_rng(909)
    roster = list(range(10))
    krs = setup_pairwise(params, roster, epoch=0, master_seed=b"acc9")
    a = common_poly(params, seed=b"acc9-a")
    dim = 1024
    grads = rng.uniform(-1, 1, (10, dim))
    w_prev = rng.uniform(-1, 1, dim)
    enc = {u: encrypt_update(krs[u], grads[u], a, rng) for u in roster}
    w_enc = secure_aggregate_round(enc, krs, w_prev, 0.1, rng, round_tag=b"acc9")
    rates = non_poisoning_rates([sq_norm_plain(g) for g in grads])
    w_plain = weighted_aggregate_plain(w_prev, grads, rates, 0.1)
    np.testing.assert_allclose(w_enc, w_plain, rtol=1e-2, atol=1e-4)
    elapsed = time.perf_counter() - t0
    _pass(9, f"10-user round at N=16384, dim {dim}, matches oracle", elapsed, 300)


def test_criterion_10_gradient_check():
    """Analytic gradients vs central differences, both architectures."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    for i in range(50):
        name = "logreg" if i % 2 == 0 else "mlp"
        arch = Architecture(name, n_features=5, n_classes=3, hidden=4)
        w = rng.normal(0, 0.6, arch.dim)
        x = rng.normal(0, 1, (8, 5))
        y = rng.integers(0, 3, 8)
        _, g = loss_and_grad(arch, w, x, y)
        fd = np.zeros_like(w)
        h = 1e-5
        for k in range(arch.dim):
            wp, wm = w.copy(), w.copy()
            wp[k] += h
            wm[k] -= h
            fd[k] = (
                loss_and_grad(arch, wp, x, y)[0] - loss_and_grad(arch, wm, x, y)[0]
            ) / (2 * h)
        assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-4
    _pass(10, "50 instances, rel err < 1e-4, logreg and tanh MLP",
          time.perf_counter() - t0, 30)
