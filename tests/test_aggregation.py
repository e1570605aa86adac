"""Aggregation tests: rates, baselines, and the encrypted pipeline vs its
plain-domain oracle."""

import math
import re
from fractions import Fraction
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhefl.aggregation import (
    AGGREGATORS,
    coordinate_median,
    encrypt_update,
    fedavg,
    krum,
    make_aggregator,
    non_poisoning_rates,
    rates_encrypted,
    secure_aggregate_round,
    sq_norm_encrypted,
    sq_norm_plain,
    split_chunks,
    trimmed_mean,
    weighted_aggregate_plain,
)
from fhefl import aggregation as agg_mod
from fhefl.errors import EncodingError, LevelError, ParameterError, ProtocolError
from fhefl.he import (
    PlainVector,
    SecretKey,
    _he_mult_raw,
    _phase,
    _scaled_round,
    ciphertext_from_bytes,
    ciphertext_to_bytes,
    common_poly,
    decode,
    decrypt,
    encode,
    encode_monomial,
    encrypt,
    get_params,
    he_add,
    he_mult_relin,
    plain_affine,
    preset_names,
    reencrypt,
    round_plan,
)
from fhefl.multikey import PartialDecryption, aggregate_fresh, group_decrypt, setup_pairwise
from fhefl.ring import RingElement, Residues, coeffs_at, sample_error

import ring_reference as ref


@pytest.fixture(scope="module")
def hp():
    return get_params("test-16")


# ---------------------------------------------------------------------------
# plain statistics and rates
# ---------------------------------------------------------------------------


def test_sq_norm_plain_hand_values():
    assert sq_norm_plain([3.0, 4.0]) == 25.0
    assert sq_norm_plain(np.zeros(7)) == 0.0
    assert sq_norm_plain([1.0, 2.0, 3.0]) == 14.0


def test_rates_hand_case():
    np.testing.assert_allclose(non_poisoning_rates([1.0, 3.0]), [0.75, 0.25])


def test_rates_equal_distances_exact():
    for u in (2, 3, 7, 10):
        p = non_poisoning_rates(np.full(u, 4.2))
        assert np.array_equal(p, np.full(u, 1.0 / u))
    # all-zero degenerate round falls back to uniform too
    assert np.array_equal(non_poisoning_rates(np.zeros(5)), np.full(5, 0.2))


def test_rates_sum_bounds_monotone():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = int(rng.integers(2, 12))
        d = rng.integers(0, 10**6, size=u).astype(float)
        if d.max() == 0:
            d[0] = 1.0
        p = non_poisoning_rates(d)
        assert abs(p.sum() - 1.0) < 1e-12
        assert (p >= 0).all() and (p <= 1.0 / (u - 1) + 1e-15).all()
        order = np.argsort(d)
        distinct = np.diff(d[order]) > 0
        assert (np.diff(p[order])[distinct] < 0).all()  # strictly decreasing


def test_rates_scale_invariance():
    d = np.array([1.0, 3.0, 0.5, 2.25])
    base = non_poisoning_rates(d)
    assert np.array_equal(base, non_poisoning_rates(d * 2.0**13))  # exact
    np.testing.assert_allclose(non_poisoning_rates(d * 3.7), base, atol=1e-12)


def test_rates_validation():
    with pytest.raises(ParameterError):
        non_poisoning_rates([1.0])
    with pytest.raises(ParameterError):
        non_poisoning_rates([1.0, -2.0])
    with pytest.raises(ParameterError):
        non_poisoning_rates([1.0, np.nan])
    # decryption-noise negatives are forgiven
    p = non_poisoning_rates([1.0, 3.0, -1e-9])
    assert abs(p.sum() - 1.0) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 1e6), min_size=2, max_size=16), st.floats(1e-3, 1e6))
def test_rates_identity_property(d, bump):
    d = np.array(d)
    d[0] += bump  # keep the total positive
    p = non_poisoning_rates(d)
    assert abs(p.sum() - 1.0) < 1e-12
    assert (p >= 0).all()
    assert p.max() <= 1.0 / (len(d) - 1) + 1e-12


# ---------------------------------------------------------------------------
# plain aggregators
# ---------------------------------------------------------------------------


def test_weighted_aggregate_uniform_is_fedavg():
    rng = np.random.default_rng(1)
    mat = rng.normal(size=(6, 9))
    w = rng.normal(size=9)
    uniform = np.full(6, 1.0 / 6)
    got = weighted_aggregate_plain(w, mat, uniform, 0.3)
    assert np.array_equal(got, w - 0.3 * fedavg(mat))


def test_weighted_aggregate_hand_case():
    w = np.array([1.0, 1.0])
    mat = np.array([[2.0, 0.0], [0.0, 4.0]])
    out = weighted_aggregate_plain(w, mat, np.array([0.75, 0.25]), 1.0)
    np.testing.assert_allclose(out, [-0.5, 0.0])


def test_weighted_aggregate_single_contributor():
    g = np.array([1.0, -2.0, 3.0])
    mat = np.stack([g, np.zeros(3), np.zeros(3)])
    out = weighted_aggregate_plain(np.zeros(3), mat, np.array([0.5, 0.3, 0.2]), 2.0)
    np.testing.assert_allclose(out, -2.0 * 0.5 * g)


def test_weighted_aggregate_validation():
    with pytest.raises(ParameterError):
        weighted_aggregate_plain(np.zeros(3), np.ones((2, 3)), np.ones(3), 1.0)
    with pytest.raises(ParameterError):
        weighted_aggregate_plain(np.zeros(4), np.ones((2, 3)), np.full(2, 0.5), 1.0)


def test_baselines_fixed_point():
    g = np.array([0.5, -1.5, 2.0])
    mat = np.tile(g, (5, 1))
    for name in AGGREGATORS:
        np.testing.assert_allclose(make_aggregator(name)(mat), g, err_msg=name)


def test_trimmed_mean_hand_case():
    mat = np.array([[1.0], [2.0], [3.0], [4.0], [100.0]])
    assert trimmed_mean(mat, beta=0.2)[0] == 3.0


def test_trimmed_mean_validation():
    with pytest.raises(ParameterError):
        trimmed_mean(np.ones((4, 2)), beta=0.6)
    with pytest.raises(ParameterError):
        trimmed_mean(np.ones((2, 2)), beta=0.4)
    np.testing.assert_allclose(trimmed_mean(np.ones((3, 2)), beta=0.0), np.ones(2))


def test_krum_hand_case():
    mat = np.array([[0.0], [0.0], [0.0], [10.0]])
    assert krum(mat, f=1)[0] == 0.0


def test_krum_validation():
    with pytest.raises(ParameterError):
        krum(np.ones((3, 2)), f=1)  # U - f - 2 = 0
    with pytest.raises(ParameterError):
        krum(np.ones((5, 2)), f=-1)


def test_median_resists_outlier():
    mat = np.array([[1.0, 1.0], [1.1, 0.9], [0.9, 1.1], [50.0, -50.0]])
    np.testing.assert_allclose(coordinate_median(mat), [1.0, 1.0], atol=0.11)


def test_make_aggregator():
    assert make_aggregator("fedavg") is fedavg
    tm = make_aggregator("trimmed_mean")  # trimmed_mean's own beta, 0.1
    assert tm(np.array([[1.0], [2.0], [3.0], [4.0], [100.0]]))[0] == 3.0
    with pytest.raises(ParameterError, match="unknown aggregator"):
        make_aggregator("mystery")
    with pytest.raises(TypeError):
        make_aggregator("trimmed_mean", beta=0.2)


# ---------------------------------------------------------------------------
# encrypted updates and norms
# ---------------------------------------------------------------------------


def test_split_chunks():
    assert [c.tolist() for c in split_chunks(np.arange(5.0), 8)] == [[0, 1, 2, 3, 4]]
    chunks = split_chunks(np.arange(20.0), 8)
    assert [len(c) for c in chunks] == [8, 8, 8]
    assert chunks[2].tolist() == [16, 17, 18, 19, 0, 0, 0, 0]
    np.testing.assert_array_equal(np.concatenate(chunks)[:20], np.arange(20.0))


def test_encrypt_update_mirrored_packing(hp):
    # one ciphertext per chunk: g on coefficients 0..4 and g/2 mirrored from
    # n-1 down, so the readout is n-1 whatever the chunk length
    rings = setup_pairwise(hp, [0, 1], 0, b"agg-test")
    rng = np.random.default_rng(2)
    a = common_poly(hp, seed=b"r1")
    g = np.array([1.0, -2.0, 0.5, 3.0, -1.5])
    eu = encrypt_update(rings[0], g, a, rng)
    assert eu.n_chunks == 1 and eu.chunk_len == 5 and eu.readout == hp.ring.n - 1
    (ct,) = eu.chunks
    assert ct.direction == "mirrored"
    np.testing.assert_allclose(decrypt(ct, rings[0].sk).values, g, atol=1e-6)
    top = decode(_phase(ct, rings[0].sk.s, range(hp.ring.n - 5, hp.ring.n)), hp.scale)
    np.testing.assert_allclose(top, g[::-1] / 2, atol=1e-6)


def test_encrypt_update_chunked(hp):
    rings = setup_pairwise(hp, [0, 1], 0, b"agg-test")
    rng = np.random.default_rng(3)
    g = np.arange(20.0) / 10
    eu = encrypt_update(rings[0], g, common_poly(hp, seed=b"r2"), rng)
    assert eu.n_chunks == 3 and eu.chunk_len == hp.capacity and eu.readout == hp.ring.n - 1
    got = np.concatenate([decrypt(c, rings[0].sk).values for c in eu.chunks])
    np.testing.assert_allclose(got[:20], g, atol=1e-6)


@pytest.mark.parametrize("dim", [300, 650])
def test_encrypted_square_reads_the_exact_norm(dim):
    # one chunk and two at test-1024: the summed three-component squares of
    # an upload's chunks decrypt on n-1 to the exact negacyclic reference's
    # integer there, within their tracked noise, and that integer is the
    # squared norm at the product's scale
    params = get_params("test-1024")
    n = params.ring.n
    kr = setup_pairwise(params, [0, 1], 0, b"square")[0]
    rng = np.random.default_rng(21)
    grad = rng.uniform(-1, 1, dim)
    eu = encrypt_update(kr, grad, common_poly(params, seed=b"square-a"), rng)
    total, want = None, 0
    for ct, chunk in zip(eu.chunks, split_chunks(grad, params.capacity), strict=True):
        m = encode(params, PlainVector(chunk, "mirrored"), ct.level)
        packed = [int(c) for c in ref.int_coeffs(m)]
        want += ref.negacyclic_product(packed, packed)[n - 1]
        square = _he_mult_raw(ct, ct)
        total = square if total is None else he_add(total, square)
    assert len(total.comps) == 3 and eu.readout == n - 1
    got = int(_phase(total, kr.sk.s, [n - 1]).to_ints()[0])
    assert abs(got - want) <= 2.0**total.noise_log2
    assert abs(want / Fraction(total.scale) - Fraction(grad @ grad)) < 2.0**-30 * (grad @ grad)


@pytest.mark.parametrize("dim", [5, 20])
def test_chunk_len_is_the_ciphertexts_length(hp, dim):
    rings = setup_pairwise(hp, [0, 1], 0, b"agg-test")
    rng = np.random.default_rng(1)
    eu = encrypt_update(rings[0], np.ones(dim), common_poly(hp, seed=b"r2"), rng)
    assert eu.n_chunks == (1 if dim <= hp.capacity else 3)
    assert {ct.length for ct in eu.chunks} == {eu.chunk_len}
    assert "chunk_len" not in {f.name for f in fields(agg_mod.EncryptedUpdate)}


def test_sq_norm_encrypted_hand_case(hp):
    rings = setup_pairwise(hp, [0, 1], 0, b"agg-test")
    rng = np.random.default_rng(4)
    eu = encrypt_update(rings[0], np.array([1.0, 2.0, 3.0]), common_poly(hp, seed=b"r3"), rng)
    d_ct = sq_norm_encrypted(eu, rings[0].evk)
    out = decrypt(d_ct, rings[0].sk).values
    assert math.isclose(out[eu.readout], 14.0, abs_tol=1e-2)


def test_sq_norm_encrypted_matches_plain(hp):
    rings = setup_pairwise(hp, [0, 1], 0, b"agg-test")
    rng = np.random.default_rng(5)
    for dim in (1, 4, 8, 13, 20):
        g = rng.uniform(-2, 2, dim)
        eu = encrypt_update(rings[0], g, common_poly(hp, seed=b"r4"), rng)
        d_ct = sq_norm_encrypted(eu, rings[0].evk)
        got = decrypt(d_ct, rings[0].sk).values[eu.readout]
        assert math.isclose(got, sq_norm_plain(g), rel_tol=1e-3, abs_tol=1e-3)


def test_sq_norm_encrypted_zero(hp):
    rings = setup_pairwise(hp, [0, 1], 0, b"agg-test")
    rng = np.random.default_rng(6)
    eu = encrypt_update(rings[0], np.zeros(4), common_poly(hp, seed=b"r5"), rng)
    got = decrypt(sq_norm_encrypted(eu, rings[0].evk), rings[0].sk).values[eu.readout]
    assert abs(got) < 1e-3


# ---------------------------------------------------------------------------
# encrypted rates
# ---------------------------------------------------------------------------


def test_rates_encrypted_hand_case(hp):
    sk = SecretKey.generate(hp, b"rk")
    rng = np.random.default_rng(7)
    ct = encrypt(hp, [1.0], sk, common_poly(hp, seed=b"r6"), rng)
    p = decrypt(rates_encrypted(ct, 4.0, 2, readout=0), sk).values[0]
    assert math.isclose(p, 0.75, abs_tol=1e-2)


def test_rates_encrypted_boundary_and_uniform(hp):
    sk = SecretKey.generate(hp, b"rk")
    rng = np.random.default_rng(8)
    a = common_poly(hp, seed=b"r7")
    full = decrypt(rates_encrypted(encrypt(hp, [4.0], sk, a, rng), 4.0, 2, readout=0), sk).values[0]
    assert abs(full) < 1e-2  # d_u = sum boundary collapses to zero weight
    eq = decrypt(rates_encrypted(encrypt(hp, [1.0], sk, a, rng), 10.0, 10, readout=0), sk).values[0]
    assert math.isclose(eq, 0.1, abs_tol=1e-2)


def test_rates_encrypted_validation(hp):
    sk = SecretKey.generate(hp, b"rk")
    rng = np.random.default_rng(9)
    ct = encrypt(hp, [1.0], sk, common_poly(hp, seed=b"r8"), rng)
    with pytest.raises(ParameterError):
        rates_encrypted(ct, 0.0, 4, readout=0)
    with pytest.raises(ParameterError):
        rates_encrypted(ct, -1.0, 4, readout=0)
    with pytest.raises(ParameterError):
        rates_encrypted(ct, 4.0, 1, readout=0)
    with pytest.raises(TypeError):  # no default readout: it depends on the packing
        rates_encrypted(ct, 4.0, 2)


# ---------------------------------------------------------------------------
# the full encrypted round vs the plain oracle
# ---------------------------------------------------------------------------


def run_both(hp, n_users, dim, seed, master=b"pipe"):
    rng = np.random.default_rng(seed)
    rings = setup_pairwise(hp, range(n_users), 0, master)
    a = common_poly(hp, seed=b"pipe-a|" + bytes([seed % 256]))
    grads = rng.uniform(-2, 2, size=(n_users, dim))
    w_prev = rng.uniform(-1, 1, dim)
    eta = 0.5
    enc = {
        u: encrypt_update(rings[u], grads[u], a, rng) for u in range(n_users)
    }
    w_enc = secure_aggregate_round(
        enc, rings, w_prev, eta, rng, round_tag=b"t%d" % seed
    )
    rates = non_poisoning_rates([sq_norm_plain(g) for g in grads])
    w_plain = weighted_aggregate_plain(w_prev, grads, rates, eta)
    return w_enc, w_plain


def test_pipeline_matches_plain_oracle_small(hp):
    for seed in (0, 1, 2):
        w_enc, w_plain = run_both(hp, n_users=3, dim=6, seed=seed)
        np.testing.assert_allclose(w_enc, w_plain, rtol=1e-2, atol=1e-3)


def test_pipeline_matches_plain_oracle_chunked(hp):
    w_enc, w_plain = run_both(hp, n_users=3, dim=20, seed=5)
    np.testing.assert_allclose(w_enc, w_plain, rtol=1e-2, atol=1e-3)


def test_pipeline_matches_on_test1024():
    hp = get_params("test-1024")
    w_enc, w_plain = run_both(hp, n_users=4, dim=64, seed=11)
    np.testing.assert_allclose(w_enc, w_plain, rtol=1e-2, atol=1e-4)


# Bits of the opened step each preset's 3-user, dim-8 round keeps against the
# plain oracle: -log2(max |w_enc - w_plain| / max |step|).  Seeds 0-3 read at
# least 21.0, 22.1 and 42.6 bits at test-16, test-1024 and fhefl-16384.
PRECISION_FLOOR = {"test-16": 20, "test-1024": 21, "fhefl-8192": 20, "fhefl-16384": 40}


@pytest.mark.parametrize("name", [
    "test-16",
    "test-1024",
    pytest.param("fhefl-8192", marks=pytest.mark.xfail(
        strict=True,
        reason="the distance products open at scale 2^24 under sigma * 2^20 ~ 2^21.7 "
        "of flooding per partial decryption, so the opened distance total and "
        "every rate are off by percents (seed 0 keeps 6.5 bits)",
    )),
    "fhefl-16384",
])
def test_every_preset_round_meets_the_oracle(name):
    hp = get_params(name)
    w_enc, w_plain = run_both(hp, n_users=3, dim=8, seed=0)
    rng = np.random.default_rng(0)  # run_both's draws: the gradients, then w_prev
    rng.uniform(-2, 2, size=(3, 8))
    w_prev = rng.uniform(-1, 1, 8)
    np.testing.assert_allclose(w_enc, w_plain, rtol=1e-2, atol=1e-4)
    step = np.max(np.abs(w_plain - w_prev))
    assert np.max(np.abs(w_enc - w_plain)) <= 2.0 ** -PRECISION_FLOOR[name] * step


def test_pipeline_precision_beyond_partial_decryption_flooding():
    # The aggregate leg opens sum_u p_u * g_u through partial decryptions
    # flooded with sigma * 2^flood_sigma_bits noise.  The re-encrypted rate
    # carries that factor in its scale, so the opened step keeps far more
    # precision than the flooding would otherwise leave (about 2^-15 here).
    hp = get_params("test-1024")
    rng = np.random.default_rng(17)
    rings = setup_pairwise(hp, range(4), 0, b"pipe7")
    a = common_poly(hp, seed=b"pipe7-a")
    grads = rng.uniform(-1, 1, size=(4, 64))
    w_prev = rng.uniform(-1, 1, 64)
    enc = {u: encrypt_update(rings[u], grads[u], a, rng) for u in range(4)}
    w_enc = secure_aggregate_round(enc, rings, w_prev, 0.1, rng, round_tag=b"pipe7")
    rates = non_poisoning_rates([sq_norm_plain(g) for g in grads])
    w_plain = weighted_aggregate_plain(w_prev, grads, rates, 0.1)
    step = np.max(np.abs(w_plain - w_prev))
    assert np.max(np.abs(w_enc - w_plain)) < 2.0**-22 * step


# the round's plan per preset: the upload (and key) level, the level the
# distances open at, the rates' scale and the aggregate level.  Every preset
# uploads at level 2, the lowest level that opens a distance a level down
# and holds the aggregate
ROUND_PLAN = {
    "test-16": (2, 1, 2.0**60, 2),
    "test-1024": (2, 1, 2.0**60, 2),
    "fhefl-8192": (2, 1, 2.0**45, 2),
    "fhefl-16384": (2, 1, 2.0**80, 2),
}


@pytest.mark.parametrize("name", preset_names())
def test_round_plan_pins_every_leg(name):
    params = get_params(name)
    plan = round_plan(params)
    got = (plan.upload_level, plan.distance_level, plan.rate_scale, plan.aggregate_level)
    assert got == ROUND_PLAN[name]
    # a fresh share d_u / ((U-1) * sum_d) sits on the chain up to the
    # aggregate level at the rate scale, and the rate map by -1 keeps both
    sk = SecretKey.generate(params, seed=b"plan-sk")
    rng = np.random.default_rng(22)
    a = common_poly(params, seed=b"plan-a", level=plan.distance_level)
    d = encrypt(params, [3.0], sk, a, rng, level=plan.distance_level, scale=plan.distance_scale)
    a2 = common_poly(params, seed=b"plan-a2", level=plan.aggregate_level)
    fresh = reencrypt(d, sk, a2, rng, index=0, scale=plan.rate_scale, total=10.0)
    assert (fresh.level, fresh.special) == (plan.aggregate_level, False)
    assert fresh.c0.moduli == params.ring.chain[: plan.aggregate_level + 1]
    rate = plain_affine(fresh, -1, 1.0)
    assert (rate.level, rate.special, rate.scale) == (plan.aggregate_level, False, plan.rate_scale)
    assert decrypt(rate, sk).values[0] == pytest.approx(1.0 - 3.0 / 10.0, abs=1e-6)


def test_readme_round_plan_table():
    # the README's level plan is round_plan's, preset by preset (the rate
    # scale as a power of two)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cells = r" +\| (\d+)" * 2 + r" +\| 2\^(\d+) +\| (\d+) +\|$"
    rows = re.findall(r"^\| `([\w-]+)`" + cells, readme, re.M)
    assert [name for name, *_ in rows] == preset_names()
    for name, upload, distance, rate, agg in rows:
        plan = round_plan(get_params(name))
        assert (int(upload), int(distance)) == (plan.upload_level, plan.distance_level)
        assert (2.0 ** int(rate), int(agg)) == (plan.rate_scale, plan.aggregate_level)


@pytest.mark.parametrize("name", ["fhefl-16384", "fhefl-8192", "test-1024"])
def test_round_levels_hold_every_opened_value(name):
    # rebuild the legs with real ciphertexts at the plan's levels and check
    # that every opened value below 2^_VALUE_BITS fits, and one level lower
    # would not
    params = get_params(name)
    plan = round_plan(params)
    kr = setup_pairwise(params, [0, 1], 0, b"levels")[0]
    rng = np.random.default_rng(21)
    eu = encrypt_update(kr, rng.uniform(-1, 1, 8), common_poly(params, seed=b"levels-a"), rng)
    value = 2.0**agg_mod._VALUE_BITS - 1
    l_agg = plan.aggregate_level

    def holds_only_from(level, scale):
        encode(params, [value], level, scale=scale)
        if level > 0:
            with pytest.raises(EncodingError):
                encode(params, [value], level - 1, scale=scale)

    # distance-sum: the distance opens at the lowest level that holds it
    d = sq_norm_encrypted(eu, kr.evk)
    holds_only_from(plan.distance_level, d.scale)
    # re-encrypt and rate: the fresh share and its rate at l_agg
    a2 = common_poly(params, seed=b"levels-a2", level=l_agg)
    fresh = reencrypt(d, kr.sk, a2, rng, index=eu.readout, scale=plan.rate_scale, total=10.0)
    p = plain_affine(fresh, -1, 1.0)
    assert (p.level, p.special) == (l_agg, False)
    # rate-sum check: the rates open at the product's own level
    encode(params, [value], l_agg, scale=p.scale)
    # aggregate: the product opens after its rescale
    prod = he_mult_relin(p, eu.chunks[0].mod_reduce_to(l_agg), kr.evk)
    holds_only_from(prod.level, prod.scale)


@pytest.mark.parametrize(
    "name, n_users, dim", [("test-16", 3, 12), ("test-1024", 3, 64), ("fhefl-16384", 2, 8)]
)
def test_round_runs_each_leg_at_its_level(monkeypatch, name, n_users, dim):
    # an instrumented round: the uploads, distances, fresh distances, rates
    # and aggregate products sit at the plan's level and scale, the distance
    # sum opens at the plan's level, each chunk of the update a level below
    # its products, and the one group decryption is the rate-sum check, at
    # the level and scale of the rates
    hp = get_params(name)
    plan = round_plan(hp)
    seen = {"upload": set(), "distance": set(), "rate": set(), "fresh": set()}
    seen.update(product=set(), check=[], partials=[])
    real = {
        attr: getattr(agg_mod, attr)
        for attr in (
            "masked_partial_decrypt", "group_decrypt", "he_mult_relin",
            "plain_affine", "reencrypt", "_he_mult_raw",
        )
    }

    def at(key, cts):
        for ct in cts if isinstance(cts, (list, tuple)) else [cts]:
            seen[key].add((ct.level, ct.scale))

    def partial(*args):
        out = real["masked_partial_decrypt"](*args)
        seen["partials"].append((out.elem.level, out.elem.data.shape[0]))
        return out

    def group(ct, gk):
        seen["check"].append((ct.level, ct.scale))
        return real["group_decrypt"](ct, gk)

    def mult(x, y, evk):
        at("upload", x)
        at("upload", y)
        out = real["he_mult_relin"](x, y, evk)
        seen["distance"].update(ct.scale for ct in out)
        return out

    def affine(ct, *args, **kw):
        out = real["plain_affine"](ct, *args, **kw)
        at("rate", out)
        return out

    def reencrypt(*args, **kw):
        out = real["reencrypt"](*args, **kw)
        seen["fresh"].add((out.level, out.special, out.scale))
        return out

    def raw(x, y, *rest):
        out = real["_he_mult_raw"](x, y, *rest)
        at("product", out)
        return out

    for attr, spy in zip(real, (partial, group, mult, affine, reencrypt, raw)):
        monkeypatch.setattr(agg_mod, attr, spy)
    w_enc, w_plain = run_both(hp, n_users=n_users, dim=dim, seed=23)
    np.testing.assert_allclose(w_enc, w_plain, rtol=1e-2, atol=1e-4)
    agg = plan.aggregate_level
    assert seen["upload"] == {(plan.upload_level, hp.scale)}
    assert seen["distance"] == {plan.distance_scale}
    # the fresh shares and their rates sit at the rate scale exactly
    assert seen["fresh"] == {(agg, False, plan.rate_scale)}
    (rate,) = seen["rate"]
    assert rate == (agg, plan.rate_scale)
    assert seen["check"] == [rate]
    assert seen["product"] == {(agg, rate[1] * hp.scale)}
    n_chunks, _ = agg_mod._chunk_shape(dim, hp.capacity)
    opened = [plan.distance_level] * n_users + [agg - 1] * (n_chunks * n_users)
    assert seen["partials"] == [(level, level + 1) for level in opened]


@pytest.mark.parametrize("name", ["fhefl-16384", "fhefl-8192", "test-1024"])
def test_encrypt_update_uploads_at_the_norm_level(name):
    # the round reads the uploads at the norm level and below, so they are
    # encrypted there, against one reduction of a that keeps the round seed
    params = get_params(name)
    kr = setup_pairwise(params, [0, 1], 0, b"upload-level")[0]
    rng = np.random.default_rng(33)
    g = rng.uniform(-1, 1, 8)
    a = common_poly(params, seed=b"upload-a")
    eu = encrypt_update(kr, g, a, rng)
    l_norm = round_plan(params).upload_level
    cts = eu.chunks
    assert {ct.level for ct in cts} == {l_norm}
    assert all(ct.c1 is cts[0].c1 for ct in cts)
    assert cts[0].c1 == a.mod_reduce_to(l_norm) and cts[0].c1.seed == b"upload-a"
    for ct in cts:
        np.testing.assert_allclose(decrypt(ct, kr.sk).values, g, atol=1e-6)
    # an a drawn below the norm level cannot carry an upload
    with pytest.raises(LevelError):
        encrypt_update(kr, g, common_poly(params, seed=b"upload-a", level=1), rng)


@pytest.mark.parametrize("name, dim, chunks", [("test-1024", 650, 2), ("fhefl-16384", 1024, 1)])
def test_encrypt_update_is_one_encryption_per_ciphertext(name, dim, chunks):
    # an upload is encrypted as one batch; it equals one encryption per
    # chunk, byte for byte, and leaves the rng where that sequence does.
    # The reference c0 is written out with the exact per-value rounding of
    # g and of g/2 and its own transform per ciphertext
    params = get_params(name)
    kr = setup_pairwise(params, [0, 1], 0, b"batch")[0]
    a = common_poly(params, seed=b"batch-a")
    g = np.random.default_rng(8).uniform(-1, 1, dim)
    rng, one_rng, ref_rng = (np.random.default_rng(9) for _ in range(3))
    eu = encrypt_update(kr, g, a, rng)
    level = round_plan(params).upload_level
    a_s = a.mod_reduce_to(level).mul(kr.sk.s.mod_reduce_to(level))
    split = split_chunks(g, params.capacity)
    assert len(split) == eu.n_chunks == chunks
    one_by_one, ref_c0 = [], []
    for c in split:
        ct = encrypt(params, PlainVector(c, "mirrored"), kr.sk, a, one_rng, level=level)
        one_by_one.append(ct)
        ints = [0] * params.ring.n
        for k, v in enumerate(c):
            ints[k] = _scaled_round(params.scale, float(v))
            ints[-1 - k] = _scaled_round(params.scale, float(v) / 2)
        m = RingElement.from_int_coeffs(params.ring, ints, level)
        e = sample_error(params.ring, ref_rng, params.sigma, level=level)
        ref_c0.append(a_s.add(m.add(e).to_ntt()))
    cts = eu.chunks
    assert [ct.c0 for ct in cts] == ref_c0
    assert [ciphertext_to_bytes(ct) for ct in cts] == [ciphertext_to_bytes(ct) for ct in one_by_one]
    state = rng.bit_generator.state
    assert state == one_rng.bit_generator.state == ref_rng.bit_generator.state


def test_readme_bytes_per_chunk_table():
    # one user's upload per chunk of n/2 coordinates: one mirrored ciphertext
    # at the norm level, its c1 sent as a 16-byte round seed
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([\w-]+)` +\| (\d+) +\| (\d+) +\| ([\d,]+) +\|$", readme, re.M)
    assert [name for name, *_ in rows] == ["test-1024", "fhefl-8192", "fhefl-16384"]
    for name, upload, top, size in rows:
        params = get_params(name)
        level = round_plan(params).upload_level
        sk = SecretKey.generate(params, seed=b"readme-sk")
        a = common_poly(params, seed=bytes(16))
        rng = np.random.default_rng(34)
        chunk = rng.uniform(-1, 1, params.capacity)
        ct = encrypt(params, PlainVector(chunk, "mirrored"), sk, a, rng, level=level)
        assert (int(upload), int(top)) == (level, params.ring.max_level)
        assert int(size.replace(",", "")) == len(ciphertext_to_bytes(ct))


def _upload(kr, g, a, rng, direction="mirrored", **kw):
    """The chunks of g built with ``encrypt`` at any level, scale and
    packing, which ``encrypt_update`` never sends."""
    packed = [PlainVector(c, direction) for c in split_chunks(g, kr.params.capacity)]
    cts = encrypt(kr.params, packed, kr.sk, a, rng, **kw)
    return agg_mod.EncryptedUpdate(kr.user_id, kr.epoch, cts, g.size)


def _refused_on_arrival(enc, krs, w_prev, match):
    """The round refuses the uploads before its first stage."""
    with pytest.raises(ProtocolError, match=match) as exc:
        secure_aggregate_round(enc, krs, w_prev, 0.5, np.random.default_rng(0), round_tag=b"r")
    assert not str(exc.value).startswith("[")


def test_round_refuses_uploads_above_the_norm_level():
    # at fhefl-16384 the uploads sit two levels below the top; top-level
    # uploads, alone or mixed with norm-level ones, are refused, not dropped
    params = get_params("fhefl-16384")
    krs = setup_pairwise(params, range(3), 0, b"upload-mix")
    grads = np.random.default_rng(41).uniform(-1, 1, (3, 8))
    a = common_poly(params, seed=b"upload-mix-a")
    rng = np.random.default_rng(43)
    top = {u: _upload(krs[u], grads[u], a, rng) for u in range(3)}
    fitting = {u: encrypt_update(krs[u], grads[u], a, rng) for u in range(3)}
    for enc in (top, {**fitting, 1: top[1]}):
        _refused_on_arrival(enc, krs, np.zeros(8), "sits at level 4, .* takes level 2")


def test_round_refuses_uploads_below_the_norm_level():
    # test-1024 uploads at level 1 would leave their distances at level 0,
    # which does not open one, and could not reach the aggregate level 2
    params = get_params("test-1024")
    krs = setup_pairwise(params, range(3), 0, b"low-uploads")
    rng = np.random.default_rng(44)
    grads = rng.uniform(-1, 1, (3, 8))
    a = common_poly(params, seed=b"low-uploads-a", level=1)
    low = {u: _upload(krs[u], grads[u], a, rng, level=1) for u in range(3)}
    _refused_on_arrival(low, krs, np.zeros(8), "user 0's upload sits at level 1, .* takes level 2")
    with pytest.raises(LevelError):
        encrypt_update(krs[0], grads[0], a, rng)


def test_round_refuses_extra_chunks(hp):
    # the chunk count follows from the model's dimension, for every user
    rng = np.random.default_rng(45)
    krs = setup_pairwise(hp, range(3), 0, b"chunks")
    a = common_poly(hp, seed=b"chunks-a")
    enc = {u: encrypt_update(krs[u], np.ones(4), a, rng) for u in range(3)}
    for u in (0, 2):
        extra = replace(enc[u], chunks=enc[u].chunks * 2)
        _refused_on_arrival({**enc, u: extra}, krs, np.zeros(4), rf"user {u} sent .* 2 chunks")


def test_round_refuses_off_scale_uploads_on_arrival(hp):
    # uploads at scale 2^30 would otherwise run on until the rate-sum check
    rng = np.random.default_rng(46)
    krs = setup_pairwise(hp, range(3), 0, b"off-scale")
    a = common_poly(hp, seed=b"off-scale-a")
    grads = rng.uniform(-1, 1, (3, 4))
    enc = {u: _upload(krs[u], grads[u], a, rng, level=2, scale=2.0**30) for u in range(3)}
    _refused_on_arrival(enc, krs, np.zeros(4), r"level 2, scale 2\^30, .* scale 2\^40")


@pytest.fixture(scope="module")
def boundary_round():
    """A test-1024 round with sum_u ||g_u||^2 = 2^32 (1 - 2^-10), the
    distance total it opened, and the plain oracle's model."""
    hp = get_params("test-1024")
    rng = np.random.default_rng(29)
    grads = rng.uniform(-1, 1, size=(4, 16)) * np.array([[1.0], [2.0], [3.0], [4.0]])
    grads *= math.sqrt(2.0**32 * (1 - 2.0**-10) / np.sum(grads**2))
    rings = setup_pairwise(hp, range(4), 0, b"bound")
    a = common_poly(hp, seed=b"bound-a")
    w_prev = rng.uniform(-1, 1, 16)
    enc = {u: encrypt_update(rings[u], grads[u], a, rng) for u in range(4)}
    opened = []
    real_combine = agg_mod.combine_partials

    def combine(cts, partials, read):
        opened.append(real_combine(cts, partials, read))
        return opened[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(agg_mod, "combine_partials", combine)
        w_enc = secure_aggregate_round(enc, rings, w_prev, 0.5, rng, round_tag=b"bound")
    rates = non_poisoning_rates([sq_norm_plain(g) for g in grads])
    w_plain = weighted_aggregate_plain(w_prev, grads, rates, 0.5)
    return grads, opened[0][0], w_prev, w_enc, w_plain


def test_round_opens_a_distance_sum_just_under_the_value_bound(boundary_round):
    # the distance-sum leg opens at its lowest level, which must still hold
    # the total; a wrapped total would leave the step nowhere near the oracle
    grads, sum_d, w_prev, w_enc, w_plain = boundary_round
    want = np.sum(grads**2)
    assert 2.0**31.99 < want < 2.0**32
    assert abs(sum_d - want) < 2.0**-30 * want
    step = w_plain - w_prev
    assert np.max(np.abs(w_enc - w_plain)) < 2.0**-6 * np.max(np.abs(step))


def test_round_refuses_a_wrapped_distance_sum():
    # at test-1024 the distance opens at level 1, whose modulus over the
    # distance scale is 2^55: a total of 1.5 * 2^54 wraps to about -2^53.
    # Clamped to 0 it would give every user the uniform rate 1/U and pass
    # the rate-sum check; the round must abort instead
    hp = get_params("test-1024")
    rng = np.random.default_rng(31)
    grads = rng.uniform(-1, 1, size=(2, 16))
    grads *= math.sqrt(1.5 * 2.0**54 / np.sum(grads**2))
    rings = setup_pairwise(hp, range(2), 0, b"wrap")
    a = common_poly(hp, seed=b"wrap-a")
    enc = {u: encrypt_update(rings[u], grads[u], a, rng) for u in range(2)}
    with pytest.raises(ProtocolError, match="wrapped"):
        secure_aggregate_round(enc, rings, np.zeros(16), 0.5, rng, round_tag=b"wrap")


def test_boundary_round_meets_the_per_coordinate_oracle(boundary_round):
    _, _, _, w_enc, w_plain = boundary_round
    np.testing.assert_allclose(w_enc, w_plain, rtol=1e-2, atol=1e-4)


def test_pipeline_identical_grads_is_fedavg(hp):
    rng = np.random.default_rng(12)
    rings = setup_pairwise(hp, range(3), 0, b"pipe2")
    a = common_poly(hp, seed=b"pipe2-a")
    g = rng.uniform(-1, 1, 6)
    enc = {u: encrypt_update(rings[u], g, a, rng) for u in range(3)}
    w_next = secure_aggregate_round(enc, rings, np.zeros(6), 1.0, rng, round_tag=b"pipe2")
    np.testing.assert_allclose(w_next, -fedavg(np.tile(g, (3, 1))), atol=1e-2)


def test_pipeline_downweights_large_norm(hp):
    # orthogonal unit gradients: coordinate u of the output reads off p_u
    rng = np.random.default_rng(13)
    n = 4
    rings = setup_pairwise(hp, range(n), 0, b"pipe3")
    a = common_poly(hp, seed=b"pipe3-a")
    scales = np.array([1.0, 1.0, 1.0, 10.0])
    grads = np.eye(n) * scales[:, None]
    enc = {u: encrypt_update(rings[u], grads[u], a, rng) for u in range(n)}
    w_next = secure_aggregate_round(enc, rings, np.zeros(n), 1.0, rng, round_tag=b"pipe3")
    implied = -w_next / scales
    assert implied[3] < 1.0 / n - 0.05
    assert all(implied[:3] > 1.0 / n)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the server cannot check under encryption that a chunk's mirror half "
    "is half its forward values mirrored: a zero mirror half gives d_u = 0 and "
    "the largest rate, 1/(U-1), and the rates still sum to 1",
)
def test_zero_reversed_half_does_not_raise_the_rate(hp):
    # orthogonal gradients as above, user 3's scaled 10x: coordinate u of the
    # opened step reads off p_u times user u's scale.  The cheating upload is
    # a forward packing of the gradient, whose mirror half is zero, flagged
    # as mirrored
    n = 4
    scales = np.array([1.0, 1.0, 1.0, 10.0])
    grads = np.eye(n) * scales[:, None]

    def implied_rates(zero_mirror: bool) -> np.ndarray:
        rng = np.random.default_rng(16)
        rings = setup_pairwise(hp, range(n), 0, b"zero-rev")
        a = common_poly(hp, seed=b"zero-rev-a")
        enc = {u: encrypt_update(rings[u], grads[u], a, rng) for u in range(n)}
        if zero_mirror:
            level = round_plan(hp).upload_level
            fwd = encrypt(hp, grads[3], rings[3].sk, a, rng, level=level)
            enc[3] = replace(enc[3], chunks=(replace(fwd, direction="mirrored"),))
        w_prev = np.zeros(n)
        w_next = secure_aggregate_round(enc, rings, w_prev, 1.0, rng, round_tag=b"zero-rev")
        return -(w_next - w_prev) / scales

    assert implied_rates(True)[3] <= implied_rates(False)[3] + 0.01


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the chunks of an upload share the round's a and the user's s_u, so "
    "the difference of two c0 parts is m_i - m_j plus small errors and opens "
    "without any key",
)
def test_an_upload_does_not_open_without_a_key():
    # the desk shape: dim 650 at test-1024 is two chunks of 512, the second
    # 138 values and zero padding.  In c0_0 - c0_1, coefficients 138..511
    # meet that padding, so they are chunk 0's own values
    params = get_params("test-1024")
    kr = setup_pairwise(params, [0, 1], 0, b"keyless")[0]
    grad = np.random.default_rng(17).uniform(-1, 1, 650)
    eu = encrypt_update(kr, grad, common_poly(params, seed=b"keyless-a"), np.random.default_rng(18))
    chunk0, chunk1 = eu.chunks
    (read,) = coeffs_at([chunk0.c0.sub(chunk1.c0)], range(eu.chunk_len))
    opened = decode(read, params.scale)
    tail = grad.size - eu.chunk_len  # chunk 1's values before its padding
    recovered = opened[tail:]
    assert np.abs(recovered - grad[tail : eu.chunk_len]).max() > 0.1


def _leak_round(tag: bytes):
    """The shape the known leaks were measured on: test-1024, 4 users, dim
    40, user 0's gradient 8x.  Returns the params, the keyrings, the
    gradients, the uploads, a function that runs the round and the plain
    oracle's next model."""
    params = get_params("test-1024")
    rng = np.random.default_rng(47)
    rings = setup_pairwise(params, range(4), 0, tag)
    grads = rng.uniform(-1, 1, (4, 40))
    grads[0] *= 8
    a = common_poly(params, seed=tag + b"-a")
    enc = {u: encrypt_update(rings[u], grads[u], a, rng) for u in range(4)}
    w_prev = rng.uniform(-1, 1, 40)
    rates = non_poisoning_rates([sq_norm_plain(g) for g in grads])
    oracle = weighted_aggregate_plain(w_prev, grads, rates, 1.0)

    def run():
        return secure_aggregate_round(enc, rings, w_prev, 1.0, rng, round_tag=tag)

    return params, rings, grads, enc, run, oracle


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the rate-sum check opens the rates under the group key sum_u s_u, "
    "which the server then holds, and the uploads' summed c0 under the round's "
    "a decrypts with it to the unweighted gradient sum",
)
def test_the_group_key_does_not_open_the_gradient_sum(monkeypatch):
    # the server's view is what the round hands it: the key that
    # reconstruct_group_key returns during the round
    params, _, grads, enc, run, _ = _leak_round(b"leak-gk")
    keys = []
    real = agg_mod.reconstruct_group_key

    def spy(*args):
        keys.append(real(*args))
        return keys[-1]

    monkeypatch.setattr(agg_mod, "reconstruct_group_key", spy)
    run()
    level = round_plan(params).aggregate_level
    total = aggregate_fresh({u: eu.chunks[0].mod_reduce_to(level) for u, eu in enc.items()})
    (gk,) = keys
    assert np.abs(group_decrypt(total, gk) - grads.sum(axis=0)).max() > 1.0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the rate-sum check asks only that the rates sum to within 0.05 of "
    "1: one user's small lie, or two lies that cancel, pass it and move the model",
)
@pytest.mark.parametrize("lies", [{0: 0.049}, {0: 0.5, 1: -0.5}], ids=["one", "cancelling"])
def test_a_lying_reencryption_aborts_or_leaves_the_model(monkeypatch, lies):
    # a liar re-encrypts its distance less delta * (U - 1) * sum_d, which
    # raises its rate (1 - d_u / sum_d) / (U - 1) by delta
    params, rings, grads, _, run, oracle = _leak_round(b"leak-lie")
    sum_d = float(np.sum(grads**2))
    unit = (len(grads) - 1) * sum_d
    liars = {id(rings[u].sk): shift for u, shift in lies.items()}
    real = agg_mod.reencrypt

    def lying_reencrypt(ct, sk, a, rng, *, index, **kw):
        shift = -liars.get(id(sk), 0.0) * unit
        lie = encode_monomial(params, shift, index, ct.level, scale=ct.scale)
        return real(replace(ct, comps=(ct.c0.add(lie), ct.c1)), sk, a, rng, index=index, **kw)

    monkeypatch.setattr(agg_mod, "reencrypt", lying_reencrypt)
    try:
        w_next = run()
    except ProtocolError:
        return
    assert np.abs(w_next - oracle).max() < 1e-3


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="no check covers a partial decryption: the README's threat model has "
    "users follow the partial-decryption legs, so a user that shifts its "
    "aggregate-leg share moves the opened update by exactly that shift",
)
def test_a_shifted_partial_decryption_aborts_or_leaves_the_model(monkeypatch):
    # user 0 subtracts an encoding of 0.5 from coordinate 0 of its share of
    # the aggregate opening, read a level below the products, at the rate's
    # scale times the gradient's divided by the dropped prime
    params, rings, _, _, run, oracle = _leak_round(b"leak-partial")
    plan = round_plan(params)
    scale = plan.rate_scale * params.scale / params.ring.chain[plan.aggregate_level]
    shift = np.zeros((1, 40), dtype=np.int64)
    shift[0, 0] = round(0.5 * scale)
    real = agg_mod.masked_partial_decrypt

    def shifted(kr, terms, tag, roster, rng):
        out = real(kr, terms, tag, roster, rng)
        if kr.user_id != 0 or b"|agg|" not in tag:
            return out
        return replace(out, elem=out.elem.sub(Residues.from_ints(params.ring, shift, out.elem.level)))

    monkeypatch.setattr(agg_mod, "masked_partial_decrypt", shifted)
    try:
        w_next = run()
    except ProtocolError:
        return
    assert np.abs(w_next - oracle).max() < 1e-3


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="an upload's wire header states its message bound, and a fresh "
    "ciphertext's bound is max |g_u| read off the plaintext, so the server "
    "learns each user's largest coordinate in the clear",
)
def test_an_upload_header_does_not_state_its_largest_coordinate():
    # user 0's gradient is 8x the others', so its largest coordinate differs
    params, _, grads, enc, _, _ = _leak_round(b"leak-bound")
    assert np.abs(grads[0]).max() != np.abs(grads[1]).max()
    bounds = [
        ciphertext_from_bytes(ciphertext_to_bytes(enc[u].chunks[0]), params).msg_bound
        for u in (0, 1)
    ]
    assert bounds[0] == bounds[1]


@pytest.mark.parametrize("dim, chunks", [(1, 1), (512, 1), (513, 2)])
def test_a_one_chunk_upload_is_one_ciphertext(dim, chunks):
    # up to n/2 coordinates an upload is a single ciphertext, so it holds no
    # pair of ciphertexts under one a and s_u whose difference opens without
    # a key; above n/2 the chunks do (the strict xfail above)
    params = get_params("test-1024")
    kr = setup_pairwise(params, [0, 1], 0, b"one-ct")[0]
    rng = np.random.default_rng(20)
    eu = encrypt_update(kr, rng.uniform(-1, 1, dim), common_poly(params, seed=b"one-ct-a"), rng)
    assert len(eu.chunks) == eu.n_chunks == chunks


def test_pipeline_zero_gradients_degenerate(hp):
    rng = np.random.default_rng(14)
    rings = setup_pairwise(hp, range(3), 0, b"pipe4")
    a = common_poly(hp, seed=b"pipe4-a")
    enc = {u: encrypt_update(rings[u], np.zeros(5), a, rng) for u in range(3)}
    w_prev = np.arange(5.0)
    w_next = secure_aggregate_round(enc, rings, w_prev, 1.0, rng, round_tag=b"pipe4")
    np.testing.assert_allclose(w_next, w_prev, atol=1e-2)


@pytest.mark.parametrize("seed", range(20))
def test_zero_gradient_round_is_uniform_at_every_seed(hp, seed):
    # with zero gradients the opened distance total is flooding noise alone,
    # positive about half the time; a total within the opening's noise of
    # zero takes the uniform rates (it used to give a slope of about
    # -1/((U-1) * noise) and abort at the rate-sum check in 9 of these seeds)
    rng = np.random.default_rng(seed)
    rings = setup_pairwise(hp, range(3), 0, b"pipe4")
    a = common_poly(hp, seed=b"pipe4-a")
    enc = {u: encrypt_update(rings[u], np.zeros(5), a, rng) for u in range(3)}
    w_prev = np.arange(5.0)
    w_next = secure_aggregate_round(enc, rings, w_prev, 1.0, rng, round_tag=b"pipe4")
    np.testing.assert_allclose(w_next, w_prev, atol=1e-2)


def test_an_opening_sends_only_its_read_set(hp, monkeypatch):
    # the distance-sum polynomial, opened whole, gave the roster sum of the
    # gradients' autocorrelations at every lag.  Each partial decryption now
    # carries the opening's read set alone, 1 coefficient per row for the
    # distance sum and chunk_len per row for each aggregate chunk, and each
    # opening decodes that set and no other coefficient
    sent, opened = [], []
    real_partial, real_combine = agg_mod.masked_partial_decrypt, agg_mod.combine_partials

    def partial(*args):
        out = real_partial(*args)
        blob = out.to_bytes()
        back = PartialDecryption.from_bytes(blob, hp)
        head = len(blob) - hp.ring.record_bytes(back.elem.level, False, back.elem.count)
        sent.append((back.elem.count, head))
        return out

    def combine(cts, partials, read):
        opened.append(len(read))
        return real_combine(cts, partials, read)

    monkeypatch.setattr(agg_mod, "masked_partial_decrypt", partial)
    monkeypatch.setattr(agg_mod, "combine_partials", combine)
    w_enc, w_plain = run_both(hp, n_users=3, dim=20, seed=6)  # 3 chunks of 8
    np.testing.assert_allclose(w_enc, w_plain, rtol=1e-2, atol=1e-3)
    head = 4 + 1 + len(hp.name) + 4 + 4 + 1 + 4  # magic, name, user, epoch, level, |R|
    assert sent == [(1, head)] * 3 + [(8, head)] * 9
    assert opened == [1, 8, 8, 8]


def test_pipeline_aborts_on_inflated_reencryption(hp, monkeypatch):
    # a cheating user re-encrypts triple their distance; the roster-wide
    # rate-sum check must abort the round
    import fhefl.aggregation as agg_mod

    rng = np.random.default_rng(15)
    rings = setup_pairwise(hp, range(3), 0, b"pipe5")
    a = common_poly(hp, seed=b"pipe5-a")
    grads = rng.uniform(-1, 1, size=(3, 5))
    enc = {u: encrypt_update(rings[u], grads[u], a, rng) for u in range(3)}

    real_reencrypt = agg_mod.reencrypt

    def inflating_reencrypt(ct, sk, a, rng, **kw):
        # reading the distance at a third of its scale triples it
        return real_reencrypt(replace(ct, scale=ct.scale / 3.0), sk, a, rng, **kw)

    monkeypatch.setattr(agg_mod, "reencrypt", inflating_reencrypt)
    with pytest.raises(ProtocolError, match="rate-sum-check"):
        secure_aggregate_round(enc, rings, np.zeros(5), 1.0, rng, round_tag=b"pipe5")


def test_pipeline_validation(hp):
    rng = np.random.default_rng(16)
    rings = setup_pairwise(hp, range(3), 0, b"pipe6")
    a = common_poly(hp, seed=b"pipe6-a")
    enc = {u: encrypt_update(rings[u], np.ones(4), a, rng) for u in range(3)}
    with pytest.raises(ProtocolError, match="two users"):
        secure_aggregate_round({0: enc[0]}, rings, np.ones(4), 1.0, rng, round_tag=b"pipe6")
    with pytest.raises(ProtocolError, match="keyring"):
        secure_aggregate_round(enc, {0: rings[0]}, np.ones(4), 1.0, rng, round_tag=b"pipe6")
    with pytest.raises(ProtocolError, match="dim"):
        secure_aggregate_round(enc, rings, np.ones(9), 1.0, rng, round_tag=b"pipe6")
    other = setup_pairwise(hp, range(3), 7, b"pipe6")
    mixed = dict(rings)
    mixed[1] = other[1]
    with pytest.raises(ProtocolError, match="epoch"):
        secure_aggregate_round(enc, mixed, np.ones(4), 1.0, rng, round_tag=b"pipe6")


def test_pipeline_requires_a_round_tag(hp):
    # a default tag would give every round of an epoch the same a2 and masks
    rng = np.random.default_rng(17)
    rings = setup_pairwise(hp, range(2), 0, b"pipe9")
    a = common_poly(hp, seed=b"pipe9-a")
    enc = {u: encrypt_update(rings[u], np.ones(4), a, rng) for u in range(2)}
    with pytest.raises(TypeError, match="round_tag"):
        secure_aggregate_round(enc, rings, np.zeros(4), 1.0, rng)


def test_pipeline_rejects_uploads_off_the_round_polynomial(hp):
    # the norm and aggregate stages decompose the products of the round's
    # shared a once for every user, so every chunk of every upload must
    # carry that a (dim 12 is two chunks at test-16)
    rng = np.random.default_rng(18)
    rings = setup_pairwise(hp, range(3), 0, b"pipe8")
    a = common_poly(hp, seed=b"pipe8-a")
    other = common_poly(hp, seed=b"pipe8-b")
    enc = {u: encrypt_update(rings[u], np.ones(12), a, rng) for u in range(3)}
    stray = encrypt_update(rings[2], np.ones(12), other, rng)
    for eu in (stray, replace(enc[2], chunks=(enc[2].chunks[0], stray.chunks[1]))):
        with pytest.raises(ProtocolError, match="public polynomial"):
            secure_aggregate_round(
                {**enc, 2: eu}, rings, np.zeros(12), 1.0, rng, round_tag=b"pipe8"
            )
    # the round takes every upload at its own level, never raises one
    low = _upload(rings[2], np.ones(12), a, rng, level=1)
    with pytest.raises(ProtocolError, match="sits at level 1"):
        secure_aggregate_round(
            {**enc, 2: low}, rings, np.zeros(12), 1.0, rng, round_tag=b"pipe8"
        )


def test_round_refuses_a_chunk_that_is_not_mirrored(hp):
    # a forward chunk's square has no norm on n-1, so the round refuses it
    # before its first stage, naming the user
    rng = np.random.default_rng(19)
    rings = setup_pairwise(hp, range(3), 0, b"pipe10")
    a = common_poly(hp, seed=b"pipe10-a")
    grads = rng.uniform(-1, 1, (3, 12))
    enc = {u: encrypt_update(rings[u], grads[u], a, rng) for u in range(3)}
    level = round_plan(hp).upload_level
    forward = _upload(rings[1], grads[1], a, rng, direction="forward", level=level)
    assert [ct.c1 for ct in forward.chunks] == [ct.c1 for ct in enc[1].chunks]
    _refused_on_arrival({**enc, 1: forward}, rings, np.zeros(12), "user 1's upload has a forward")
