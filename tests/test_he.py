"""HE layer tests: packing, encrypt/decrypt, products, affine maps, wire format.

Expected values are either tiny hand-computable cases (worked out with pen and
paper against the packing/product definitions) or plain-float references
computed right next to the assertion.
"""

import math
import struct
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhefl.errors import (
    EncodingError,
    LevelError,
    ParameterError,
    SerializationError,
)
import fhefl.he as he_mod
from fhefl.he import (
    Ciphertext,
    EvalKey,
    HeParams,
    PlainVector,
    SecretKey,
    _he_mult_raw,
    _open_level,
    _phase,
    _plaintext,
    _scaled_ints,
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
    relinearize,
    rescale,
)
from fhefl.multikey import aggregate_fresh
from fhefl.ring import RingElement, coeffs_at, sample_error, sample_uniform

import ring_reference as ref


@pytest.fixture(scope="module")
def hp():
    return get_params("test-16")


@pytest.fixture(scope="module")
def keys(hp):
    rng = np.random.default_rng(7)
    sk = SecretKey.generate(hp, seed=b"sk-test")
    evk = EvalKey.generate(hp, sk, rng)
    return sk, evk


def fresh(hp, sk, values, *, seed=1, direction="forward", level=None, scale=None):
    rng = np.random.default_rng(seed)
    a = common_poly(hp, seed=rng.bytes(16), level=level)
    pv = PlainVector(values, direction)
    return encrypt(hp, pv, sk, a, rng, level=level, scale=scale)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_preset_registry():
    assert set(preset_names()) == {"test-16", "test-1024", "fhefl-8192", "fhefl-16384"}
    with pytest.raises(ParameterError):
        get_params("nope")
    assert get_params("test-16") is get_params("test-16")  # cached


def test_test16_layout(hp):
    assert hp.ring.n == 16
    assert hp.chain_bits() == [53, 41, 41]
    assert hp.ring.special.bit_length() == 53
    assert hp.ring.special >= hp.ring.chain[0]
    assert hp.scale_bits == 40
    assert hp.ring.max_level == 2


def test_production_preset_budgets():
    p8 = get_params("fhefl-8192")
    assert p8.chain_bits() == [54, 26, 26, 26, 26]
    assert p8.total_logq() == 218 == p8.logq_budget
    p16 = get_params("fhefl-16384")
    assert p16.chain_bits() == [61, 60, 60, 60, 60]
    assert p16.total_logq() == 362  # actual chain
    assert p16.logq_budget == 438  # security-standard cap the chain stays under
    assert p16.total_logq() <= p16.logq_budget
    for p in (p8, p16):
        for q in (*p.ring.chain, p.ring.special):
            assert q % (2 * p.ring.n) == 1


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def test_encode_hand_residues(hp):
    # round(2^10 * 1.5) = 1536 at X^0, round(2^10 * -2.25) = -2304 at X^1
    el = encode(hp, [1.5, -2.25], scale=2.0**10)
    q0 = hp.ring.chain[0]
    assert int(el.data[0, 0]) == 1536
    assert int(el.data[0, 1]) == q0 - 2304
    assert not el.data[0, 2:].any()
    lifted = ref.int_coeffs(el)[:2]
    assert list(map(int, lifted)) == [1536, -2304]


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-(2.0**20), 2.0**20, allow_nan=False),
    st.floats(2.0**30, 2.0**50, allow_nan=False),
)
def test_encode_rounds_the_exact_product(hp, v, scale):
    # a float product would round scale * v to 53 bits first
    lifted = ref.int_coeffs(encode(hp, [v], scale=scale))
    assert int(lifted[0]) == round(Fraction(scale) * Fraction(v))


# scales of the fast path (powers of two >= 1) and of the exact one
_SCALES = [1.0, 2.0**10, 2.0**40, 2.0**60, 0.5, 3.0, 2.0**40 / 1.37]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_scaled_ints_match_the_exact_rounding(data):
    # the vectorised encoder against _scaled_round per value: exact ties at
    # .5, negatives, -0.0 and products on both sides of the 2^62 bound
    scale = data.draw(st.sampled_from(_SCALES))
    near = [2.0**62 - 512, 2.0**62, 2.0**62 + 1024, 2.0**63]  # float steps there
    value = st.one_of(
        st.floats(-(2.0**30), 2.0**30, allow_nan=False),
        st.integers(-(2**52), 2**52).map(lambda k: (k + 0.5) / scale),
        st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5]),
        st.sampled_from([s * x / scale for x in near for s in (1, -1)]),
    )
    values = data.draw(st.lists(value, min_size=1, max_size=30))
    got = _scaled_ints(scale, np.array(values))
    assert [int(x) for x in got] == [_scaled_round(scale, v) for v in values]
    power_of_two = scale >= 1 and math.frexp(scale)[0] == 0.5
    fast = power_of_two and max(abs(v * scale) for v in values) < 2**62
    assert got.dtype == (np.int64 if fast else object)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-(2**100), 2**100), min_size=1, max_size=16), st.sampled_from(_SCALES))
def test_decode_matches_the_per_value_conversion(ints, scale):
    params = get_params("test-16")
    level = params.ring.max_level
    elem = RingElement.from_int_coeffs(params.ring, ints, level)
    want = [float(int(x)) / scale for x in ref.int_coeffs(elem)[: len(ints)]]
    (read,) = coeffs_at([elem.to_ntt()], range(len(ints)))
    got = decode(read, scale)
    assert got.dtype == np.float64 and got.tolist() == want


# the default (top-level) key under the preset's name, then every level; each
# drawn once with no public seed and once on a given one
_EVK_LEVELS = [(name, None, name) for name in preset_names()] + [
    (name, level, f"{name}-{level}")
    for name in preset_names()
    for level in range(get_params(name).ring.max_level + 1)
]
_EVK_BUILDS = [pytest.param(name, level, None, id=key) for name, level, key in _EVK_LEVELS] + [
    pytest.param(name, level, bytes(range(32)), id=f"{key}-seeded")
    for name, level, key in _EVK_LEVELS
]


@pytest.mark.parametrize("name, level, a_seed", _EVK_BUILDS)
def test_evalkey_equals_the_full_product_build(name, level, a_seed):
    # a key holds its own half and the seed of its public half alone.  Its
    # public half is the seed's expansion, one tag per pair, formed anew on
    # each use; its own half is the build that multiplies s^2 by the whole
    # P_i matrix, zero outside chain row i, over those a_i and errors that
    # the rng draws one after another.  Without a public seed the rng draws
    # a 32-byte seed first; given one, it draws the errors alone.  A level-L
    # key's pairs are the top-level key's first L+1 without the rows above
    # L, apart from each pair's special row, which the sampler draws after
    # the chain rows the key holds
    params = get_params(name)
    ring = params.ring
    sk = SecretKey.generate(params, seed=b"evk-pin")
    evk = EvalKey.generate(params, sk, np.random.default_rng(41), level=level, a_seed=a_seed)
    top = EvalKey.generate(params, sk, np.random.default_rng(41), a_seed=a_seed)
    assert [f.name for f in fields(EvalKey)] == ["ks_b", "a_seed"]
    rng = np.random.default_rng(41)
    assert evk.a_seed == (rng.bytes(32) if a_seed is None else a_seed)
    level = ring.max_level if level is None else level
    ks_a = evk.ks_a
    assert evk.level == level and len(ks_a) == len(evk.ks_b) == level + 1
    assert evk.ks_a is not ks_a and evk.ks_a == ks_a
    s = sk.s.mod_reduce_to(level, special=True)
    s2 = s.mul(s)
    for i, got_a in enumerate(ks_a):
        a_i = sample_uniform(
            ring, evk.a_seed, level=level, special=True, ntt=True, tag=b"evk-a|%d" % i
        )
        e_i = sample_error(ring, rng, params.sigma, level=level, special=True).to_ntt()
        p_i = RingElement.zeros(ring, level, special=True, ntt=True)
        p_i.data[i, :] = np.uint64(ring.special % ring.chain[i])
        assert got_a == a_i
        assert evk.ks_b[i] == a_i.mul(s).add(e_i).add(p_i.mul(s2))
    for half, top_half in ((ks_a, top.ks_a), (evk.ks_b, top.ks_b)):
        for got, want in zip(half, top_half):
            assert got.mod_reduce_to(level) == want.mod_reduce_to(level)


def test_a_public_seed_that_is_not_bytes_is_refused(hp):
    sk = SecretKey.generate(hp, seed=b"evk-seeded")
    for bad in ("a text seed of many characters", 12345, bytes(15)):
        with pytest.raises(ParameterError, match="public seed"):
            EvalKey.generate(hp, sk, np.random.default_rng(1), a_seed=bad)


@pytest.mark.parametrize("name", ["test-16", "test-1024", "fhefl-16384"])
def test_a_key_at_any_level_relinearizes_within_the_tracked_bound(name):
    # a level-L key switches a product at every level l <= L that holds the
    # product, and the product's tracked noise bounds its measured error
    # there, before and after the rescale.  Dyadic inputs at a power-of-two
    # scale encode exactly, so the targets are exact integers
    params = get_params(name)
    top, delta, frac = params.ring.max_level, params.scale_bits, 20
    lowest = max(1, _open_level(params, params.scale**2))
    sk = SecretKey.generate(params, seed=b"evk-levels")
    rng = np.random.default_rng(43)
    nums = rng.integers(-(2**frac), 2**frac + 1, size=(2, 4))
    vals = nums / 2.0**frac
    want = [2 ** (2 * (delta - frac)) * int(v) for v in np.convolve(nums[0], nums[1])]
    for key_level in range(lowest, top + 1):
        evk = EvalKey.generate(params, sk, rng, level=key_level)
        for level in range(lowest, key_level + 1):
            a = common_poly(params, seed=rng.bytes(16), level=level)
            x, y = (encrypt(params, v, sk, a, rng, level=level) for v in vals)
            # the relinearized product stays on P, at P times the scale
            relin = relinearize(_he_mult_raw(x, y), evk)
            assert (relin.level, relin.special) == (level, True)
            p = params.ring.special
            assert _tracker_margin(relin, sk, [p * w for w in want]) >= 0, (key_level, level)
            prod = he_mult_relin(x, y, evk)
            q_l = params.ring.chain[level]
            assert prod.level == level - 1
            assert _tracker_margin(prod, sk, [Fraction(w, q_l) for w in want]) >= 0


def test_a_product_above_the_key_level_is_refused(hp, keys):
    # a key at level 1 holds no pair or row for q_2: a level-2 product is
    # refused before any work, naming both levels, and goes through once it
    # drops to the key's level
    sk, _ = keys
    evk = EvalKey.generate(hp, sk, np.random.default_rng(44), level=1)
    x = fresh(hp, sk, [1.5], seed=45)
    y = fresh(hp, sk, [2.0], seed=45)
    assert x.level == 2
    with pytest.raises(LevelError, match=r"level 2 is above its evaluation key's level 1"):
        he_mult_relin(x, y, evk)
    with pytest.raises(LevelError, match=r"level 2 is above its evaluation key's level 1"):
        relinearize(_he_mult_raw(x, y), evk)
    prod = he_mult_relin(x.mod_reduce_to(1), y.mod_reduce_to(1), evk)
    np.testing.assert_allclose(decrypt(prod, sk).values, [3.0], rtol=1e-6)


@pytest.mark.parametrize("name", preset_names())
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_plaintext_matches_int_coefficients(name, data):
    # the residues are built from the packed integers alone: as int64 when
    # they fit, as Python integers reduced row by row when they do not
    params = get_params(name)
    ring = params.ring
    level = data.draw(st.integers(0, ring.max_level))
    big_q, _ = ring.crt_constants(ring.moduli(level))
    half = big_q // 2 - 1
    edges = [0, 1, 2**63 - 1, 2**63, 2**63 + 1, half]
    value = st.one_of(
        st.integers(-half, half),
        st.sampled_from([s * e for e in edges if e <= half for s in (1, -1)]),
    )
    ints = data.draw(st.lists(value, min_size=1, max_size=min(params.capacity, 40)))
    size = len(ints)
    mirror = data.draw(st.none() | st.lists(value, min_size=size, max_size=size))
    coeffs = [0] * ring.n
    for k, x in enumerate(ints):
        coeffs[k] = x
        if mirror is not None:
            coeffs[ring.n - 1 - k] = mirror[k]
    got = _plaintext(params, ints, level, mirror)
    want = np.array([[x % q for x in coeffs] for q in ring.moduli(level)], dtype=np.uint64)
    assert (got.level, got.special, got.ntt) == (level, False, False)
    assert np.array_equal(got.data, want)


def test_reencrypt_keeps_the_exact_coefficient(hp, keys):
    # a value of 2^19 / 3 at an irregular scale: its float image has
    # resolution 2^-33, the fresh encryption keeps the exact phase
    sk, _ = keys
    ct = fresh(hp, sk, [0.0, 2.0**19 / 3.0], seed=75, scale=2.0**40 / 1.37)
    rng = np.random.default_rng(76)
    out = reencrypt(ct, sk, common_poly(hp, seed=b"re-a"), rng, index=1, scale=2.0**60, total=1)
    assert (out.level, out.length, out.scale) == (hp.ring.max_level, 1, 2.0**60)
    want = Fraction(int(_phase(ct, sk.s, [1]).to_ints()[0])) / Fraction(ct.scale)
    got = int(_phase(out, sk.s, [0]).to_ints()[0])
    assert abs(got - want * 2**60) < 64  # fresh encryption noise only
    np.testing.assert_allclose(decrypt(out, sk).values, [2.0**19 / 3.0], rtol=1e-12)


def test_reencrypt_divides_by_the_public_total(hp, keys, monkeypatch):
    # the share coeff / (ct.scale * total) is one exact rational, rounded
    # once at the fresh scale: a total of 3 * 10.3, which no float divides
    # exactly, and the fresh value within its encryption noise of it
    sk, _ = keys
    ct = fresh(hp, sk, [0.0, 2.0**19 / 3.0], seed=83, scale=2.0**40 / 1.37)
    total = 3 * 10.3
    coeff = int(_phase(ct, sk.s, [1]).to_ints()[0])
    want = _scaled_round(2.0**60, Fraction(coeff) / (Fraction(ct.scale) * Fraction(total)))
    encoded = []

    def plaintext(*args, real=he_mod._plaintext, **kw):
        encoded.append(list(args[1]))
        return real(*args, **kw)

    monkeypatch.setattr(he_mod, "_plaintext", plaintext)
    rng = np.random.default_rng(84)
    a = common_poly(hp, seed=b"re-t")
    out = reencrypt(ct, sk, a, rng, index=1, scale=2.0**60, total=total)
    assert encoded == [[want]]
    assert abs(int(_phase(out, sk.s, [0]).to_ints()[0]) - want) <= 2.0**out.noise_log2
    assert out.scale == 2.0**60
    for bad in (0, -1.0, math.nan):
        with pytest.raises(ParameterError, match="positive total"):
            reencrypt(ct, sk, a, rng, index=1, scale=2.0**60, total=bad)


def test_reencrypt_refuses_an_index_outside_the_ring(hp, keys):
    # the index names a coefficient 0..n-1: n is no coefficient, and -1 must
    # not wrap around to n-1
    sk, _ = keys
    ct = fresh(hp, sk, [0.25, -3.5], seed=79)
    a = common_poly(hp, seed=b"re-out")
    for index in (hp.ring.n, -1):
        with pytest.raises(ParameterError, match="read set"):
            reencrypt(ct, sk, a, np.random.default_rng(80), index=index, scale=2.0**40, total=1)


def test_reencrypt_encrypts_at_the_level_of_a(hp, keys):
    sk, _ = keys
    ct = fresh(hp, sk, [0.25, -3.5], seed=77)
    rng = np.random.default_rng(78)
    a = common_poly(hp, seed=b"re-low", level=1)
    out = reencrypt(ct, sk, a, rng, index=1, scale=2.0**50, total=1)
    assert (out.level, out.special) == (1, False) and out.c1 == a
    np.testing.assert_allclose(decrypt(out, sk).values, [-3.5], rtol=1e-9)


@pytest.mark.parametrize("name", preset_names())
def test_encode_monomial_is_encode_then_transform(name):
    # the one-value writer (the affine constant), in the NTT domain without
    # a transform: below the capacity byte for byte what encode gives, at or
    # above it (a norm's readout n-1) the same integer placed on the ring
    params = get_params(name)
    ring = params.ring
    n, cap = ring.n, params.capacity
    indices = range(n) if n <= 16 else (0, 1, cap - 1, cap, n - 1)
    for level in range(ring.max_level + 1):
        for index in indices:
            for value, scale in ((-(2.0**19) / 3.0, 2.0**20 / 1.37), (0.7, None)):
                if index < cap:
                    vec = np.zeros(index + 1)
                    vec[index] = value
                    want = encode(params, vec, level, scale=scale)
                else:
                    coeffs = [0] * n
                    coeffs[index] = _scaled_round(scale or params.scale, value)
                    want = RingElement.from_int_coeffs(ring, coeffs, level)
                assert encode_monomial(params, value, index, level, scale=scale) == want.to_ntt()
    for index in (n, -1):
        with pytest.raises(EncodingError):
            encode_monomial(params, 1.0, index, 0)
    with pytest.raises(EncodingError):
        encode_monomial(params, 2.0**80, 0, 0)


def test_encode_decode_roundtrip_directions(hp):
    v = np.array([0.5, -1.25, 3.0, 0.0, -7.5])
    for direction in ("forward", "mirrored"):
        el = encode(hp, PlainVector(v, direction))
        back = decode(coeffs_at([el.to_ntt()], range(len(v)))[0], hp.scale)
        np.testing.assert_allclose(back, v, atol=1e-9)


def test_reversed_is_mirrored(hp):
    # the mirrored packing also holds half of each value, reversed, on the
    # top coefficients, each rounded once from the exact product (half to
    # even: 3/2 -> 2, 1/2 -> 0)
    n = hp.ring.n
    el = encode(hp, PlainVector([2.0, 4.0, 6.0], "mirrored"), scale=1.0)
    ints = ref.int_coeffs(el)
    assert list(map(int, ints)) == [2, 4, 6] + [0] * (n - 6) + [3, 2, 1]
    el = encode(hp, PlainVector([3.0, 1.0], "mirrored"), scale=1.0)
    assert list(map(int, ref.int_coeffs(el)[n - 2 :])) == [0, 2]


def test_encode_capacity_and_overflow(hp):
    with pytest.raises(EncodingError):
        encode(hp, np.ones(hp.capacity + 1))
    # level 0 leaves only the 53-bit prime; 2^40 * 2^20 = 2^60 will not fit
    with pytest.raises(EncodingError):
        encode(hp, [float(2**20)], level=0)
    encode(hp, [float(2**20)], level=2)  # plenty of room higher up


# ---------------------------------------------------------------------------
# encrypt / decrypt
# ---------------------------------------------------------------------------


def test_encrypt_decrypt_roundtrip(hp, keys):
    sk, _ = keys
    rng = np.random.default_rng(3)
    for trial in range(20):
        v = rng.uniform(-50, 50, size=rng.integers(1, hp.capacity + 1))
        ct = fresh(hp, sk, v, seed=100 + trial)
        out = decrypt(ct, sk)
        np.testing.assert_allclose(out.values, v, atol=1e-6)


def test_shared_polynomial_is_reused(hp, keys):
    sk, _ = keys
    rng = np.random.default_rng(5)
    a = common_poly(hp, seed=b"round-3")
    ct1 = encrypt(hp, [1.0], sk, a, rng)
    ct2 = encrypt(hp, [2.0], sk, a, rng)
    assert ct1.c1 == ct2.c1
    assert ct1.c0 != ct2.c0


def test_common_poly_deterministic(hp):
    assert common_poly(hp, seed=b"x") == common_poly(hp, seed=b"x")
    assert common_poly(hp, seed=b"x") != common_poly(hp, seed=b"y")


def test_common_poly_seed_is_provenance_only(hp):
    # the seed names the round's polynomial on the wire: equality ignores
    # it, dropping primes keeps it and every arithmetic op drops it
    a = common_poly(hp, seed=b"x")
    assert a.seed == b"x" and common_poly(hp, seed="x").seed == b"x"
    drawn = sample_uniform(hp.ring, b"x", ntt=True, tag=b"common-a")
    assert drawn.seed is None and drawn == a
    low = a.mod_reduce_to(1)
    assert low.seed == b"x" and low == common_poly(hp, seed=b"x", level=1)
    for out in (a.add(a), a.sub(a), a.neg(), a.mul(a), a.mul_scalar(3), a.to_ntt(),
                a.to_coeff(), a.copy(), a.drop_last_modulus()):
        assert out.seed is None


def test_decrypt_at_lower_level(hp, keys):
    sk, _ = keys
    ct = fresh(hp, sk, [4.25, -1.0], level=1)
    assert ct.level == 1
    np.testing.assert_allclose(decrypt(ct, sk).values, [4.25, -1.0], atol=1e-6)


# ---------------------------------------------------------------------------
# addition
# ---------------------------------------------------------------------------


def test_add_hand_value(hp, keys):
    sk, _ = keys
    ct = he_add(fresh(hp, sk, [2.0], seed=11), fresh(hp, sk, [3.0], seed=12))
    assert math.isclose(decrypt(ct, sk).values[0], 5.0, abs_tol=1e-6)


def test_add_refuses_mixed_levels(hp, keys):
    # levels never align silently; the caller drops the fresher operand
    sk, _ = keys
    hi = fresh(hp, sk, [1.5, 2.5], seed=21)           # level 2
    lo = fresh(hp, sk, [0.5, -0.5], seed=22, level=1)  # level 1
    with pytest.raises(LevelError, match="level"):
        he_add(hi, lo)
    out = he_add(hi.mod_reduce_to(1), lo)
    assert out.level == 1
    np.testing.assert_allclose(decrypt(out, sk).values, [2.0, 2.0], atol=1e-6)


def test_add_rejects_mismatches(hp, keys):
    sk, _ = keys
    a = fresh(hp, sk, [1.0, 2.0], seed=31)
    with pytest.raises(LevelError):
        he_add(a, fresh(hp, sk, [1.0], seed=32, scale=2.0**20))
    with pytest.raises(EncodingError):
        he_add(a, fresh(hp, sk, [1.0], seed=33))
    with pytest.raises(EncodingError):
        he_add(a, fresh(hp, sk, [1.0, 2.0], seed=34, direction="mirrored"))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(-40, 40), min_size=1, max_size=8),
    st.lists(st.floats(-40, 40), min_size=1, max_size=8),
    st.integers(0, 2**31),
)
def test_add_homomorphism(xs, ys, seed):
    hp = get_params("test-16")
    sk = SecretKey.generate(hp, seed=b"prop-sk")
    m = min(len(xs), len(ys))
    xs, ys = np.array(xs[:m]), np.array(ys[:m])
    out = he_add(fresh(hp, sk, xs, seed=seed), fresh(hp, sk, ys, seed=seed + 1))
    np.testing.assert_allclose(decrypt(out, sk).values, xs + ys, atol=1e-5)


# ---------------------------------------------------------------------------
# multiplication and relinearization
# ---------------------------------------------------------------------------


def test_mult_scalar_hand_value(hp, keys):
    sk, evk = keys
    ct = he_mult_relin(fresh(hp, sk, [2.0], seed=41), fresh(hp, sk, [3.0], seed=42), evk)
    assert ct.level == 1
    assert math.isclose(decrypt(ct, sk).values[0], 6.0, rel_tol=1e-6)


def test_mirrored_product_correlation(hp, keys):
    # coefficient n-1 of the product of two mirrored packings is their inner
    # product 1*3 + 2*2 + 3*1 = 10; the product is forward over the whole
    # ring, and every coefficient is the exact negacyclic product's
    sk, evk = keys
    n = hp.ring.n
    x = fresh(hp, sk, [1.0, 2.0, 3.0], seed=43, direction="mirrored")
    y = fresh(hp, sk, [3.0, 2.0, 1.0], seed=44, direction="mirrored")
    ct = he_mult_relin(x, y, evk)
    assert (ct.length, ct.direction) == (n, "forward")
    want = ref.negacyclic_product(ref.mirrored_coeffs([1, 2, 3], n), ref.mirrored_coeffs([3, 2, 1], n))
    assert want[n - 1] == 10
    np.testing.assert_allclose(decrypt(ct, sk).values, [float(w) for w in want], atol=1e-6)


def test_squared_norm_readout(hp, keys):
    sk, evk = keys
    f = fresh(hp, sk, [3.0, 4.0], seed=45, direction="mirrored")
    out = decrypt(he_mult_relin(f, f, evk), sk).values
    assert math.isclose(out[hp.ring.n - 1], 25.0, rel_tol=1e-6)


def test_product_rule_for_mirrored_packings(hp, keys):
    # a length-1 scalar times a mirrored packing stays mirrored, with p * g
    # on its packed coefficients, in either order
    sk, evk = keys
    m = fresh(hp, sk, [1.0, -2.0, 0.5], seed=46, direction="mirrored")
    p = fresh(hp, sk, [0.25], seed=47)
    for x, y in ((p, m), (m, p)):
        out = he_mult_relin(x, y, evk)
        assert (out.length, out.direction) == (3, "mirrored")
        np.testing.assert_allclose(decrypt(out, sk).values, [0.25, -0.5, 0.125], atol=1e-6)
    # every other product with a mirrored operand is refused, either way round
    v = fresh(hp, sk, [1.0, 1.0], seed=48)
    for x, y in ((v, m), (m, v)):
        with pytest.raises(EncodingError, match="mirrored"):
            _he_mult_raw(x, y)
    # forward times forward keeps its wrap refusal: the whole-ring square
    # times a length-2 vector would wrap
    sq = he_mult_relin(m, m, evk)
    with pytest.raises(EncodingError, match="wraps"):
        _he_mult_raw(sq, fresh(hp, sk, [1.0, 1.0], seed=49, level=sq.level))


def test_square_forms_d1_from_one_product(hp, keys, monkeypatch):
    # a ciphertext times itself forms d1 = 2*x0*x1 from one ring product,
    # byte for byte the x0*y1 + x1*y0 of two equal operands
    sk, _ = keys
    m = fresh(hp, sk, [1.0, -2.0, 0.5], seed=50, direction="mirrored")
    d2 = m.c1.mul(m.c1)
    muls = []

    def counting(x, y, real=RingElement.mul):
        muls.append(1)
        return real(x, y)

    monkeypatch.setattr(RingElement, "mul", counting)
    square = _he_mult_raw(m, m, d2)
    assert len(muls) == 2
    general = _he_mult_raw(m, replace(m), d2)  # equal operands, not one
    assert len(muls) == 5
    monkeypatch.undo()
    assert ciphertext_to_bytes(square) == ciphertext_to_bytes(general)


@pytest.mark.parametrize("name, lengths", [("test-16", range(1, 9)), ("test-1024", (1, 257, 512))])
def test_mirrored_square_reads_the_exact_norm(name, lengths):
    # against the exact negacyclic product: the square of a mirrored packing
    # of any length up to the capacity holds sum_k g_k^2 on coefficient n-1,
    # and a length-1 scalar times it holds p * g on 0..L-1
    params = get_params(name)
    n = params.ring.n
    assert max(lengths) == params.capacity
    rng = np.random.default_rng(len(lengths))
    for length in lengths:
        g = [int(v) for v in rng.integers(-(2**20), 2**20, length)]
        m = ref.mirrored_coeffs(g, n)
        assert ref.negacyclic_product(m, m)[n - 1] == sum(v * v for v in g)
        p = Fraction(int(rng.integers(1, 2**20)), 7)
        scaled = ref.negacyclic_product([p] + [0] * (n - 1), m)
        assert scaled[:length] == [p * v for v in g]
        # encode puts exactly that packing on the ring, doubled so that the
        # halves are integers
        doubled = encode(params, PlainVector(2.0 * np.array(g), "mirrored"), scale=1.0)
        got = ref.int_coeffs(doubled)
        assert [int(c) for c in got] == [2 * c for c in m]


def test_multiplicative_identity(hp, keys):
    sk, evk = keys
    v = np.array([1.5, -2.0, 0.75, 4.0])
    ct = he_mult_relin(fresh(hp, sk, v, seed=47), fresh(hp, sk, [1.0], seed=48), evk)
    assert ct.length == len(v)
    np.testing.assert_allclose(decrypt(ct, sk).values, v, rtol=1e-6, atol=1e-6)


def test_three_component_decrypt_matches_relinearized(hp, keys):
    # the raw tensor ciphertext decrypts under s^2 to the same product
    sk, evk = keys
    x = fresh(hp, sk, [2.5, -1.0], seed=51)
    y = fresh(hp, sk, [4.0, 0.5], seed=52)
    raw = _he_mult_raw(x, y)
    assert len(raw.comps) == 3
    direct = decrypt(raw, sk).values
    lin = decrypt(rescale(relinearize(raw, evk), level=raw.level - 1), sk).values
    expected = np.convolve([2.5, -1.0], [4.0, 0.5])
    np.testing.assert_allclose(direct, expected, rtol=1e-6)
    np.testing.assert_allclose(lin, expected, rtol=1e-6)


def test_mult_level_bookkeeping(hp, keys):
    sk, evk = keys
    x = fresh(hp, sk, [1.25], seed=53)
    y = fresh(hp, sk, [-2.0], seed=54)
    prod = he_mult_relin(x, y, evk)
    assert prod.level == x.level - 1
    q_dropped = hp.ring.chain[x.level]
    assert math.isclose(prod.scale, hp.scale * hp.scale / q_dropped)
    # one more level available
    z = fresh(hp, sk, [3.0], seed=55, level=prod.level)
    prod2 = he_mult_relin(prod, z, evk)
    assert prod2.level == 0
    assert math.isclose(decrypt(prod2, sk).values[0], -7.5, rel_tol=1e-5)
    with pytest.raises(LevelError):
        he_mult_relin(prod2, prod2, evk)


def test_mult_requires_aligned_levels(hp, keys):
    sk, evk = keys
    x = fresh(hp, sk, [1.0], seed=56)
    y = fresh(hp, sk, [1.0], seed=57, level=1)
    with pytest.raises(LevelError):
        he_mult_relin(x, y, evk)
    np.testing.assert_allclose(
        decrypt(he_mult_relin(x.mod_reduce_to(1), y, evk), sk).values, [1.0], rtol=1e-6
    )


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.floats(-8, 8), min_size=1, max_size=6),
    st.lists(st.floats(-8, 8), min_size=1, max_size=6),
    st.integers(0, 2**31),
)
def test_mult_matches_convolution(xs, ys, seed):
    hp = get_params("test-16")
    sk = SecretKey.generate(hp, seed=b"prop-sk")
    evk = EvalKey.generate(hp, sk, np.random.default_rng(99))
    x, y = np.array(xs), np.array(ys)
    ct = he_mult_relin(fresh(hp, sk, x, seed=seed), fresh(hp, sk, y, seed=seed + 1), evk)
    np.testing.assert_allclose(decrypt(ct, sk).values, np.convolve(x, y), atol=1e-4)


# ---------------------------------------------------------------------------
# plaintext affine maps
# ---------------------------------------------------------------------------


def test_plain_affine_hand_value(hp, keys):
    sk, _ = keys
    ct = plain_affine(fresh(hp, sk, [4.0], seed=61), -0.25, 1.0)
    assert ct.level == 1
    assert abs(decrypt(ct, sk).values[0]) < 1e-6


def test_plain_affine_add_index(hp, keys):
    sk, _ = keys
    ct = plain_affine(fresh(hp, sk, [1.0, 2.0, 3.0], seed=62), 2.0, 10.0, add_index=2)
    np.testing.assert_allclose(decrypt(ct, sk).values, [2.0, 4.0, 16.0], atol=1e-5)


def test_plain_affine_adds_the_exactly_rounded_constant(hp, keys):
    # a rescaled scale above 2^53 (here about 2^59.5, not a power of two):
    # the additive constant 1/(U-1) of a roster of U lands on add_index as
    # the exact product rounded once, where the float product drops units
    sk, _ = keys
    ct = fresh(hp, sk, [0.5, -0.25], seed=64, scale=2.0**61 / 1.37)
    base = plain_affine(ct, -0.5, 0.0)
    assert base.scale > 2.0**53
    float_misses = 0
    for n_users in range(2, 65):
        add = 1.0 / (n_users - 1)
        want = _scaled_round(base.scale, add)
        float_misses += int(round(add * base.scale)) != want
        for index in (1, hp.ring.n - 1):
            out = plain_affine(ct, -0.5, add, add_index=index)
            step = (
                _phase(out, sk.s, [index]).to_ints()[0] - _phase(base, sk.s, [index]).to_ints()[0]
            )
            assert int(step) == want
    assert float_misses > 0


def test_plain_affine_zero_mult(hp, keys):
    sk, _ = keys
    ct = plain_affine(fresh(hp, sk, [7.0], seed=63), 0.0, 0.5)
    assert math.isclose(decrypt(ct, sk).values[0], 0.5, rel_tol=1e-6)


def test_plain_affine_refuses_a_multiplier_beyond_the_headroom(hp, keys):
    # a fractional multiplier is encoded at the scale: at a scale of 2^60,
    # 2^33.5 encodes above half of q_0*q_1 (2^93); an integer one is refused
    # above it as it is
    sk, _ = keys
    ct = fresh(hp, sk, [1.0], seed=68, level=1)
    wide = replace(ct, params=HeParams(ring=hp.ring, scale_bits=60, name="wide"))
    with pytest.raises(EncodingError, match="headroom"):
        plain_affine(wide, 2.0**33 + 0.5, 0.0)
    with pytest.raises(EncodingError, match="headroom"):
        plain_affine(ct, 2.0**93, 0.0)


def test_plain_affine_level_exhaustion(hp, keys):
    # a fractional multiplier costs a level; an integer one keeps it, at
    # level 0 too
    sk, _ = keys
    ct = fresh(hp, sk, [1.0], seed=64, level=0)
    with pytest.raises(LevelError):
        plain_affine(ct, 0.5, 0.0)
    out = plain_affine(ct, -3, 0.5)
    assert (out.level, out.scale) == (0, ct.scale)
    assert decrypt(out, sk).values[0] == pytest.approx(-2.5, abs=1e-9)


# ---------------------------------------------------------------------------
# noise tracking
# ---------------------------------------------------------------------------


def test_noise_budget_check_trips():
    hp = get_params("test-16")
    sk = SecretKey.generate(hp, seed=b"noisy")
    # a scale of 2^3 leaves no room above the fresh noise floor
    ct = fresh(hp, sk, [1.0], seed=65, scale=8.0)
    with pytest.raises(EncodingError, match="noise"):
        decrypt(ct, sk)


def test_noise_tracker_grows(hp, keys):
    sk, evk = keys
    x = fresh(hp, sk, [2.0], seed=66)
    prod = he_mult_relin(x, fresh(hp, sk, [3.0], seed=67), evk)
    assert prod.noise_log2 > x.noise_log2
    assert he_add(x, x).noise_log2 > x.noise_log2


def _tracker_margin(ct, sk, want) -> float:
    """log2 of the tracked bound over the measured error: the largest gap
    between ct's phase and the exact ``want`` (coefficient units) on
    coefficients 0..len(want)-1.  A ciphertext on the special prime (a
    relinearized product) has its phase lifted over q_0..q_l and P."""
    if ct.special:
        s = sk.s.mod_reduce_to(ct.level, special=True)
        got = ref.int_coeffs(ct.c0.sub(ct.c1.mul(s)).to_coeff())[: len(want)]
    else:
        got = _phase(ct, sk.s, range(len(want))).to_ints()
    err = max(abs(int(g) - w) for g, w in zip(got, want))
    return ct.noise_log2 - math.log2(max(float(err), 2.0**-30))


@pytest.mark.parametrize("name", ["test-16", "test-1024"])
def test_noise_tracker_bounds_the_measured_error(name):
    # dyadic inputs with 20 fractional bits at a power-of-two scale encode
    # exactly, so every target below is an exact rational
    params = get_params(name)
    ring = params.ring
    delta = params.scale_bits
    length, frac, users = params.capacity, 20, 4
    mult, add, add_index = -0.375, 0.25, ring.n - 1
    margins = {}
    for seed in range(20):
        rng = np.random.default_rng([seed, 1])
        sks = [SecretKey.generate(params, seed=b"tracker|%d|%d" % (seed, u)) for u in range(users)]
        sk = sks[0]
        evk = EvalKey.generate(params, sk, rng)
        a = common_poly(params, seed=rng.bytes(16))
        nums = rng.integers(-(2**frac), 2**frac + 1, size=(users, length))
        vals = nums / 2.0**frac
        x = encrypt(params, PlainVector(vals[0], "mirrored"), sk, a, rng)
        p = encrypt(params, vals[1][:1], sk, a, rng)
        ints = [2 ** (delta - frac) * int(v) for v in nums[0]]
        # the mirrored packing in coefficient units (the halves are exact),
        # its square over the whole ring (the norm on n-1) and a length-1
        # scalar times it (p * g on 0..L-1)
        packed = [int(c) for c in ref.mirrored_coeffs(ints, ring.n)]
        want_prod = [Fraction(w) for w in ref.negacyclic_product(packed, packed)]
        want_scaled = [2 ** (delta - frac) * int(nums[1][0]) * v for v in ints]
        checks = {
            "encrypt": (x, packed),
            "he_add": (
                he_add(x, encrypt(params, PlainVector(vals[2], "mirrored"), sk, a, rng)),
                [int(c) for c in ref.mirrored_coeffs(
                    [2 ** (delta - frac) * int(v) for v in nums[0] + nums[2]], ring.n
                )],
            ),
        }
        raw = _he_mult_raw(x, x)
        relin = relinearize(raw, evk)
        q_top = ring.chain[raw.level]
        rescaled = rescale(relin, level=raw.level - 1)
        affine = plain_affine(rescaled, mult, add, add_index=add_index)
        whole = plain_affine(rescaled, -3, add, add_index=add_index)
        q_mid = ring.chain[rescaled.level]
        out_scale = Fraction(2**delta) ** 2 / q_top * 2**delta / q_mid
        want_affine = [out_scale * Fraction(mult) * w / 2 ** (2 * delta) for w in want_prod]
        want_affine[add_index] += out_scale * Fraction(add)
        checks["_he_mult_raw"] = (raw, want_prod)
        checks["relinearize"] = (relin, [ring.special * w for w in want_prod])
        checks["rescale"] = (rescaled, [w / q_top for w in want_prod])
        checks["plain_affine"] = (affine, want_affine)
        want_whole = [-3 * w / q_top for w in want_prod]
        want_whole[add_index] += Fraction(_scaled_round(whole.scale, add))
        checks["plain_affine, integer"] = (whole, want_whole)
        scaled = _he_mult_raw(p, x)
        checks["scalar * mirrored"] = (scaled, want_scaled)
        checks["scalar * mirrored, rescaled"] = (
            rescale(relinearize(scaled, evk), level=scaled.level - 1),
            [Fraction(w) / q_top for w in want_scaled],
        )
        for op, (ct, want) in checks.items():
            margins.setdefault(op, []).append(_tracker_margin(ct, sk, want))
        total = aggregate_fresh(
            {u: encrypt(params, vals[u], sks[u], a, rng) for u in range(users)}
        )
        group = sks[0].s
        for other in sks[1:]:
            group = group.add(other.s)
        want = [2 ** (delta - frac) * int(v) for v in nums.sum(axis=0)]
        margins.setdefault("aggregate_fresh", []).append(
            _tracker_margin(total, SecretKey(group), want)
        )
    worst = {op: min(m) for op, m in margins.items()}
    assert all(m >= 0 for m in worst.values()), worst


def test_rescale_refuses_three_components(hp, keys):
    # the rounding of d2 reaches the phase times s^2, beyond the tracked
    # bound, so a product is relinearized before its rescale or opened
    # without one (fhefl.multikey divides the opened residues instead)
    sk, evk = keys
    x = fresh(hp, sk, [1.5], seed=81)
    y = fresh(hp, sk, [-0.5], seed=82, direction="mirrored")
    raw = _he_mult_raw(x, y)
    relin = relinearize(raw, evk)
    for bad in (raw, [relin, raw]):
        with pytest.raises(LevelError, match="two-component"):
            rescale(bad)
    assert rescale(relin, level=raw.level - 1).level == raw.level - 1


def test_level_is_the_components_level(hp, keys):
    # no ciphertext stores its level; every op's result reads it off its
    # components, which all share it
    sk, _ = keys
    assert "level" not in {f.name for f in fields(Ciphertext)}
    x = fresh(hp, sk, [1.5], seed=79)
    y = fresh(hp, sk, [2.0], seed=79)
    blob = ciphertext_to_bytes(x.mod_reduce_to(1))
    for ct, level in (
        (x, 2),
        (x.mod_reduce_to(1), 1),
        (rescale(x), 1),
        (_he_mult_raw(x, y), 2),
        (aggregate_fresh({0: x, 1: y}), 2),
        (ciphertext_from_bytes(blob, hp), 1),
    ):
        assert ct.level == level
        assert {c.level for c in ct.comps} == {level}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_ciphertext_wire_roundtrip(hp, keys):
    sk, _ = keys
    ct = fresh(hp, sk, [1.0, -2.5, 3.25], seed=71, direction="mirrored")
    blob = ciphertext_to_bytes(ct)
    back = ciphertext_from_bytes(blob, hp)
    assert back.level == ct.level
    assert back.scale == ct.scale
    assert back.length == ct.length
    assert back.direction == ct.direction
    assert back.noise_log2 == ct.noise_log2
    assert back.msg_bound == ct.msg_bound
    assert all(a == b for a, b in zip(back.comps, ct.comps))
    np.testing.assert_allclose(decrypt(back, sk).values, [1.0, -2.5, 3.25], atol=1e-6)


def test_ciphertext_wire_reader_takes_its_params(hp, keys):
    # the params are required, and a record of another preset is refused
    sk, _ = keys
    blob = ciphertext_to_bytes(fresh(hp, sk, [1.0], seed=69))
    with pytest.raises(TypeError):
        ciphertext_from_bytes(blob)
    for other in (replace(hp, name="test-16b"), get_params("test-1024")):
        with pytest.raises(SerializationError, match="preset"):
            ciphertext_from_bytes(blob, other)


def test_ciphertext_wire_keeps_the_noise_bound(hp, keys):
    # a ciphertext decrypt refuses for its noise is refused after a byte
    # round trip too, and a product keeps its tracked bounds on the wire
    sk, evk = keys
    noisy = fresh(hp, sk, [1.0], seed=65, scale=8.0)
    assert noisy.noise_log2 > math.log2(noisy.scale) - 1
    back = ciphertext_from_bytes(ciphertext_to_bytes(noisy), hp)
    with pytest.raises(EncodingError, match="noise"):
        decrypt(back, sk)
    prod = he_mult_relin(fresh(hp, sk, [2.0], seed=66), fresh(hp, sk, [3.0], seed=67), evk)
    back = ciphertext_from_bytes(ciphertext_to_bytes(prod), hp)
    assert (back.noise_log2, back.msg_bound) == (prod.noise_log2, prod.msg_bound)


def test_ciphertext_wire_rejects_garbage(hp, keys):
    sk, _ = keys
    blob = ciphertext_to_bytes(fresh(hp, sk, [1.0], seed=72))
    with pytest.raises(SerializationError):
        ciphertext_from_bytes(b"XXXX" + blob[4:], hp)
    with pytest.raises(SerializationError):
        ciphertext_from_bytes(blob[: len(blob) // 2], hp)
    with pytest.raises(SerializationError):
        ciphertext_from_bytes(blob + b"\0", hp)
    with pytest.raises(SerializationError):
        ciphertext_from_bytes(b"", hp)
    # records of earlier wire versions: 1 and 2, whose components carried
    # their own layout headers and u32 lengths, and 3, whose packing flag 1
    # meant reversed
    assert blob[4] == 4
    for version in (b"\x01", b"\x02", b"\x03"):
        with pytest.raises(SerializationError, match="version"):
            ciphertext_from_bytes(blob[:4] + version + blob[5:], hp)


_RING, _SEED = 0, 1  # wire component kinds


def _head_len(blob):
    return 6 + blob[5] + struct.calcsize("<BBBIddd")


def _frame(kind, payload):
    """One wire component: the kind byte, a seed's length byte, the payload."""
    length = bytes((len(payload),)) if kind == _SEED else b""
    return bytes((kind,)) + length + payload


def _with_comps(blob, comps, *, noise_log2=None, msg_bound=None):
    """Re-frame a ciphertext blob around other (kind, payload) components,
    optionally with other header bounds."""
    head = bytearray(blob[: _head_len(blob)])
    head[6 + blob[5] + 1] = len(comps)
    if noise_log2 is not None:
        struct.pack_into("<d", head, len(head) - 16, noise_log2)
    if msg_bound is not None:
        struct.pack_into("<d", head, len(head) - 8, msg_bound)
    return bytes(head) + b"".join(_frame(k, c) for k, c in comps)


def test_ciphertext_wire_rejects_inconsistent_layouts(hp, keys):
    sk, evk = keys
    ct = fresh(hp, sk, [1.0, 2.0], seed=73)
    blob = ciphertext_to_bytes(ct)
    level_at = 6 + blob[5]
    parts = [(_RING, c.to_bytes()) for c in ct.comps]
    # a header level outside the chain
    bad = bytearray(blob)
    bad[level_at] = hp.ring.max_level + 1
    with pytest.raises(SerializationError, match="level"):
        ciphertext_from_bytes(bytes(bad), hp)
    # the header's level fixes each component's length, so a lower level
    # misframes the components that follow
    bad[level_at] = ct.level - 1
    with pytest.raises(SerializationError):
        ciphertext_from_bytes(bytes(bad), hp)
    # a packing flag outside {forward, mirrored}, and a mirrored record
    # longer than the packing capacity
    bad = bytearray(blob)
    bad[level_at + 2] = 2
    with pytest.raises(SerializationError, match="packing flag"):
        ciphertext_from_bytes(bytes(bad), hp)
    bad[level_at + 2] = 1
    struct.pack_into("<I", bad, level_at + 3, hp.capacity + 1)
    with pytest.raises(SerializationError, match="mirrored packed length"):
        ciphertext_from_bytes(bytes(bad), hp)
    struct.pack_into("<I", bad, level_at + 3, hp.capacity)
    assert ciphertext_from_bytes(bytes(bad), hp).direction == "mirrored"
    # component counts outside {2, 3}
    for comps in ([parts[0]], parts * 2):
        with pytest.raises(SerializationError, match="components"):
            ciphertext_from_bytes(_with_comps(blob, comps), hp)
    # residues of another layout have another length: a component at a
    # lower level is cut short, one with the special row leaves bytes over
    lower = ct.comps[1].mod_reduce_to(ct.level - 1).to_bytes()
    special = evk.ks_a[0].mod_reduce_to(ct.level, special=True).to_bytes()
    for odd, what in ((lower, "truncated"), (special, "trailing")):
        with pytest.raises(SerializationError, match=what):
            ciphertext_from_bytes(_with_comps(blob, [parts[0], (_RING, odd)]), hp)
    # the domain is the header's: coefficient-form residues read as NTT ones
    coeff = ct.comps[1].to_coeff()
    back = ciphertext_from_bytes(_with_comps(blob, [parts[0], (_RING, coeff.to_bytes())]), hp)
    assert back.c1.ntt and np.array_equal(back.c1.data, coeff.data)
    with pytest.raises(SerializationError, match="kind"):
        ciphertext_from_bytes(_with_comps(blob, [parts[0], (7, parts[1][1])]), hp)
    # bounds that no ciphertext has
    for bounds in ({"noise_log2": math.nan}, {"noise_log2": -1.0},
                   {"msg_bound": math.inf}, {"msg_bound": -0.5}):
        with pytest.raises(SerializationError, match="bound"):
            ciphertext_from_bytes(_with_comps(blob, parts, **bounds), hp)
    # the same components in full are a valid record, as is a product
    back = ciphertext_from_bytes(_with_comps(blob, parts), hp)
    assert all(a == b for a, b in zip(back.comps, ct.comps))
    raw = _he_mult_raw(ct, ct)
    back = ciphertext_from_bytes(ciphertext_to_bytes(raw), hp)
    assert all(a == b for a, b in zip(back.comps, raw.comps))


def test_ciphertext_wire_refuses_a_ciphertext_on_the_special_prime(hp, keys):
    # the header states chain elements at its level, so a ciphertext whose
    # components carry the special row (a relinearized product) has no
    # record: its residues would misframe the reader.  Rescaled by P it is a
    # chain ciphertext again, and travels
    sk, evk = keys
    ct = fresh(hp, sk, [1.0], seed=74)
    on_p = relinearize(_he_mult_raw(ct, ct), evk)
    assert on_p.special
    with pytest.raises(SerializationError, match="special prime"):
        ciphertext_to_bytes(on_p)
    down = rescale(on_p)
    back = ciphertext_from_bytes(ciphertext_to_bytes(down), hp)
    assert all(a == b for a, b in zip(back.comps, down.comps))
    assert decrypt(back, sk).values[0] == pytest.approx(1.0, abs=2.0**-30)


def test_reader_rebuilds_a_round_polynomial_once(hp, keys):
    # every record of a round carries the same seed: the reader keeps the
    # last polynomial it rebuilt, by (seed, level)
    sk, _ = keys
    a = common_poly(hp, b"once" * 4, level=1)
    x = encrypt(hp, [1.0], sk, a, np.random.default_rng(81), level=1)
    y = encrypt(hp, [2.0], sk, a, np.random.default_rng(82), level=1)
    bx = ciphertext_from_bytes(ciphertext_to_bytes(x), hp)
    by = ciphertext_from_bytes(ciphertext_to_bytes(y), hp)
    assert bx.c1 is by.c1 and bx.c1 == a
    assert not bx.c1.data.flags.writeable  # shared, so never written to
    b = common_poly(hp, b"twice" * 4, level=1)
    other = encrypt(hp, [1.0], sk, b, np.random.default_rng(83), level=1)
    bo = ciphertext_from_bytes(ciphertext_to_bytes(other), hp)
    assert bo.c1 is not bx.c1 and bo.c1 != bx.c1
    # the same seed at another level is another polynomial
    lower = ciphertext_from_bytes(ciphertext_to_bytes(x.mod_reduce_to(0)), hp)
    assert lower.c1 is not bx.c1 and lower.level == 0


@pytest.mark.parametrize("name", preset_names())
def test_seeded_c1_round_trips_at_every_level(name):
    # a fresh ciphertext's c1 travels as its seed, whether the round drew it
    # at the ciphertext's level or above and dropped primes to get there
    params = get_params(name)
    sk = SecretKey.generate(params, seed=b"wire-sk")
    rng = np.random.default_rng(75)
    seed = b"wire-a|" + name.encode()
    top = common_poly(params, seed)
    for level in range(params.ring.max_level + 1):
        for a in (common_poly(params, seed, level=level), top.mod_reduce_to(level)):
            ct = encrypt(params, [0.25, -0.5], sk, a, rng, level=level)
            assert ct.c1.seed == seed
            blob = ciphertext_to_bytes(ct)
            assert len(blob) == _head_len(blob) + 1 + len(ct.c0.to_bytes()) + 2 + len(seed)
            back = ciphertext_from_bytes(blob, params)
            assert back.level == level and back.comps == ct.comps
            assert back.c1.seed == seed
            assert ciphertext_to_bytes(back) == blob
            np.testing.assert_allclose(decrypt(back, sk).values, [0.25, -0.5], atol=1e-6)


def test_computed_c1_travels_in_full(hp, keys):
    # only the round's polynomial itself is sent as a seed: the c1 of a sum
    # or a product is computed, and so is every component of a raw product
    sk, evk = keys
    x = fresh(hp, sk, [1.5], seed=76)
    y = fresh(hp, sk, [-0.5], seed=77)
    for ct in (he_add(x, x), he_mult_relin(x, y, evk), _he_mult_raw(x, y), rescale(x)):
        assert all(c.seed is None for c in ct.comps)
        blob = ciphertext_to_bytes(ct)
        assert len(blob) == _head_len(blob) + sum(1 + len(c.to_bytes()) for c in ct.comps)
        assert ciphertext_from_bytes(blob, hp).comps == ct.comps
    # the sum of fresh uploads keeps their shared c1, which is still the seed
    total = aggregate_fresh({0: x, 1: fresh(hp, sk, [2.0], seed=76)})
    assert total.c1 is x.c1
    assert len(ciphertext_to_bytes(total)) == len(ciphertext_to_bytes(x))


def test_ciphertext_wire_rejects_misplaced_and_malformed_seeds(hp, keys):
    sk, _ = keys
    ct = fresh(hp, sk, [1.0], seed=78)
    blob = ciphertext_to_bytes(ct)
    seed = ct.c1.seed
    c0 = (_RING, ct.c0.to_bytes())
    # a seed in place of c0, or as any component of a three-component product
    for comps in ([(_SEED, seed), c0], [c0, (_SEED, seed), c0], [c0, c0, (_SEED, seed)]):
        with pytest.raises(SerializationError, match="seed"):
            ciphertext_from_bytes(_with_comps(blob, comps), hp)
    # a record cut inside the seed, its length byte, its kind byte or the c0
    for cut in (1, len(seed) // 2, len(seed) + 1, len(seed) + 2, len(seed) + 4):
        with pytest.raises(SerializationError, match="truncated"):
            ciphertext_from_bytes(blob[:-cut], hp)
    # a seed has a one-byte length: the longest one travels as a seed, and a
    # longer one's polynomial is written in full
    for n_bytes, kind in ((255, _SEED), (256, _RING)):
        a = common_poly(hp, b"s" * n_bytes, level=ct.level)
        long = replace(ct, comps=(ct.c0, a))
        blob = ciphertext_to_bytes(long)
        assert blob[_head_len(blob) + 1 + len(ct.c0.to_bytes())] == kind
        assert ciphertext_from_bytes(blob, hp).comps == long.comps


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ciphertext_wire_fuzz(hp, keys, data):
    # any corruption is either rejected with SerializationError or yields a
    # ciphertext whose components agree with its header, and whose record is
    # the input: a ciphertext has exactly one encoding
    sk, _ = keys
    blob = bytearray(ciphertext_to_bytes(fresh(hp, sk, [0.5, -1.5], seed=74)))
    head_len = _head_len(blob)
    # aim a third of the edits at the header, where the layout fields live,
    # and a third at the seeded c1 at the end
    regions = [(0, head_len + 16), (len(blob) - 40, len(blob)), (0, len(blob))]
    for _ in range(data.draw(st.integers(1, 4))):
        lo, hi = regions[data.draw(st.integers(0, 2))]
        pos = data.draw(st.integers(lo, hi - 1))
        blob[pos] = data.draw(st.integers(0, 255))
    cut = data.draw(st.integers(0, len(blob)))
    buf = bytes(blob[:cut]) if data.draw(st.booleans()) else bytes(blob)
    try:
        ct = ciphertext_from_bytes(buf, hp)
    except SerializationError:
        return
    assert len(ct.comps) in (2, 3)
    for c in ct.comps:
        assert (c.level, c.special, c.ntt) == (ct.level, False, True)
        assert c.data.shape == (ct.level + 1, hp.ring.n)
        assert (c.data < np.array(c.moduli, dtype=np.uint64)[:, None]).all()
    assert 1 <= ct.length <= hp.ring.n
    assert math.isfinite(ct.scale) and ct.scale > 0
    assert math.isfinite(ct.noise_log2) and ct.noise_log2 >= 0
    assert math.isfinite(ct.msg_bound) and ct.msg_bound >= 0
    assert ciphertext_to_bytes(ct) == buf
