"""Multi-user keying tests.

The load-bearing identities — pairwise masks cancelling over a roster, and
masked partial decryptions combining to the aggregate plaintext — are checked
exactly (structural ring equality) and against plain-float oracles.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhefl.errors import (
    EncodingError,
    LevelError,
    ParameterError,
    ProtocolError,
    SerializationError,
)
from fhefl.he import (
    EvalKey,
    HeParams,
    _he_mult_raw,
    _norm_level,
    _open_level,
    _scaled_ints,
    ciphertext_from_bytes,
    ciphertext_to_bytes,
    common_poly,
    encrypt,
    get_params,
    he_add,
    he_mult_relin,
    preset_names,
)
from fhefl.multikey import (
    MaskedKey,
    PartialDecryption,
    aggregate_fresh,
    combine_partials,
    group_decrypt,
    key_terms,
    mask_key,
    masked_partial_decrypt,
    opening_noise,
    reconstruct_group_key,
    setup_pairwise,
)
from fhefl.ring import RingElement, Residues, coeffs_at


@pytest.fixture(scope="module")
def hp():
    return get_params("test-16")


def make_rings(hp, n_users, epoch=0, master=b"mk-test"):
    return setup_pairwise(hp, range(n_users), epoch, master)


def sum_elems(elems):
    acc = None
    for e in elems:
        acc = e.copy() if acc is None else acc.add(e)
    return acc


# ---------------------------------------------------------------------------
# key masking
# ---------------------------------------------------------------------------


def test_masks_cancel_pairwise(hp):
    rings = make_rings(hp, 2)
    roster = [0, 1]
    masked = sum_elems(mask_key(rings[u], roster).elem for u in roster)
    raw = sum_elems(rings[u].sk.s for u in roster)
    assert masked == raw  # exact: the two masks are the same element, opposite sign


@pytest.mark.parametrize("n_users", [2, 3, 5, 8])
def test_group_key_is_key_sum(hp, n_users):
    rings = make_rings(hp, n_users)
    roster = list(range(n_users))
    gk = reconstruct_group_key([mask_key(rings[u], roster) for u in roster], roster)
    assert gk == sum_elems(rings[u].sk.s for u in roster)


def test_subroster_masks_still_cancel(hp):
    # masks are per-roster: a 3-user subset of a 5-user population works
    rings = make_rings(hp, 5)
    roster = [0, 2, 4]
    gk = reconstruct_group_key([mask_key(rings[u], roster) for u in roster], roster)
    assert gk == sum_elems(rings[u].sk.s for u in roster)


def test_masked_key_is_not_the_raw_key(hp):
    rings = make_rings(hp, 3)
    mk = mask_key(rings[0], [0, 1, 2])
    assert mk.elem != rings[0].sk.s


def test_epoch_refresh_changes_secrets(hp):
    a = make_rings(hp, 2, epoch=0)
    b = make_rings(hp, 2, epoch=1)
    c = make_rings(hp, 2, epoch=0)
    assert a[0].sk.s != b[0].sk.s
    assert a[0].sk.s == c[0].sk.s  # deterministic per (master, user, epoch)
    assert a[0].pair_seeds == b[0].pair_seeds  # pairwise agreement is static


@pytest.mark.parametrize("name", preset_names())
def test_evaluation_keys_sit_at_the_upload_level(name):
    # the round relinearizes at the upload level and below, so each key
    # holds that level's pairs and rows alone: L+1 pairs, each of L+2 rows
    # (q_0..q_L and the special prime).  A key holds its own half ks_b and
    # the seed of its public half, which is the user's own, drawn from the
    # master seed, the user and the epoch
    params = get_params(name)
    level = _norm_level(params)
    rings = setup_pairwise(params, [0, 1, 2], 0, b"evk-level")
    for kr in rings.values():
        elems = kr.evk.ks_b + kr.evk.ks_a
        assert kr.evk.level == level and len(kr.evk.a_seed) == 32
        assert {(e.level, e.special, e.ntt) for e in elems} == {(level, True, True)}
        nbytes = sum(e.data.nbytes for e in kr.evk.ks_b)
        assert nbytes == (level + 1) * (level + 2) * params.ring.n * 8
    assert len({kr.evk.a_seed for kr in rings.values()}) == 3
    assert len({kr.evk.ks_a[0].data.tobytes() for kr in rings.values()}) == 3
    assert rings[0].evk.a_seed == setup_pairwise(params, [0], 0, b"evk-level")[0].evk.a_seed
    assert rings[0].evk.a_seed != setup_pairwise(params, [0], 1, b"evk-level")[0].evk.a_seed


def _key_residue(evks, s_sum):
    """sum_u b_0^u - a_0^0 * sum_u s_u on chain row 1, centred: what a server
    holding the keys and the group key reads there if every a_0^u is a_0^0."""
    ring = s_sum.params
    acc = evks[0].ks_b[0]
    for evk in evks[1:]:
        acc = acc.add(evk.ks_b[0])
    row = acc.sub(evks[0].ks_a[0].mul(s_sum)).to_coeff().data[1].astype(object)
    q = ring.chain[1]
    return max(abs(v - q if v > q // 2 else v) for v in row)


def test_the_keys_and_the_group_key_do_not_cancel_the_public_half(hp):
    # the rate-sum check reveals sum_u s_u.  With one a_i for the roster the
    # server could subtract a_i * sum_u s_u from sum_u b_i and read the
    # summed errors on every row but i (and sum_u s_u^2 on row i; for two
    # users (s_0 - s_1)^2 = 2 sum_u s_u^2 - (sum_u s_u)^2 then gives both
    # secrets).  Each user's own a_i leaves that residue uniform
    level = _norm_level(hp)
    rings = setup_pairwise(hp, [0, 1], 0, b"evk-crs")
    s_sum = rings[0].sk.s.add(rings[1].sk.s).mod_reduce_to(level, special=True)
    q = hp.ring.chain[1]
    assert _key_residue([kr.evk for kr in rings.values()], s_sum) > q // 8
    # the same keys over one shared seed: the residue is the summed errors
    shared = [
        EvalKey.generate(hp, kr.sk, np.random.default_rng(u), level=level, a_seed=bytes(32))
        for u, kr in rings.items()
    ]
    assert _key_residue(shared, s_sum) <= 2 * 6 * hp.sigma


def test_group_key_roster_validation(hp):
    rings = make_rings(hp, 3)
    roster = [0, 1, 2]
    keys = [mask_key(rings[u], roster) for u in roster]
    with pytest.raises(ProtocolError):
        reconstruct_group_key(keys[:2], roster)  # missing one
    with pytest.raises(ProtocolError):
        reconstruct_group_key(keys + [keys[0]], roster)  # duplicated
    with pytest.raises(ProtocolError):
        reconstruct_group_key(keys, [0, 1])  # roster mismatch
    with pytest.raises(ProtocolError):
        mask_key(rings[0], [1, 2])  # masking user outside roster


# ---------------------------------------------------------------------------
# mode A: aggregate fresh ciphertexts, decrypt under the group key
# ---------------------------------------------------------------------------


def test_fresh_aggregate_group_decrypt(hp):
    rings = make_rings(hp, 4)
    roster = list(range(4))
    rng = np.random.default_rng(8)
    a = common_poly(hp, seed=b"round-a")
    values = {u: rng.uniform(-5, 5, 3) for u in roster}
    cts = {u: encrypt(hp, values[u], rings[u].sk, a, rng) for u in roster}
    agg = aggregate_fresh(cts)
    gk = reconstruct_group_key([mask_key(rings[u], roster) for u in roster], roster)
    out = group_decrypt(agg, gk)
    np.testing.assert_allclose(out, sum(values.values()), atol=1e-5)


def test_fresh_aggregate_rejects_mixed_polynomials(hp):
    rings = make_rings(hp, 2)
    rng = np.random.default_rng(9)
    cts = {
        0: encrypt(hp, [1.0], rings[0].sk, common_poly(hp, seed=b"a1"), rng),
        1: encrypt(hp, [1.0], rings[1].sk, common_poly(hp, seed=b"a2"), rng),
    }
    with pytest.raises(ProtocolError):
        aggregate_fresh(cts)


# ---------------------------------------------------------------------------
# mode B: masked partial decryptions of per-user ciphertexts
# ---------------------------------------------------------------------------


def test_partial_decrypt_sum_fresh(hp):
    rings = make_rings(hp, 5)
    roster = list(range(5))
    rng = np.random.default_rng(10)
    a = common_poly(hp, seed=b"round-b")
    values = {u: rng.uniform(-3, 3, 4) for u in roster}
    cts = {u: encrypt(hp, values[u], rings[u].sk, a, rng) for u in roster}
    partials = {
        u: masked_partial_decrypt(rings[u], cts[u].c1, b"leg0", roster, rng)
        for u in roster
    }
    out = combine_partials(cts, partials)
    np.testing.assert_allclose(out, sum(values.values()), atol=1e-3)


def test_partial_decrypt_sum_of_products(hp):
    # the real pipeline shape: per-user ct*ct products have distinct c1 parts
    rings = make_rings(hp, 3)
    roster = [0, 1, 2]
    rng = np.random.default_rng(11)
    a = common_poly(hp, seed=b"round-c")
    expected = np.zeros(3)
    cts = {}
    for u in roster:
        x = rng.uniform(-2, 2, 2)
        y = rng.uniform(-2, 2, 2)
        cx = encrypt(hp, x, rings[u].sk, a, rng)
        cy = encrypt(hp, y, rings[u].sk, a, rng, direction="reversed")
        cts[u] = he_mult_relin(cx, cy, rings[u].evk)
        expected += np.convolve(x, y[::-1])
    assert cts[0].c1 != cts[1].c1  # products carry per-user c1 parts
    partials = {
        u: masked_partial_decrypt(rings[u], cts[u].c1, b"leg1", roster, rng)
        for u in roster
    }
    out = combine_partials(cts, partials)
    np.testing.assert_allclose(out, expected, atol=1e-3)


def test_partial_is_masked_and_tag_sensitive(hp):
    rings = make_rings(hp, 2)
    rng = np.random.default_rng(12)
    a = common_poly(hp, seed=b"round-d")
    ct = encrypt(hp, [1.0], rings[0].sk, a, rng)
    (raw,) = coeffs_at([ct.c1.mul(rings[0].sk.s.mod_reduce_to(ct.level))], range(hp.ring.n))
    p1 = masked_partial_decrypt(rings[0], ct.c1, b"t1", [0, 1], rng)
    p2 = masked_partial_decrypt(rings[0], ct.c1, b"t2", [0, 1], rng)
    assert p1.elem != raw
    assert p1.elem != p2.elem


def test_mismatched_tags_do_not_cancel(hp):
    rings = make_rings(hp, 2)
    roster = [0, 1]
    rng = np.random.default_rng(13)
    a = common_poly(hp, seed=b"round-e")
    cts = {u: encrypt(hp, [1.0], rings[u].sk, a, rng) for u in roster}
    partials = {
        0: masked_partial_decrypt(rings[0], cts[0].c1, b"legA", roster, rng),
        1: masked_partial_decrypt(rings[1], cts[1].c1, b"legB", roster, rng),
    }
    out = combine_partials(cts, partials)
    assert not np.isclose(out[0], 2.0, atol=1.0)  # masks stayed in the sum


def test_combine_partials_validation(hp):
    rings = make_rings(hp, 3)
    roster = [0, 1, 2]
    rng = np.random.default_rng(14)
    a = common_poly(hp, seed=b"round-f")
    cts = {u: encrypt(hp, [1.0], rings[u].sk, a, rng) for u in roster}
    partials = {
        u: masked_partial_decrypt(rings[u], cts[u].c1, b"leg", roster, rng)
        for u in roster
    }
    short = dict(partials)
    del short[2]
    with pytest.raises(ProtocolError):
        combine_partials(cts, short)
    with pytest.raises(ProtocolError):
        combine_partials({}, {})
    wrong_epoch = dict(partials)
    wrong_epoch[1] = replace(partials[1], epoch=99)
    with pytest.raises(ProtocolError):
        combine_partials(cts, wrong_epoch)


# one mismatch per field of the adding rule, and the error it raises
_MISMATCHES = {
    "level": (lambda ct: ct.mod_reduce_to(ct.level - 1), LevelError),
    "component": (lambda ct: replace(ct, comps=ct.comps + (ct.c1,)), LevelError),
    "length": (lambda ct: replace(ct, length=ct.length + 1), EncodingError),
    "direction": (lambda ct: replace(ct, direction="reversed"), EncodingError),
    "scale": (lambda ct: replace(ct, scale=ct.scale * (1 + 1e-6)), LevelError),
}


def _add_with(op, rings, cts):
    if op == "he_add":
        return he_add(cts[0], cts[1])
    if op == "aggregate_fresh":
        return aggregate_fresh(cts)
    rng = np.random.default_rng(16)
    partials = {
        u: masked_partial_decrypt(rings[u], cts[u].c1, b"rule", [0, 1], rng) for u in (0, 1)
    }
    return combine_partials(cts, partials)


@pytest.mark.parametrize("mismatch", sorted(_MISMATCHES))
@pytest.mark.parametrize("op", ["he_add", "aggregate_fresh", "combine_partials"])
def test_one_adding_rule(hp, op, mismatch):
    # he_add and both roster sums refuse the same mismatches with the same
    # errors, and accept scales within a relative 1e-9
    rings = make_rings(hp, 2)
    rng = np.random.default_rng(17)
    a = common_poly(hp, seed=b"rule-a")
    cts = {u: encrypt(hp, [1.0, 2.0], rings[u].sk, a, rng) for u in (0, 1)}
    change, error = _MISMATCHES[mismatch]
    with pytest.raises(error, match=mismatch):
        _add_with(op, rings, {0: cts[0], 1: change(cts[1])})
    close = replace(cts[1], scale=cts[1].scale * (1 + 1e-12))
    _add_with(op, rings, {0: cts[0], 1: close})


def test_aggregate_fresh_refuses_mixed_scales():
    # 0.5 at 2^40 plus 0.5 at 2^60 once opened under the group key as 524288.5
    params = get_params("test-1024")
    rings = setup_pairwise(params, [0, 1], 0, b"mixed-scales")
    rng = np.random.default_rng(18)
    a = common_poly(params, seed=b"mixed-scales-a")
    cts = {
        0: encrypt(params, [0.5], rings[0].sk, a, rng, scale=2.0**40),
        1: encrypt(params, [0.5], rings[1].sk, a, rng, scale=2.0**60),
    }
    with pytest.raises(LevelError, match="scale"):
        aggregate_fresh(cts)


@pytest.mark.parametrize("name", preset_names())
def test_opened_products_stay_within_the_opening_bound(name):
    # the aggregate stage's opening: rate * gradient products left
    # three-component over the shared d2 = a2*a, opened on the packed
    # coefficients with the users' terms and the sum divided by q_level.
    # Against the exact product of the encoded integers the error stays
    # within opening_noise: the tracked noise / q, (U + 1) roundings of 1/2
    # and 6 sigma of flooding per share
    from fhefl.aggregation import encrypt_update

    params = get_params(name)
    users = [0, 1, 2]
    rings = setup_pairwise(params, users, 0, b"bound-" + name.encode())
    rng = np.random.default_rng(31)
    fresh_scale = params.scale * 2.0**params.flood_sigma_bits
    level = max(1, min(_open_level(params, fresh_scale * params.scale), _norm_level(params)))
    a = common_poly(params, seed=b"bound-a")
    a2 = common_poly(params, seed=b"bound-a2", level=level)
    rates = rng.uniform(0.0, 1.0, 3)
    grads = rng.uniform(-1.0, 1.0, (3, 6))
    xs = [encrypt(params, [p], rings[u].sk, a2, rng, level=level, scale=fresh_scale)
          for u, p in zip(users, rates)]
    ys = [encrypt_update(rings[u], grads[u], a, rng).fwd[0].mod_reduce_to(level) for u in users]
    d2 = xs[0].c1.mul(ys[0].c1)
    prods = {u: _he_mult_raw(x, y, d2) for u, x, y in zip(users, xs, ys)}
    read = range(6)
    (terms,) = key_terms(rings, [prods], read)
    partials = {
        u: masked_partial_decrypt(rings[u], terms[u], b"bound", users, rng) for u in users
    }
    assert {p.elem.level for p in partials.values()} == {level - 1}
    opened = combine_partials(prods, partials, read)
    exact = sum(
        int(_scaled_ints(fresh_scale, np.array([p]))[0])
        * np.array(_scaled_ints(params.scale, g), dtype=object)
        for p, g in zip(rates, grads)
    )
    want = np.array([float(Fraction(int(v)) / Fraction(fresh_scale * params.scale)) for v in exact])
    err = np.abs(opened - want).max()
    assert err <= opening_noise(prods.values())
    np.testing.assert_allclose(opened, rates @ grads, atol=1e-6)


def test_partial_roster_checks(hp):
    rings = make_rings(hp, 2)
    rng = np.random.default_rng(15)
    a = common_poly(hp, seed=b"round-g")
    ct = encrypt(hp, [1.0], rings[0].sk, a, rng)
    with pytest.raises(ProtocolError):
        masked_partial_decrypt(rings[0], ct.c1, b"t", [1], rng)  # self missing
    with pytest.raises(ProtocolError):
        masked_partial_decrypt(rings[0], ct.c1, b"t", [0, 1, 7], rng)  # unknown peer
    with pytest.raises(ProtocolError):
        masked_partial_decrypt(rings[0], ct.c1.to_coeff(), b"t", [0, 1], rng)


# ---------------------------------------------------------------------------
# wire formats
# ---------------------------------------------------------------------------


def test_masked_key_wire_roundtrip(hp):
    rings = make_rings(hp, 2)
    mk = mask_key(rings[0], [0, 1])
    back = MaskedKey.from_bytes(mk.to_bytes(), hp)
    assert (back.user_id, back.epoch) == (mk.user_id, mk.epoch)
    assert back.elem == mk.elem
    with pytest.raises(SerializationError):
        MaskedKey.from_bytes(b"nope", hp)


def test_partial_decryption_wire_roundtrip(hp):
    rings = make_rings(hp, 2)
    rng = np.random.default_rng(16)
    a = common_poly(hp, seed=b"round-h")
    ct = encrypt(hp, [2.0], rings[0].sk, a, rng)
    pd = masked_partial_decrypt(rings[0], ct.c1, b"t", [0, 1], rng)
    back = PartialDecryption.from_bytes(pd.to_bytes(), hp)
    assert (back.user_id, back.epoch) == (pd.user_id, pd.epoch)
    assert back.elem == pd.elem
    with pytest.raises(SerializationError):
        PartialDecryption.from_bytes(pd.to_bytes()[:6], hp)


@pytest.mark.parametrize("name", ["x" * 256, "\u00e9" * 128])
def test_preset_name_must_fit_its_wire_head(hp, name):
    # every record names its preset after one length byte
    with pytest.raises(ParameterError, match="255"):
        replace(hp, name=name)
    with pytest.raises(ParameterError, match="255"):
        HeParams(hp.ring, hp.scale_bits, name=name)


def test_longest_preset_name_round_trips_every_record(hp):
    hp255 = replace(hp, name="n" * 255)
    rings = make_rings(hp255, 2)
    rng = np.random.default_rng(17)
    ct = encrypt(hp255, [2.0], rings[0].sk, common_poly(hp255, seed=b"round-n"), rng)
    back = ciphertext_from_bytes(ciphertext_to_bytes(ct), hp255)
    assert all(x == y for x, y in zip(back.comps, ct.comps))
    mk = mask_key(rings[0], [0, 1])
    assert MaskedKey.from_bytes(mk.to_bytes(), hp255).elem == mk.elem
    pd = masked_partial_decrypt(rings[0], ct.c1, b"t", [0, 1], rng)
    assert PartialDecryption.from_bytes(pd.to_bytes(), hp255).elem == pd.elem


@pytest.mark.parametrize(
    "kind", ["ring element", "ciphertext", "masked key", "partial decryption"]
)
def test_wire_readers_refuse_residues_at_or_above_the_modulus(hp, kind):
    # an out-of-range residue is no element of Z_q; a ciphertext carrying one
    # would decrypt to garbage without any error
    rings = make_rings(hp, 2)
    rng = np.random.default_rng(18)
    ct = encrypt(hp, [2.0], rings[0].sk, common_poly(hp, seed=b"round-j"), rng)
    pd = masked_partial_decrypt(rings[0], ct.c1, b"t", [0, 1], rng)
    mk = mask_key(rings[0], [0, 1])
    elem, write, read = {
        "ring element": (
            ct.c0,
            RingElement.to_bytes,
            lambda b: RingElement.from_bytes(b, hp.ring, ct.level, False, True),
        ),
        "ciphertext": (
            ct.c0,
            lambda e: ciphertext_to_bytes(replace(ct, comps=(e, ct.c1))),
            lambda b: ciphertext_from_bytes(b, hp),
        ),
        "masked key": (
            mk.elem,
            lambda e: MaskedKey(hp, 0, 0, e).to_bytes(),
            lambda b: MaskedKey.from_bytes(b, hp),
        ),
        "partial decryption": (
            pd.elem,
            lambda e: PartialDecryption(hp, 0, 0, e).to_bytes(),
            lambda b: PartialDecryption.from_bytes(b, hp),
        ),
    }[kind]
    q = elem.moduli[-1]
    for residue in (q - 1, q, 2**64 - 1):
        bad = elem.copy()
        bad.data[-1, 0] = residue
        if residue < q:
            read(write(bad))
            continue
        with pytest.raises(SerializationError, match="modulus"):
            read(write(bad))


def _level_at(blob: bytes) -> int:
    """Offset of a share's level byte: magic, name length, name, user id, epoch."""
    return 5 + blob[4] + 8


def _share_refusals(cls, share, hp):
    """Records of ``share`` that its reader must refuse, by what is wrong."""
    blob = share.to_bytes()
    outside = bytearray(blob)
    outside[_level_at(blob)] = hp.ring.max_level + 1
    return {
        "v1 magic": cls.MAGIC[:3] + b"1" + blob[4:],
        "level outside the chain": bytes(outside),
        "cut residues": blob[:-1],
        "extra byte": blob + b"\0",
    }


@pytest.mark.parametrize("other", ["test-1024", "renamed"])
@pytest.mark.parametrize("cls", [MaskedKey, PartialDecryption])
def test_key_shares_refuse_another_preset(hp, cls, other):
    rings = make_rings(hp, 2)
    a = common_poly(hp, seed=b"round-k", level=1)
    share = (
        mask_key(rings[0], [0, 1])
        if cls is MaskedKey
        else masked_partial_decrypt(rings[0], a, b"t", [0, 1], np.random.default_rng(19))
    )
    params = get_params(other) if other != "renamed" else replace(hp, name="test-16b")
    with pytest.raises(SerializationError, match="preset"):
        cls.from_bytes(share.to_bytes(), params)


def test_masked_key_rejects_layouts_a_key_cannot_have(hp):
    rings = make_rings(hp, 2)
    mk = mask_key(rings[0], [0, 1])
    top = hp.ring.max_level
    assert mk.to_bytes()[:4] == b"FMK2"
    # below the top level a masked key is over the chain alone
    low = mask_key(rings[0], [0, 1], level=top - 1)
    assert (low.elem.level, low.elem.special) == (top - 1, False)
    assert MaskedKey.from_bytes(low.to_bytes(), hp) == low
    bad = {
        **_share_refusals(MaskedKey, mk, hp),
        # the level fixes the special row: without it the residues fall short
        "no special row at the top level": MaskedKey(
            hp, 0, 0, mk.elem.mod_reduce_to(top)
        ).to_bytes(),
        "a special row below the top level": MaskedKey(
            hp, 0, 0, mk.elem.mod_reduce_to(top - 1, special=True)
        ).to_bytes(),
    }
    for what, buf in bad.items():
        with pytest.raises(SerializationError):
            MaskedKey.from_bytes(buf, hp)
            pytest.fail(f"accepted a masked key with {what}")
    with pytest.raises(SerializationError, match="payload length"):
        MaskedKey.from_bytes(bad["a special row below the top level"], hp)


def test_partial_decryption_rejects_layouts_a_share_cannot_have(hp):
    rings = make_rings(hp, 2)
    rng = np.random.default_rng(17)
    a = common_poly(hp, seed=b"round-i", level=1)
    ct = encrypt(hp, [2.0], rings[0].sk, a, rng, level=1)
    pd = masked_partial_decrypt(rings[0], ct.c1, b"t", [0, 1], rng, read=[3, 0, 5])
    back = PartialDecryption.from_bytes(pd.to_bytes(), hp)
    assert (back.elem.level, back.elem.count) == (1, 3)
    assert pd.to_bytes()[:4] == b"FPD3"
    blob = pd.to_bytes()
    at = _level_at(blob) + 1  # the read-set size follows the level

    def count(k):
        return blob[:at] + k.to_bytes(4, "little") + blob[at + 4 :]

    bad = {
        **_share_refusals(PartialDecryption, pd, hp),
        "a read set it does not hold": count(2),
        "an empty read set": count(0),
        "a read set beyond the ring": count(hp.ring.n + 1),
        "a cut size": blob[: at + 2],
    }
    for what, buf in bad.items():
        with pytest.raises(SerializationError):
            PartialDecryption.from_bytes(buf, hp)
            pytest.fail(f"accepted a partial decryption with {what}")


@pytest.fixture(scope="module")
def shares(hp):
    rings = make_rings(hp, 2)
    a = common_poly(hp, seed=b"round-fuzz", level=1)
    return {
        MaskedKey: [mask_key(rings[0], [0, 1]), mask_key(rings[0], [0, 1], level=1)],
        PartialDecryption: [
            masked_partial_decrypt(rings[0], a, b"t", [0, 1], np.random.default_rng(20)),
            masked_partial_decrypt(rings[0], a, b"t", [0, 1], np.random.default_rng(20), read=[7]),
        ],
    }


@pytest.mark.parametrize("cls", [MaskedKey, PartialDecryption])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_key_share_wire_fuzz(hp, shares, cls, data):
    # any corruption or truncation of a masked key (at the top level or
    # below it) or of a partial decryption (of every coefficient or of one)
    # is either rejected with SerializationError or reads back a share at a
    # layout its class can have whose record is the input: a share has
    # exactly one encoding
    blob = bytearray(data.draw(st.sampled_from(shares[cls])).to_bytes())
    head_len = _level_at(blob) + 1 + 4 * (cls is PartialDecryption)
    # aim a third of the edits at the header and a third at the last residues
    regions = [(0, head_len), (len(blob) - 24, len(blob)), (0, len(blob))]
    for _ in range(data.draw(st.integers(1, 4))):
        lo, hi = regions[data.draw(st.integers(0, 2))]
        pos = data.draw(st.integers(max(lo, 0), hi - 1))
        blob[pos] = data.draw(st.integers(0, 255))
    cut = data.draw(st.integers(0, len(blob)))
    buf = bytes(blob[:cut]) if data.draw(st.booleans()) else bytes(blob)
    try:
        share = cls.from_bytes(buf, hp)
    except SerializationError:
        return
    elem, top = share.elem, hp.ring.max_level
    assert type(share) is cls and share.params == hp
    assert 0 <= elem.level <= top
    if cls is MaskedKey:
        assert (elem.special, elem.ntt) == (elem.level == top, True)
    else:
        assert isinstance(elem, Residues) and 1 <= elem.count <= hp.ring.n
    assert (elem.data < np.array(elem.moduli, dtype=np.uint64)[:, None]).all()
    assert share.to_bytes() == buf
