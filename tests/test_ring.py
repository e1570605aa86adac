"""Ring arithmetic tests against independent oracles.

The expected values here come from three places: a schoolbook negacyclic
multiplier (O(n^2) with explicit X^n = -1 sign wrap), exact integer rational
arithmetic for the rescale step, and tiny hand-computed cases small enough to
check on paper.
"""

import numpy as np
import pytest
import ring_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from fhefl.errors import DomainError, LevelError, ParameterError, SerializationError
from fhefl.he import (
    HeParams,
    PlainVector,
    SecretKey,
    common_poly,
    decrypt,
    encrypt,
    get_params,
    preset_names,
    reencrypt,
)
from fhefl.ntt import find_ntt_primes, is_prime
from fhefl.ring import (
    RingElement,
    RingParams,
    Residues,
    coeffs_at,
    ring_add,
    ring_mul,
    rns_digits,
    sample_error,
    sample_ternary,
    sample_uniform,
)


def schoolbook_negacyclic(a, b, q, n):
    """Reference negacyclic product: plain integer convolution with sign wrap."""
    c = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            k = i + j
            if k < n:
                c[k] = (c[k] + ai * bj) % q
            else:
                c[k - n] = (c[k - n] - ai * bj) % q
    return c


@pytest.fixture(scope="module")
def p16():
    p0, psp = find_ntt_primes(16, 53, 2)
    mids = find_ntt_primes(16, 41, 2)
    return RingParams(n=16, chain=(p0, *mids), special=psp)


def elem_from_coeffs(params, coeffs, level=None, special=False):
    level = params.max_level if level is None else level
    vals = list(coeffs) + [0] * (params.n - len(coeffs))
    return RingElement.from_int_coeffs(params, vals, level, special)


# ---------------------------------------------------------------------------
# hand-checked values
# ---------------------------------------------------------------------------


def test_add_n4_q17_hand_value():
    # (1 + 2X) + (16 + 16X^3) = 0 + 2X + 0X^2 + 16X^3 over Z_17
    params = RingParams(n=4, chain=(17,))
    a = elem_from_coeffs(params, [1, 2, 0, 0])
    b = elem_from_coeffs(params, [16, 0, 0, 16])
    out = ring_add(a, b)
    assert out.data[0].tolist() == [0, 2, 0, 16]


def test_mul_wraps_with_sign_n4():
    # X^2 * X^2 = X^4 = -1 in Z_17[X]/(X^4+1)
    params = RingParams(n=4, chain=(17,))
    x2 = elem_from_coeffs(params, [0, 0, 1, 0])
    out = ring_mul(x2, x2)
    assert out.data[0].tolist() == [16, 0, 0, 0]


def test_mul_matches_schoolbook_small_fixed():
    params = RingParams(n=4, chain=(17,))
    a = elem_from_coeffs(params, [3, 1, 4, 1])
    b = elem_from_coeffs(params, [5, 9, 2, 6])
    out = ring_mul(a, b)
    assert out.data[0].tolist() == schoolbook_negacyclic([3, 1, 4, 1], [5, 9, 2, 6], 17, 4)


# ---------------------------------------------------------------------------
# NTT vs schoolbook on random inputs (the acceptance-criterion oracle)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [16, 32])
def test_ntt_product_equals_schoolbook(n):
    q = find_ntt_primes(n, 41, 1)[0]
    params = RingParams(n=n, chain=(q,))
    rng = np.random.default_rng(7)
    for _ in range(50):
        av = rng.integers(0, q, n).tolist()
        bv = rng.integers(0, q, n).tolist()
        a = RingElement.from_int_coeffs(params, av, 0)
        b = RingElement.from_int_coeffs(params, bv, 0)
        assert ring_mul(a, b).data[0].tolist() == schoolbook_negacyclic(av, bv, q, n)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-(2**40), 2**40), min_size=16, max_size=16))
def test_ntt_roundtrip_is_identity(coeffs):
    q = find_ntt_primes(16, 53, 1)[0]
    params = RingParams(n=16, chain=(q,))
    x = RingElement.from_int_coeffs(params, coeffs, 0)
    back = x.to_ntt().to_coeff()
    assert back == x


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, 2**41), min_size=16, max_size=16),
    st.lists(st.integers(0, 2**41), min_size=16, max_size=16),
    st.lists(st.integers(0, 2**41), min_size=16, max_size=16),
)
def test_mul_ring_axioms(av, bv, cv):
    q = find_ntt_primes(16, 53, 1)[0]
    params = RingParams(n=16, chain=(q,))
    a = RingElement.from_int_coeffs(params, av, 0)
    b = RingElement.from_int_coeffs(params, bv, 0)
    c = RingElement.from_int_coeffs(params, cv, 0)
    assert ring_mul(a, b) == ring_mul(b, a)
    assert ring_mul(ring_mul(a, b), c) == ring_mul(a, ring_mul(b, c))
    lhs = ring_mul(a, ring_add(b, c))
    rhs = ring_add(ring_mul(a, b), ring_mul(a, c))
    assert lhs == rhs


def test_domain_errors():
    params = RingParams(n=4, chain=(17,))
    x = elem_from_coeffs(params, [1, 2, 3, 4])
    f = x.to_ntt()
    with pytest.raises(DomainError):
        rns_digits(x)
    with pytest.raises(DomainError):
        ring_mul(x, f)
    with pytest.raises(DomainError):
        x.mul(x)
    with pytest.raises(DomainError):
        x.add(f)


# ---------------------------------------------------------------------------
# exact rescale vs rational oracle
# ---------------------------------------------------------------------------


def rescale_oracle(ints, q_last):
    """round(x / q_last) realized as (x - centered_rem(x)) / q_last, exactly."""
    out = []
    for x in ints:
        r = x % q_last
        if r > q_last // 2:
            r -= q_last
        out.append((x - r) // q_last)
    return out


def test_drop_level_matches_rational_oracle(p16):
    rng = np.random.default_rng(3)
    mods = p16.moduli(p16.max_level)
    big_q = 1
    for q in mods:
        big_q *= q
    for _ in range(25):
        ints = [int(rng.integers(0, 2**60)) * int(rng.integers(0, 2**50)) - big_q // 3
                for _ in range(p16.n)]
        ints = [x % big_q for x in ints]
        ints = [x - big_q if x > big_q // 2 else x for x in ints]
        x = RingElement.from_int_coeffs(p16, ints, p16.max_level)
        got = ref.int_coeffs(x.drop_last_modulus())
        assert got == rescale_oracle(ints, mods[-1])


def test_read_set_drop_matches_rational_oracle(p16):
    # the residues of a read set divide and round as the element's own
    # coefficients do
    top = p16.max_level
    x = sample_uniform(p16, b"read-drop", level=top)
    read = [11, 0, 5]
    got = Residues(p16, x.data[:, read], top).drop_last_modulus()
    assert got.level == top - 1
    ints = ref.int_coeffs(x)
    want = rescale_oracle([ints[k] for k in read], p16.chain[top])
    assert got.to_ints().tolist() == want
    assert got == Residues(p16, x.drop_last_modulus().data[:, read], top - 1)
    with pytest.raises(LevelError):
        Residues(p16, x.data[:1, read], 0).drop_last_modulus()


@pytest.mark.parametrize("name", preset_names())
def test_coeffs_at_reads_a_coefficient_without_a_transform(name, monkeypatch):
    # one coefficient is a dot product with the roots of X^-k; several are
    # read through grouped inverse transforms; both equal the coefficients
    # of to_coeff
    import fhefl.he as he_mod
    import fhefl.ring as ring_mod

    params = get_params(name).ring
    level = min(2, params.max_level)
    elems = [sample_uniform(params, b"at%d" % u, level=level, ntt=True) for u in range(3)]
    calls = []
    real = ring_mod.ntt_inverse_inplace

    def counted(data, tab, rows):
        calls.append(len(rows))
        return real(data, tab, rows)

    monkeypatch.setattr(ring_mod, "ntt_inverse_inplace", counted)
    coeffs = [e.to_coeff().data for e in elems]
    calls.clear()
    for k in (0, 1, params.n // 2, params.n - 1):
        got = coeffs_at(elems, [k])
        assert [g.data[:, 0].tolist() for g in got] == [c[:, k].tolist() for c in coeffs]
    assert calls == []
    # decrypt of a length-1 ciphertext and reencrypt of coefficient n-1 read
    # the phase the same way: no transform, and the value and the integer
    # that a full to_coeff read of the phase gives
    hp = get_params(name)
    sk = SecretKey.generate(hp, seed=b"at-sk")
    rng = np.random.default_rng(5)
    a = common_poly(hp, seed=b"at-a", level=level)
    ct = encrypt(hp, PlainVector([0.3], "mirrored"), sk, a, rng, level=level)
    phase = ref.int_coeffs(ct.c0.sub(ct.c1.mul(sk.s.mod_reduce_to(level))).to_coeff())
    encoded = []

    def plaintext(*args, real=he_mod._plaintext, **kw):
        encoded.append(args[1])
        return real(*args, **kw)

    monkeypatch.setattr(he_mod, "_plaintext", plaintext)
    calls.clear()
    assert decrypt(ct, sk).values.tolist() == [float(phase[0]) / ct.scale]
    reencrypt(ct, sk, a, rng, index=params.n - 1, scale=ct.scale, total=1)
    assert encoded == [[phase[-1]]]
    assert calls == []
    read = [params.n - 1, 0, 3]
    got = coeffs_at(elems, read)
    assert [g.data.tolist() for g in got] == [c[:, read].tolist() for c in coeffs]
    # one call per group: the three elements are one group at n <= 4096
    assert len(calls) == -(-len(elems) // params.group_size)
    with pytest.raises(DomainError):
        coeffs_at([elems[0].to_coeff()], [0])
    with pytest.raises(ParameterError):
        coeffs_at(elems, [params.n])


def test_read_set_draws(p16):
    # a read-set draw reads the stream as a whole element does: n residues
    # per row give the element's own, fewer give residues of every row
    level = p16.max_level
    whole = sample_uniform(p16, b"draw", level=level, tag=b"t")
    same = sample_uniform(p16, b"draw", level=level, tag=b"t", count=p16.n)
    assert isinstance(same, Residues) and np.array_equal(same.data, whole.data)
    few = sample_uniform(p16, b"draw", level=level, tag=b"t", count=3)
    assert few.data.shape == (level + 1, 3)
    assert (few.data < np.array(few.moduli, dtype=np.uint64)[:, None]).all()
    assert few == sample_uniform(p16, b"draw", level=level, tag=b"t", count=3)
    with pytest.raises(ParameterError):
        sample_uniform(p16, b"draw", level=level, ntt=True, count=3)
    err = sample_error(p16, np.random.default_rng(5), 3.2, level=1, count=4)
    assert err.data.shape == (2, 4)
    assert np.abs(err.to_ints().astype(np.int64)).max() <= 6 * 3.2 + 1


def test_read_set_wire_roundtrip(p16):
    x = sample_uniform(p16, b"wire", level=1, count=5)
    blob = x.to_bytes()
    assert len(blob) == p16.record_bytes(1, False, 5)
    assert Residues.from_bytes(blob, p16, 1, 5) == x
    for buf, count in ((blob[:-1], 5), (blob + b"\0", 5), (blob, 4)):
        with pytest.raises(SerializationError, match="payload length"):
            Residues.from_bytes(buf, p16, 1, count)


def test_drop_level_zero_is_zero(p16):
    z = RingElement.zeros(p16, p16.max_level)
    out = z.drop_last_modulus()
    assert np.count_nonzero(out.data) == 0
    assert out.level == p16.max_level - 1


def test_drop_level_exhausted_chain():
    params = RingParams(n=4, chain=(17,))
    x = elem_from_coeffs(params, [1, 0, 0, 0], level=0)
    with pytest.raises(LevelError):
        x.drop_last_modulus()


def test_mod_reduce_keeps_residues(p16):
    x = sample_uniform(p16, 42, level=p16.max_level)
    r = x.mod_reduce_to(1)
    assert r.level == 1
    assert np.array_equal(r.data, x.data[:2])
    with pytest.raises(LevelError):
        r.mod_reduce_to(2)


def test_mod_reduce_to_the_same_rows_returns_the_element(p16):
    # elements are never written once handed out, so dropping no row copies
    # nothing; dropping the special row alone still makes a new element
    x = sample_uniform(p16, 43, ntt=True)
    assert x.mod_reduce_to(x.level) is x
    k = sample_uniform(p16, 43, special=True)
    assert k.mod_reduce_to(k.level, special=True) is k
    chain = k.mod_reduce_to(k.level)
    assert chain is not k and not chain.special
    assert np.array_equal(chain.data, k.data[:-1])


# ---------------------------------------------------------------------------
# integer lift round trips
# ---------------------------------------------------------------------------


def test_int_coeff_roundtrip_huge_values(p16):
    mods = p16.moduli(p16.max_level)
    big_q = 1
    for q in mods:
        big_q *= q
    rng = np.random.default_rng(11)
    ints = [int(rng.integers(-(2**62), 2**62)) * int(rng.integers(1, 2**40))
            for _ in range(p16.n)]
    ints = [((x % big_q) + big_q) % big_q for x in ints]
    ints = [x - big_q if x > big_q // 2 else x for x in ints]
    x = RingElement.from_int_coeffs(p16, ints, p16.max_level)
    assert ref.int_coeffs(x) == ints
    assert Residues(p16, x.data, x.level).to_ints().tolist() == ints


@pytest.mark.parametrize("head", [[5, -3], [2**70, -1], np.array([5, -3], dtype=np.int64)])
def test_int_coeffs_zero_pad_and_reject_too_many(p16, head):
    x = RingElement.from_int_coeffs(p16, head, 1, special=True)
    want = [int(v) for v in head] + [0] * (p16.n - len(head))
    assert (x.level, x.special, x.ntt) == (1, True, False)
    assert x.data.tolist() == [[v % q for v in want] for q in p16.moduli(1, special=True)]
    with pytest.raises(ParameterError):
        RingElement.from_int_coeffs(p16, [1] * (p16.n + 1), 1)
    with pytest.raises(ParameterError):
        RingElement.from_int_coeffs(p16, [[1, 2]], 1)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_uniform_sampling_deterministic(p16):
    a = sample_uniform(p16, b"round-3", tag=b"common")
    b = sample_uniform(p16, b"round-3", tag=b"common")
    c = sample_uniform(p16, b"round-4", tag=b"common")
    assert a == b
    assert a != c
    for i, q in enumerate(a.moduli):
        assert int(a.data[i].max()) < q


def test_ternary_support_and_determinism(p16):
    s = sample_ternary(p16, b"user-7")
    assert s == sample_ternary(p16, b"user-7")
    lifted = ref.int_coeffs(s)
    assert set(lifted) <= {-1, 0, 1}
    # all three symbols should appear over a few hundred draws
    seen = set()
    for i in range(40):
        seen |= set(ref.int_coeffs(sample_ternary(p16, i)))
    assert seen == {-1, 0, 1}


def test_error_sampler_tail_bound(p16):
    # 10^4 coefficients from the sigma=3.2 sampler stay inside 6 sigma
    rng = np.random.default_rng(123)
    sigma = 3.2
    seen = []
    while len(seen) < 10_000:
        e = sample_error(p16, rng, sigma)
        seen.extend(ref.int_coeffs(e))
    seen = np.array(seen[:10_000], dtype=float)
    assert np.abs(seen).max() <= 6 * sigma
    assert np.abs(seen.mean()) < 0.5


# ---------------------------------------------------------------------------
# params validation + serialization
# ---------------------------------------------------------------------------


def test_params_validation_rejects_bad_primes():
    with pytest.raises(ParameterError):
        RingParams(n=4, chain=(15,))  # composite
    with pytest.raises(ParameterError):
        RingParams(n=4, chain=(13,))  # 13 != 1 mod 8
    with pytest.raises(ParameterError):
        RingParams(n=6, chain=(17,))  # degree not a power of two


def test_params_equality_ignores_memoised_constants(p16):
    # the kernel tables and the wire reader's memo hold numpy arrays, which
    # have no single truth value under ==
    twin = RingParams(n=p16.n, chain=p16.chain, special=p16.special)
    twin._seeded[b"s", 1] = sample_uniform(twin, b"s", level=1)
    assert twin.crt_constants(twin.moduli(1)) == p16.crt_constants(p16.moduli(1))
    assert twin == p16
    assert HeParams(twin, 20) == HeParams(p16, 20)


def test_find_primes_properties():
    primes = find_ntt_primes(1024, 41, 3)
    assert len(set(primes)) == 3
    for q in primes:
        assert is_prime(q)
        assert q % 2048 == 1
        assert q.bit_length() == 41


def test_serialization_roundtrip(p16):
    x = sample_uniform(p16, 5, level=1, ntt=True)
    buf = x.to_bytes()
    back = RingElement.from_bytes(buf, p16, 1, False, True)
    assert back == x


def test_serialization_rejects_garbage(p16):
    # a record is the residues alone: a cut record, or one read at another
    # layout or in another ring, has the wrong length
    x = sample_uniform(p16, 5, level=1)
    buf = x.to_bytes()
    for bad in (buf[:-8], buf[:6]):
        with pytest.raises(SerializationError, match="length"):
            RingElement.from_bytes(bad, p16, 1, False, False)
    for level, special in ((0, False), (2, False), (1, True)):
        with pytest.raises(SerializationError, match="length"):
            RingElement.from_bytes(buf, p16, level, special, False)
    other = RingParams(n=16, chain=(find_ntt_primes(16, 45, 1)[0],))
    with pytest.raises(SerializationError):
        RingElement.from_bytes(buf, other, 0, False, False)


# n = 4 over primes of odd bit length (5, 7, 9 bits; special 7): no row of
# four residues ends on a byte, and level 0 leaves four pad bits
_ODD = RingParams(n=4, chain=(17, 73, 257), special=97)


@pytest.mark.parametrize("name", [*preset_names(), "n4-odd"])
def test_serialization_packs_each_row_at_its_modulus_width(name):
    params = _ODD if name == "n4-odd" else get_params(name).ring
    layouts = [(lv, sp) for lv in range(params.max_level + 1) for sp in (False, True)]
    for level, special in layouts:
        ntt = level % 2 == 0
        x = sample_uniform(params, b"pack", level=level, special=special, ntt=ntt)
        # the extremes of every row: 0 and q - 1 fill a residue's width
        x.data[:, 0] = 0
        x.data[:, -1] = np.array(x.moduli, dtype=np.uint64) - np.uint64(1)
        buf = x.to_bytes()
        payload = (params.n * sum(q.bit_length() for q in x.moduli) + 7) // 8
        assert len(buf) == payload == params.record_bytes(level, special)
        if params.n <= 1024:
            assert buf == ref.pack_residues(x.data, x.moduli)
        back = RingElement.from_bytes(buf, params, level, special, ntt)
        assert back == x and back.ntt == x.ntt
        assert back.to_bytes() == buf


def test_serialization_refuses_a_wrong_payload_length(p16):
    buf = sample_uniform(p16, 6, level=2, special=True).to_bytes()
    for bad in (buf[:-1], buf + b"\0", b""):
        with pytest.raises(SerializationError, match="length"):
            RingElement.from_bytes(bad, p16, 2, True, False)


def test_serialization_refuses_nonzero_pad_bits():
    x = sample_uniform(_ODD, 7, level=0)
    buf = x.to_bytes()  # 20 bits of residues: the top 4 bits of the last byte pad
    assert RingElement.from_bytes(buf, _ODD, 0, False, False) == x
    for bit in range(4, 8):
        bad = bytearray(buf)
        bad[-1] |= 1 << bit
        with pytest.raises(SerializationError, match="pad"):
            RingElement.from_bytes(bytes(bad), _ODD, 0, False, False)


@pytest.mark.parametrize("params", [_ODD, get_params("test-1024").ring], ids=["n4-odd", "1024"])
def test_serialization_refuses_a_residue_at_or_above_q_inside_its_width(params):
    x = sample_uniform(params, 8, level=1, special=True)
    for row, q in enumerate(x.moduli):
        for residue in (q, (1 << q.bit_length()) - 1):
            bad = x.copy()
            bad.data[row, 1] = residue
            buf = bad.to_bytes()
            assert len(buf) == len(x.to_bytes())
            with pytest.raises(SerializationError, match="modulus"):
                RingElement.from_bytes(buf, params, 1, True, False)


def test_mul_scalar(p16):
    x = elem_from_coeffs(p16, [5, -3, 2])
    out = x.mul_scalar(-4)
    assert ref.int_coeffs(out)[:3] == [-20, 12, -8]
