"""Reference ring kernels: per-prime Montgomery arithmetic looped over rows.

This is the straightforward implementation the vectorised kernels in
:mod:`fhefl.ntt` and :mod:`fhefl.ring` replaced: every butterfly is a full
Montgomery multiply built from 32-bit limbs and every result is reduced
immediately, one prime (one row) at a time.  The tests require the
production kernels to reproduce it bit for bit.  The exact negacyclic
product over the integers (or rationals) is the reference for what the
packings put on each coefficient of a product.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_WORD = 1 << 64


def add_mod(a, b, q):
    s = a + b
    return np.where(s >= q, s - q, s)


def sub_mod(a, b, q):
    d = a + q - b
    return np.where(d >= q, d - q, d)


def mont_mul(a, b, q, neg_qinv):
    """Montgomery product a*b*2^-64 mod q, from 32-bit limbs."""
    a_lo = a & _MASK32
    a_hi = a >> _SHIFT32
    b_lo = b & _MASK32
    b_hi = b >> _SHIFT32

    ll = a_lo * b_lo
    mid = a_lo * b_hi + (ll >> _SHIFT32)
    hl = a_hi * b_lo
    mid2 = mid + hl
    carry = (mid2 < hl).astype(np.uint64)
    t_hi = a_hi * b_hi + (mid2 >> _SHIFT32) + (carry << _SHIFT32)
    t_lo = (mid2 << _SHIFT32) + (ll & _MASK32)

    m = t_lo * neg_qinv
    m_lo = m & _MASK32
    m_hi = m >> _SHIFT32
    q_lo = q & _MASK32
    q_hi = q >> _SHIFT32

    ll2 = m_lo * q_lo
    mid3 = m_lo * q_hi + (ll2 >> _SHIFT32)
    hl2 = m_hi * q_lo
    mid4 = mid3 + hl2
    carry2 = (mid4 < hl2).astype(np.uint64)
    mq_hi = m_hi * q_hi + (mid4 >> _SHIFT32) + (carry2 << _SHIFT32)

    res = t_hi + mq_hi + (t_lo != 0).astype(np.uint64)
    return np.where(res >= q, res - q, res)


def _primitive_2n_root(q: int, n: int) -> int:
    for g in range(2, q):
        cand = pow(g, (q - 1) // (2 * n), q)
        if cand != 1 and pow(cand, n, q) == q - 1:
            return cand
    raise ValueError(f"no 2n-th root of unity mod {q}")


def _bit_reverse_indices(n: int) -> list[int]:
    bits = n.bit_length() - 1
    return [int(bin(i)[2:].zfill(bits)[::-1], 2) if bits else 0 for i in range(n)]


@dataclass
class PrimeContext:
    """Montgomery constants and twiddles of one prime at one ring degree."""

    q: int
    n: int
    q_u64: np.uint64
    neg_qinv: np.uint64
    r2_u64: np.uint64
    fwd_twiddles: np.ndarray  # psi^brv(i), Montgomery form
    inv_twiddles: np.ndarray  # psi^-brv(i), Montgomery form
    n_inv_mont: np.ndarray

    def mont(self, x: int) -> int:
        return (x << 64) % self.q


def make_prime_context(q: int, n: int) -> PrimeContext:
    psi = _primitive_2n_root(q, n)
    psi_inv = pow(psi, -1, q)
    brv = _bit_reverse_indices(n)

    def mont(x: int) -> int:
        return (x << 64) % q

    return PrimeContext(
        q=q,
        n=n,
        q_u64=np.uint64(q),
        neg_qinv=np.uint64((-pow(q, -1, _WORD)) % _WORD),
        r2_u64=np.uint64((1 << 128) % q),
        fwd_twiddles=np.array([mont(pow(psi, b, q)) for b in brv], dtype=np.uint64),
        inv_twiddles=np.array([mont(pow(psi_inv, b, q)) for b in brv], dtype=np.uint64),
        n_inv_mont=np.array([mont(pow(n, -1, q))], dtype=np.uint64),
    )


def _shoup_stack(values: list[list[int]], primes) -> np.ndarray:
    """(3, rows, cols) stack of each w and the 32-bit halves of its Shoup
    quotient floor(w * 2^64 / q), one Python division per element."""
    out = np.empty((3, len(values), len(values[0])), dtype=np.uint64)
    for i, (row, q) in enumerate(zip(values, primes)):
        quo = [(w << 64) // q for w in row]
        out[0, i] = row
        out[1, i] = [x >> 32 for x in quo]
        out[2, i] = [x & 0xFFFFFFFF for x in quo]
    return out


def kernel_tables(primes, n: int) -> dict[str, np.ndarray]:
    """The constants of `fhefl.ntt.NttTables`, built element by element:
    twiddles ψ^±brv(i) with n^-1 folded into inverse indices 0 and 1, the
    Montgomery factor 2^64 mod q and the sampler's rejection bounds."""
    brv = _bit_reverse_indices(n)
    fwd, inv = [], []
    for q in primes:
        psi = _primitive_2n_root(q, n)
        psi_inv = pow(psi, -1, q)
        n_inv = pow(n, -1, q)
        fwd.append([pow(psi, b, q) for b in brv])
        row = [pow(psi_inv, b, q) for b in brv]
        row[0], row[1] = n_inv, row[1] * n_inv % q
        inv.append(row)
    return {
        "fwd": _shoup_stack(fwd, primes),
        "inv": _shoup_stack(inv, primes),
        "mont": _shoup_stack([[_WORD % q] for q in primes], primes),
        "bound": np.array([[(_WORD // q) * q] for q in primes], dtype=np.uint64),
    }


def mul_mod(a, b, ctx: PrimeContext):
    t = mont_mul(a, b, ctx.q_u64, ctx.neg_qinv)
    return mont_mul(t, ctx.r2_u64, ctx.q_u64, ctx.neg_qinv)


def ntt_forward(a: np.ndarray, ctx: PrimeContext) -> np.ndarray:
    a = a.copy()
    n, q, ninv = ctx.n, ctx.q_u64, ctx.neg_qinv
    t, m = n, 1
    while m < n:
        t >>= 1
        s = ctx.fwd_twiddles[m : 2 * m, None]
        blk = a.reshape(m, 2 * t)
        u = blk[:, :t]
        v = mont_mul(blk[:, t:], s, q, ninv)
        hi = add_mod(u, v, q)
        lo = sub_mod(u, v, q)
        blk[:, :t] = hi
        blk[:, t:] = lo
        m <<= 1
    return a


def ntt_inverse(a: np.ndarray, ctx: PrimeContext) -> np.ndarray:
    a = a.copy()
    n, q, ninv = ctx.n, ctx.q_u64, ctx.neg_qinv
    t, m = 1, n
    while m > 1:
        h = m >> 1
        s = ctx.inv_twiddles[h:m, None]
        blk = a.reshape(h, 2 * t)
        u = blk[:, :t]
        v = blk[:, t:]
        hi = add_mod(u, v, q)
        lo = mont_mul(sub_mod(u, v, q), s, q, ninv)
        blk[:, :t] = hi
        blk[:, t:] = lo
        t <<= 1
        m = h
    return mont_mul(a, ctx.n_inv_mont, q, ninv)


def drop_last_modulus(data: np.ndarray, ctxs: list[PrimeContext]) -> np.ndarray:
    """Coefficient-domain divide-and-round of a residue matrix by its last prime."""
    q_last = ctxs[-1].q
    last = data[-1]
    big = last > np.uint64(q_last // 2)
    out = np.empty((len(ctxs) - 1, data.shape[1]), dtype=np.uint64)
    for j, ctx in enumerate(ctxs[:-1]):
        qj = ctx.q_u64
        base = sub_mod(data[j], last % qj, qj)
        fixed = np.where(big, add_mod(base, np.uint64(q_last % ctx.q), qj), base)
        inv = np.array([ctx.mont(pow(q_last, -1, ctx.q))], dtype=np.uint64)
        out[j] = mont_mul(fixed, inv, qj, ctx.neg_qinv)
    return out


def sample_uniform_rows(seed_b: bytes, moduli, n: int) -> np.ndarray:
    """Rejection sampling from SHAKE-256 with a 3x buffer and a cumsum scan."""
    rows = np.empty((len(moduli), n), dtype=np.uint64)
    budget = 3 * len(moduli) * n + 16
    words = np.frombuffer(hashlib.shake_256(seed_b).digest(8 * budget), dtype="<u8")
    pos = 0
    for i, q in enumerate(moduli):
        bound = np.uint64((2**64 // q) * q)
        got = 0
        while got < n:
            if pos >= len(words):
                budget *= 2
                words = np.frombuffer(
                    hashlib.shake_256(seed_b).digest(8 * budget), dtype="<u8"
                )
            chunk = words[pos:]
            keep = chunk[chunk < bound]
            take = min(n - got, len(keep))
            rows[i, got : got + take] = keep[:take] % np.uint64(q)
            if take == len(keep):
                pos = len(words)
            else:
                used = int(np.searchsorted(np.cumsum(chunk < bound), take))
                pos += used + 1
            got += take
    return rows


def pack_residues(data: np.ndarray, moduli) -> bytes:
    """Bit-packed residues, one Python integer per residue: row i at
    q_i.bit_length() bits each, least significant bit first, rows in order,
    zero-padded to a whole byte."""
    bits = []
    for row, q in zip(data, moduli):
        width = int(q).bit_length()
        for v in row:
            bits.append(format(int(v), f"0{width}b")[::-1])
    stream = "".join(bits)
    stream += "0" * (-len(stream) % 8)
    return int(stream[::-1], 2).to_bytes(len(stream) // 8, "little")


def negacyclic_product(a, b) -> list[Fraction]:
    """The exact product of two length-n polynomials with integer or
    rational coefficients modulo X^n + 1: their convolution, with the terms
    of degree n and above folded back negated (X^n = -1).

    Each factor is split into its rational content and an integer primitive
    part, so the convolution runs on integers, in int64 when no sum of
    products can reach 2^63 and on Python integers otherwise."""
    n = len(a)
    content, parts = Fraction(1), []
    for poly in (a, b):
        poly = [Fraction(c) for c in poly]
        den = math.lcm(*(c.denominator for c in poly))
        ints = [int(c * den) for c in poly]
        g = math.gcd(*ints) or 1
        content *= Fraction(g, den)
        parts.append([v // g for v in ints])
    bound = n * max(map(abs, parts[0])) * max(map(abs, parts[1]))
    dtype = np.int64 if bound < 2**63 else object
    full = np.convolve(np.array(parts[0], dtype=dtype), np.array(parts[1], dtype=dtype))
    folded = full[:n].copy()
    folded[: len(full) - n] -= full[n:]
    return [content * int(v) for v in folded]


def mirrored_coeffs(values, n: int) -> list:
    """The mirrored packing of ``values`` (length <= n/2) as exact
    coefficients: v_k on k and v_k / 2 on n-1-k, as ``Fraction``s."""
    coeffs = [Fraction(0)] * n
    for k, v in enumerate(values):
        coeffs[k] = Fraction(v)
        coeffs[n - 1 - k] = Fraction(v) / 2
    return coeffs


def int_coeffs(elem) -> list[int]:
    """The centered integer coefficients of a coefficient-domain element,
    combined from its residues by the Chinese remainder theorem."""
    assert not elem.ntt
    big_q = math.prod(elem.moduli)
    acc = [0] * elem.params.n
    for row, q in zip(elem.data.tolist(), elem.moduli):
        m = big_q // q
        e = m * pow(m, -1, q)
        acc = [a + r * e for a, r in zip(acc, row)]
    return [a - big_q if a > big_q // 2 else a for a in (a % big_q for a in acc)]
