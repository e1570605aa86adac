"""Negacyclic number-theoretic transform and the modular kernels under it.

All heavy arithmetic in the package bottoms out here.  Residues are stored as
``numpy.uint64``; every kernel works on a whole ``(rows, n)`` residue matrix
with the modulus broadcast as a per-row ``(rows, 1)`` column, and stays exact
for any odd modulus below 2^62 without bignum fallbacks.

The transform is the standard ψ-twisted (negacyclic) NTT for the ring
Z_q[X]/(X^n + 1): the forward pass is a Cooley-Tukey decimation-in-time that
consumes coefficients in standard order and produces evaluations in
bit-reversed order, the inverse is the matching Gentleman-Sande pass.  Since
every pointwise operation is order-agnostic we never bit-reverse explicitly;
"NTT domain" throughout the package means this bit-reversed evaluation order.

Twiddles are Shoup-precomputed: next to each w = ψ^brv(i) the tables hold the
32-bit halves of w' = floor(w·2^64/q), so a butterfly multiply is three
32x32-bit partial products for the quotient estimate and two wrapping 64-bit
products for the remainder (Harvey, "Faster arithmetic for number-theoretic
transforms", JSC 2014).  The estimate drops the low partial product, so the
remainder lands in [0, 4q) rather than [0, 2q).  Butterflies are lazy:

* forward: operands live in [0, 4q); the even input is brought into [0, 2q)
  and the twiddled odd input into [0, 2q), so both outputs are again < 4q;
* inverse: operands live in [0, 2q); the sum is brought back into [0, 2q)
  and the twiddled difference likewise.  The last stage folds in n^-1.

Values are reduced into [0, q) once, at the end of a transform.  q < 2^62
keeps 4q below 2^64, which is what makes the lazy ranges exact.

`make_ntt_tables` builds every per-prime constant of a basis with these
kernels, over all rows at once: the twiddle powers by doubling in Montgomery
form (Montgomery, Math. Comp. 1985), log2 n products in all.  A Montgomery
form r = w·2^64 mod q also gives w's Shoup quotient exactly, as the wrapping
product r·(−q^-1) mod 2^64; `shoup_stack` is that one rule, for tables,
scalar multipliers and prepared operands alike.

A pointwise product of two residue matrices takes one of two kernels.  If
one operand is shared by several products, it is prepared once
(`prepare_rows`: r by one Shoup multiply by 2^64 mod q, then its quotient),
and each product by it is one Shoup multiply per residue (`mul_prepared`).
Otherwise the product is one Montgomery reduction followed by a Shoup
multiply by 2^64 mod q, which cancels the Montgomery factor (`mul_mod`).

Transforms run over blocks of rows of at most ``BLOCK_ELEMS`` residues: all
rows at once for small rings, one row at a time at n = 16384, so the
temporaries of a stage stay in a core's L2 cache.  The stages whose
butterflies span fewer than ``_TAIL`` residues run on a transposed copy of
the block, which keeps numpy's inner loops long.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_WORD = 1 << 64

# Residues per transform block: 2^14 uint64 (128 KiB) keeps a stage's dozen
# temporaries inside a 2 MiB L2; whole-matrix stages at n = 16384 spill it.
BLOCK_ELEMS = 1 << 14

# ---------------------------------------------------------------------------
# modular kernels (inputs reduced mod q, q < 2^62, q broadcast per row)
#
# The conditional subtractions use unsigned wrap-around: for s in [0, 2q),
# s - q wraps to a huge value exactly when s < q, so min(s, s - q) is s mod q.
# ---------------------------------------------------------------------------


def add_mod(a, b, q):
    s = a + b
    return np.minimum(s, s - q)


def sub_mod(a, b, q):
    d = a - b
    return np.minimum(d, d + q)


def neg_mod(a, q):
    d = q - a
    return np.minimum(d, d - q)


def mont_mul(a, b, q, neg_qinv):
    """Montgomery product a*b*2^-64 mod q, elementwise with broadcasting.

    If ``b`` is kept in Montgomery form (b*2^64 mod q) the result is the plain
    product a*b mod q.  All operands must already be reduced mod q < 2^62, so
    the high halves are below 2^30 and the middle sums cannot overflow.
    """
    a_lo = a & _MASK32
    a_hi = a >> _SHIFT32
    b_lo = b & _MASK32
    b_hi = b >> _SHIFT32
    ll = a_lo * b_lo
    mid = a_lo * b_hi + a_hi * b_lo + (ll >> _SHIFT32)
    t_hi = a_hi * b_hi + (mid >> _SHIFT32)
    t_lo = a * b  # wraps mod 2^64, by design

    m = t_lo * neg_qinv
    m_lo = m & _MASK32
    m_hi = m >> _SHIFT32
    q_lo = q & _MASK32
    q_hi = q >> _SHIFT32
    mid = m_hi * q_lo + ((m_lo * q_lo) >> _SHIFT32)
    mq_hi = m_hi * q_hi + (mid >> _SHIFT32) + ((m_lo * q_hi + (mid & _MASK32)) >> _SHIFT32)

    # t_lo + (m*q mod 2^64) == 0 mod 2^64 by construction, so the carry out of
    # the low word is 1 exactly when t_lo != 0.
    res = t_hi + mq_hi + (t_lo != 0)
    return np.minimum(res, res - q)


def shoup_stack(w, r, neg_qinv) -> np.ndarray:
    """(3, ...) stack of w and the 32-bit halves of its Shoup quotient
    w' = floor(w * 2^64 / q), for w < q, given r = w * 2^64 mod q.

    w * 2^64 = q * w' + r, so w' = -r * q^-1 mod 2^64: one wrapping multiply
    by ``neg_qinv``, exact because w < q keeps w' below 2^64.
    """
    ws = r * neg_qinv
    out = np.empty((3, *ws.shape), dtype=np.uint64)
    out[0] = w
    np.right_shift(ws, _SHIFT32, out=out[1])
    np.bitwise_and(ws, _MASK32, out=out[2])
    return out


def _mul_shoup_lazy(x, w, w_hi, w_lo, q):
    """x*w mod q, up to a multiple: the result is in [0, 4q) for any x < 2^64.

    The quotient estimate floor(x*w'/2^64) is assembled from three 32-bit
    partial products; leaving out x_lo*w_lo and the carries undershoots it by
    at most 2, which adds at most 2q to the [0, 2q) of exact Shoup.
    """
    x_hi = x >> _SHIFT32
    est = x_hi * w_hi
    tmp = x_hi * w_lo
    tmp >>= _SHIFT32
    est += tmp
    np.bitwise_and(x, _MASK32, out=x_hi)
    np.multiply(x_hi, w_hi, out=tmp)
    tmp >>= _SHIFT32
    est += tmp
    est *= q
    np.multiply(x, w, out=tmp)
    tmp -= est
    return tmp


def mul_shoup(x, w, w_hi, w_lo, q):
    """x*w mod q in [0, q) for a fixed multiplier w with Shoup halves (w_hi, w_lo)."""
    r = _mul_shoup_lazy(x, w, w_hi, w_lo, q)
    r = np.minimum(r, r - 2 * q)
    return np.minimum(r, r - q)


def mul_mod(a: np.ndarray, b: np.ndarray, tab: NttTables, rows, out=None) -> np.ndarray:
    """Plain row-wise product a*b mod q of two standard-form residue matrices.

    One Montgomery reduction leaves a*b*2^-64; a Shoup multiply by 2^64 mod q
    cancels the factor.  Runs over the same cache-sized row blocks as the
    transforms.  ``out`` may be ``a`` or ``b``: a block is read before it is
    written.
    """
    out = np.empty_like(a) if out is None else out
    for start, stop, sel in _row_blocks(rows, a.shape[1]):
        q = tab.q[sel]
        t = mont_mul(a[start:stop], b[start:stop], q, tab.neg_qinv[sel])
        out[start:stop] = mul_shoup(t, *tab.mont[:, sel], q)
    return out


def prepare_rows(b: np.ndarray, tab: NttTables, rows) -> np.ndarray:
    """The prepared form of a residue matrix: the ``shoup_stack`` of every
    residue, a (3, rows, n) stack whose [0] is ``b``.

    r = b*2^64 mod q is one Shoup multiply by the table's 2^64 mod q, and the
    quotient one wrapping multiply of r, as for the twiddle tables; over the
    transforms' row blocks.
    """
    out = np.empty((3, *b.shape), dtype=np.uint64)
    for start, stop, sel in _row_blocks(rows, b.shape[1]):
        blk = b[start:stop]
        r = mul_shoup(blk, *tab.mont[:, sel], tab.q[sel])
        out[:, start:stop] = shoup_stack(blk, r, tab.neg_qinv[sel])
    return out


def mul_prepared(a: np.ndarray, w: np.ndarray, tab: NttTables, rows, out=None) -> np.ndarray:
    """Row-wise product a*b mod q against a multiplicand b in prepared form
    (``prepare_rows``): one Shoup multiply per residue, over the transforms'
    row blocks.  ``out`` may be ``a``: a block is read before it is written.
    """
    out = np.empty_like(a) if out is None else out
    for start, stop, sel in _row_blocks(rows, a.shape[1]):
        out[start:stop] = mul_shoup(a[start:stop], *w[:, start:stop], tab.q[sel])
    return out


# ---------------------------------------------------------------------------
# primality / root finding
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, valid for all m < 3.3e24."""
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def find_ntt_primes(n: int, bits: int, count: int, avoid=()) -> list[int]:
    """Largest ``count`` primes of exactly ``bits`` bits with q = 1 mod 2n."""
    step = 2 * n
    found: list[int] = []
    avoid = set(avoid)
    cand = (1 << bits) - 1
    cand -= (cand - 1) % step
    while len(found) < count:
        if cand < (1 << (bits - 1)):
            raise ValueError(f"not enough {bits}-bit NTT primes for n={n}")
        if cand not in avoid and is_prime(cand):
            found.append(cand)
        cand -= step
    return found


def _primitive_2n_root(q: int, n: int) -> int:
    """A primitive 2n-th root of unity mod the prime q = 1 mod 2n."""
    for g in range(2, q):
        cand = pow(g, (q - 1) // (2 * n), q)
        if cand != 1 and pow(cand, n, q) == q - 1:
            return cand
    raise ValueError(f"no 2n-th root of unity mod {q}")


# ---------------------------------------------------------------------------
# per-basis kernel tables
# ---------------------------------------------------------------------------


def _column(values) -> np.ndarray:
    """Per-row scalars (nested lists of them) as a uint64 array with a
    trailing axis of length 1."""
    return np.array(values, dtype=np.uint64)[..., None]


def _mont_form(values, primes) -> list[int]:
    """v * 2^64 mod q for each value v and its prime q."""
    return [(v << 64) % q for v, q in zip(values, primes)]


@dataclass(frozen=True, eq=False)
class NttTables:
    """Constants for every prime of a basis at one ring degree, one row each.

    Row r of every array belongs to ``primes[r]``; callers select the rows of
    the residue matrix they hold.  Per-row scalars are ``(rows, 1)`` columns.
    """

    n: int
    primes: tuple[int, ...]
    q: np.ndarray  # (rows, 1)
    neg_qinv: np.ndarray  # -q^-1 mod 2^64, for mont_mul
    mont: np.ndarray  # (3, rows, 1): 2^64 mod q and its Shoup halves
    fwd: np.ndarray  # (3, rows, n): ψ^brv(i) with Shoup halves
    inv: np.ndarray  # (3, rows, n): ψ^-brv(i); [1] folds n^-1, [0] is n^-1
    bound: np.ndarray  # (rows, 1): the largest multiple of q below 2^64
    brv: np.ndarray  # (n,): the bit-reversal permutation of 0..n-1


def make_ntt_tables(primes, n: int) -> NttTables:
    """Every kernel constant of the basis ``primes`` (odd primes below 2^62,
    each 1 mod 2n) at ring degree n.

    The twiddle rows are built in Montgomery form, r = w * 2^64 mod q, over
    all rows at once: index 2^k + j of a bit-reversed table is index j times
    ψ^(n / 2^(k+1)), so log2 n products double the table.  One product by 1
    takes r to w, and r gives w's Shoup quotient (`shoup_stack`).
    """
    primes = tuple(int(q) for q in primes)
    q = _column(primes)
    neg_qinv = _column([-pow(p, -1, _WORD) % _WORD for p in primes])
    one = [_WORD % p for p in primes]  # 1 in Montgomery form
    psi = [_primitive_2n_root(p, n) for p in primes]
    roots = (psi, [pow(x, -1, p) for x, p in zip(psi, primes)])

    # r[0] holds ψ^brv(i) and r[1] ψ^-brv(i), in Montgomery form
    r = np.empty((2, len(primes), n), dtype=np.uint64)
    r[:, :, 0] = one
    m = 1
    while m < n:
        step = [_mont_form([pow(x, n // (2 * m), p) for x, p in zip(xs, primes)], primes)
                for xs in roots]
        r[:, :, m : 2 * m] = mont_mul(r[:, :, :m], _column(step), q, neg_qinv)
        m *= 2
    # index 0 is unused by the inverse stages and index 1 only by the last
    # one, which applies n^-1 to both butterfly outputs
    n_inv = _mont_form([pow(n, -1, p) for p in primes], primes)
    r[1, :, :2] = mont_mul(r[1, :, :2], _column(n_inv), q, neg_qinv)
    w = mont_mul(r, np.uint64(1), q, neg_qinv)

    brv = np.zeros(1, dtype=np.int64)
    while len(brv) < n:
        brv = np.concatenate([2 * brv, 2 * brv + 1])
    return NttTables(
        n=n,
        primes=primes,
        q=q,
        neg_qinv=neg_qinv,
        mont=shoup_stack(_column(one), _column(_mont_form(one, primes)), neg_qinv),
        fwd=shoup_stack(w[0], r[0], neg_qinv),
        inv=shoup_stack(w[1], r[1], neg_qinv),
        bound=_column([(_WORD // p) * p for p in primes]),
        brv=brv,
    )


def _row_blocks(rows, n: int):
    """Split table row indices into blocks of at most BLOCK_ELEMS residues.

    Yields (start, stop, sel): residue rows start..stop-1 use table rows
    ``sel``, a slice (a view) when they are consecutive.
    """
    step = max(1, BLOCK_ELEMS // n)
    for start in range(0, len(rows), step):
        blk = rows[start : start + step]
        if list(blk) == list(range(blk[0], blk[0] + len(blk))):
            sel = slice(blk[0], blk[-1] + 1)
        else:
            sel = list(blk)
        yield start, start + len(blk), sel


def _fwd_butterfly(u, v, w, q) -> None:
    """Harvey forward butterfly on views u, v in [0, 4q); w = (w, w_hi, w_lo)."""
    q2 = q + q
    x = np.minimum(u, u - q2)  # [0, 2q)
    y = _mul_shoup_lazy(v, w[0], w[1], w[2], q)
    y = np.minimum(y, y - q2)  # [0, 2q)
    np.add(x, y, out=u)
    x += q2
    np.subtract(x, y, out=v)


def _inv_butterfly(u, v, w, q) -> None:
    """Harvey inverse butterfly on views u, v in [0, 2q)."""
    q2 = q + q
    s = u + v
    d = u + q2
    d -= v
    np.minimum(s, s - q2, out=u)
    y = _mul_shoup_lazy(d, w[0], w[1], w[2], q)
    np.minimum(y, y - q2, out=v)


# Stages whose butterfly groups span fewer than this many residues run on a
# transposed copy of the block, so that numpy's inner loops run across the
# groups instead of over a handful of residues each.
_TAIL = 16


def _to_groups(blk: np.ndarray, g: int) -> np.ndarray:
    """(r, n) -> (r, g, n/g) copy whose [:, j, k] is residue k*g + j."""
    r, n = blk.shape
    return blk.reshape(r, n // g, g).transpose(0, 2, 1).copy()


def _from_groups(blk: np.ndarray, groups: np.ndarray) -> None:
    """Write a :func:`_to_groups` layout back into the (r, n) block."""
    r, g, m0 = groups.shape
    blk.reshape(r, m0, g)[...] = groups.transpose(0, 2, 1)


def _group_halves(groups: np.ndarray, tw: np.ndarray, m: int, t: int):
    """Butterfly halves and twiddles of a stage with m groups of half-width t,
    on the transposed layout of :func:`_to_groups`."""
    r, g, m0 = groups.shape
    per = g // (2 * t)  # butterfly groups per transposed column
    view = groups.reshape(r, per, 2, t, m0)
    w = tw[:, :, m : 2 * m].reshape(3, r, m0, per).swapaxes(2, 3)[:, :, :, None, :]
    return view[:, :, 0], view[:, :, 1], w


def _check_block(a: np.ndarray, rows, tab: NttTables) -> None:
    if a.shape != (len(rows), tab.n) or not a.flags.c_contiguous:
        raise ValueError(f"transforms take a C-contiguous ({len(rows)}, {tab.n}) matrix")


def ntt_forward_inplace(a: np.ndarray, tab: NttTables, rows) -> None:
    """Standard-order coefficients -> bit-reversed negacyclic evaluations.

    ``a`` is a C-contiguous ``(len(rows), n)`` residue matrix; its row i is
    reduced mod the prime of table row ``rows[i]``.
    """
    _check_block(a, rows, tab)
    n = tab.n
    g = min(_TAIL, n)
    for start, stop, sel in _row_blocks(rows, n):
        blk = a[start:stop]
        r = stop - start
        q = tab.q[sel]
        tw = tab.fwd[:, sel]
        m, t = 1, n // 2
        while t >= g:
            view = blk.reshape(r, m, 2, t)
            _fwd_butterfly(view[:, :, 0], view[:, :, 1], tw[:, :, m : 2 * m, None], q[:, :, None])
            m, t = 2 * m, t // 2
        groups = _to_groups(blk, g)
        while t >= 1:
            u, v, w = _group_halves(groups, tw, m, t)
            _fwd_butterfly(u, v, w, q[:, :, None, None])
            m, t = 2 * m, t // 2
        _from_groups(blk, groups)
        np.minimum(blk, blk - (q + q), out=blk)
        np.minimum(blk, blk - q, out=blk)


def ntt_inverse_inplace(a: np.ndarray, tab: NttTables, rows) -> None:
    """Bit-reversed negacyclic evaluations -> standard-order coefficients."""
    _check_block(a, rows, tab)
    n = tab.n
    g = min(_TAIL, n)
    for start, stop, sel in _row_blocks(rows, n):
        blk = a[start:stop]
        r = stop - start
        q = tab.q[sel]
        tw = tab.inv[:, sel]
        h, t = n // 2, 1
        groups = _to_groups(blk, g)
        while 2 * t <= g and h > 1:
            u, v, w = _group_halves(groups, tw, h, t)
            _inv_butterfly(u, v, w, q[:, :, None, None])
            h, t = h // 2, 2 * t
        _from_groups(blk, groups)
        while h > 1:
            view = blk.reshape(r, h, 2, t)
            _inv_butterfly(view[:, :, 0], view[:, :, 1], tw[:, :, h : 2 * h, None], q[:, :, None])
            h, t = h // 2, 2 * t
        # last stage: both outputs take n^-1 (table index 0), the difference
        # also the last twiddle (index 1, pre-multiplied by n^-1)
        q2 = q + q
        u = blk[:, : n // 2]
        v = blk[:, n // 2 :]
        s = u + v
        d = u + q2
        d -= v
        for src, dst, k in ((s, u, 0), (d, v, 1)):
            y = _mul_shoup_lazy(src, tw[0, :, k, None], tw[1, :, k, None], tw[2, :, k, None], q)
            y = np.minimum(y, y - q2)
            np.minimum(y, y - q, out=dst)
