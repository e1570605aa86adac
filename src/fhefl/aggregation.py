"""Norm-weighted robust aggregation, in the clear and under encryption.

The defense weights every user's gradient by a non-poisoning rate

    p_u = (1 - d_u / sum_j d_j) / (U - 1),        d_u = ||grad_u||^2

which sums to exactly 1 over the roster and shrinks as a user's update norm
grows — label-flipping attackers inflate their gradient norms and get
down-weighted without the server ever ranking identities.

The encrypted path mirrors the plain one stage for stage:

1. norm:        [d_u] = sum over chunks of [g_u]^2; each chunk is one
                mirrored packing (g on coefficients 0..L-1 and g/2 mirrored
                from n-1 down, see :mod:`fhefl.he`), so the squared norm
                sits on coefficient n-1 of each chunk's square.  Every
                upload carries the round's public c1 = a, so every square
                has the quadratic component a*a, and every chunk square of
                every user is one ``he_mult_relin`` batch: the component is
                decomposed into key-switch digits once for the stage and
                key-switched once per user, not once per user and chunk.
2. d-sum:       sum_u [d_u] is opened with masked partial decryptions of
                its readout coefficient alone (the server learns only the
                total).
3. re-encrypt:  [d_u] is a dense product polynomial, so a rate made from it
                could not be multiplied cleanly against a packed gradient.
                User u decrypts the readout coefficient of its own [d_u],
                a value it knows already, divides it by the public
                (U-1)*sum_d and returns a fresh encryption [y_u] of
                y_u = d_u / ((U-1)*sum_d) on coefficient 0, under the
                round's a2 over the chain up to the aggregate level, at the
                plan's rate scale.  Nothing is blinded: the user learns
                nothing it did not hold, and the server never sees d_u.
                The quotient is an exact rational, rounded once.
4. rate:        [p~_u] = plain_affine([y_u], -1, 1/(U-1)): an integer
                multiplier keeps the level and the scale, so every rate
                sits at the aggregate level and the plan's rate scale,
                which keeps the flooding of the aggregate leg's partial
                decryptions far below it, with no rescale and no
                transform, and every rate shares one c1, -a2.
5. check:       sum_u [p~_u] is opened under the masked group key and must be
                ~1, so a user cannot inflate their weight while re-encrypting.
6. aggregate:   sum_u [p~_u] * [g_u] is opened with partial decryptions of
                each chunk's packed coefficients 0..L-1 (the scalar rate
                times a mirrored chunk keeps p~_u * g_u there); the model
                moves by -eta
                times the weighted gradient sum.  The rates share their c1,
                so every product has one public quadratic component c1*a:
                the products stay three-component (``_he_mult_raw`` over
                that one d2) and open with no key switch, each user
                decrypting its own under (s_u, s_u^2) and forming
                d2*s_u^2 once for all of its chunks (see
                :mod:`fhefl.multikey`).

The round holds one stage at a time: each stage's intermediates are dropped
once the next stage has used them.

Every opening reads a public set of coefficients and each user sends its
partial decryption of those alone, so the round reveals the distance total,
the rate total and the packed update, and no other coefficient.

Every stage runs at the lowest level that holds it: its level and scale are
the round's ``he.RoundPlan``, built by ``he.round_plan`` from the chain and
the scales alone.  Dropping chain primes is exact and, in the NTT
domain, a row slice, so each leg only pays for the primes it needs: fewer
rows to multiply, key-switch, mask and send, and evaluation keys that stop
at the upload level.  ``encrypt_update`` encrypts the uploads at the plan's
upload level, so no row of an upload is sent only to be dropped, and their
c1 travels as the round seed (see ``he.ciphertext_to_bytes``).  Before any
stage the round refuses an upload whose level, scale, chunk count, chunk
length or packing differs from what the preset and the model's dimension
fix, or whose c1 differs from the others'.

A distance total that opens below zero by more than
``multikey.opening_noise`` wrapped its opening modulus, and the round aborts
rather than fall back to uniform rates; one within that noise of zero is
the all-zero round, which takes the uniform rates.  The uploads drop to the
aggregate level for the product, whose opened residues are divided by q_agg
(its rescale, a level lower).  The rate-sum check opens the rates at
that same level, under keys masked there, never below the product, so an
inflated rate cannot wrap the check without also wrapping the product.  A
user that lies in its re-encryption shifts y_u, and the rates then sum to
1 exactly when the y_u still sum to 1/(U-1).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import reduce
from itertools import islice

import numpy as np

from .errors import FheflError, ParameterError, ProtocolError
from .he import (
    _VALUE_BITS,
    Ciphertext,
    PlainVector,
    _he_mult_raw,
    common_poly,
    encrypt,
    he_add,
    he_mult_relin,
    plain_affine,
    reencrypt,
    round_plan,
)
from .multikey import (
    UserKeyring,
    aggregate_fresh,
    combine_partials,
    group_decrypt,
    key_terms,
    mask_key,
    masked_partial_decrypt,
    opening_noise,
    reconstruct_group_key,
)

# ---------------------------------------------------------------------------
# plain-domain pieces
# ---------------------------------------------------------------------------


def _as_matrix(updates) -> np.ndarray:
    if isinstance(updates, np.ndarray):
        mat = np.atleast_2d(np.asarray(updates, dtype=np.float64))
    else:
        mat = np.stack([np.asarray(u, dtype=np.float64) for u in updates])
    if not np.isfinite(mat).all():
        raise ParameterError("non-finite entries in update matrix")
    return mat


def sq_norm_plain(g) -> float:
    g = np.asarray(g, dtype=np.float64)
    return float(g @ g)


def non_poisoning_rates(dists) -> np.ndarray:
    """Weights (1 - d_u/sum d)/(U-1); sum exactly 1, decreasing in d_u.

    Tiny negative distances (decryption noise) are clamped to zero.  An
    all-equal distance vector short-circuits to exactly 1/U — the formula's
    value there — so the degenerate and no-attack cases are bit-stable.
    """
    d = np.asarray(dists, dtype=np.float64)
    if d.ndim != 1 or d.size < 2:
        raise ParameterError("rates need at least two users")
    if not np.isfinite(d).all():
        raise ParameterError("non-finite distances")
    floor = -1e-6 * max(float(np.abs(d).max()), 1.0)
    if d.min() < floor:
        raise ParameterError(f"distances must be non-negative, got min {d.min():.3g}")
    d = np.maximum(d, 0.0)
    u = d.size
    if np.ptp(d) == 0.0:  # includes the all-zero degenerate round
        return np.full(u, 1.0 / u)
    total = float(d.sum())
    p = (1.0 - d / total) / (u - 1)
    p = np.maximum(p, 0.0)
    return p / p.sum()


def weighted_aggregate_plain(w_prev, updates, rates, eta: float) -> np.ndarray:
    """w_prev - eta * sum_u p_u * grad_u (the plain reference for the pipeline)."""
    mat = _as_matrix(updates)
    rates = np.asarray(rates, dtype=np.float64)
    w_prev = np.asarray(w_prev, dtype=np.float64)
    if rates.shape != (mat.shape[0],):
        raise ParameterError(f"{rates.size} rates for {mat.shape[0]} updates")
    if w_prev.shape != (mat.shape[1],):
        raise ParameterError("model/update dimension mismatch")
    return w_prev - eta * (rates @ mat)


# -- baseline aggregators (plain domain only; all take an update matrix) -------


def fedavg(updates) -> np.ndarray:
    mat = _as_matrix(updates)
    # uniform-rate weighting, so fhefl with equal distances is bit-identical
    return np.full(mat.shape[0], 1.0 / mat.shape[0]) @ mat


def coordinate_median(updates) -> np.ndarray:
    return np.median(_as_matrix(updates), axis=0)


def trimmed_mean(updates, beta: float = 0.1) -> np.ndarray:
    mat = _as_matrix(updates)
    u = mat.shape[0]
    if not 0.0 <= beta < 0.5:
        raise ParameterError(f"trim fraction must be in [0, 0.5), got {beta}")
    k = math.ceil(beta * u)
    if 2 * k >= u:
        raise ParameterError(f"trimming {k} per side leaves nothing of {u} updates")
    if k == 0:
        return fedavg(mat)
    return np.sort(mat, axis=0)[k : u - k].mean(axis=0)


def krum(updates, f: int) -> np.ndarray:
    """Single-Krum: return the update closest (in summed squared distance)
    to its U-f-2 nearest peers."""
    mat = _as_matrix(updates)
    u = mat.shape[0]
    if f < 0:
        raise ParameterError("byzantine count must be non-negative")
    keep = u - f - 2
    if keep < 1:
        raise ParameterError(f"krum needs U - f - 2 >= 1, got U={u}, f={f}")
    d2 = np.sum((mat[:, None, :] - mat[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    scores = np.sort(d2, axis=1)[:, :keep].sum(axis=1)
    return mat[int(np.argmin(scores))].copy()


AGGREGATORS = {
    "fedavg": fedavg,
    "median": coordinate_median,
    "trimmed_mean": trimmed_mean,
    "krum": krum,
}


def make_aggregator(name: str, *, f: int = 1):
    """Resolve a baseline aggregator name to a grads->vector callable."""
    if name == "krum":
        return lambda m: krum(m, f=f)
    if name in AGGREGATORS:
        return AGGREGATORS[name]
    known = ", ".join(["fhefl", *AGGREGATORS])
    raise ParameterError(f"unknown aggregator {name!r}; known: {known}")


# ---------------------------------------------------------------------------
# encrypted updates
# ---------------------------------------------------------------------------


@dataclass
class EncryptedUpdate:
    """One gradient as mirrored chunks, one ciphertext each.

    Each chunk decrypts (under the owner's key) to its slice of the vector,
    and its square realizes the chunk's squared norm on coefficient n-1.
    Gradients longer than the packing capacity are split into equal
    zero-padded chunks so every chunk shares one packed length.
    """

    user_id: int
    epoch: int
    chunks: tuple[Ciphertext, ...]
    dim: int

    # read-only views under the names of the earlier dual packing, for
    # callers that still list an upload as fwd + rev
    @property
    def fwd(self) -> tuple[Ciphertext, ...]:
        """The chunks."""
        return self.chunks

    @property
    def rev(self) -> tuple[Ciphertext, ...]:
        """Empty: each chunk holds its own mirror."""
        return ()

    @property
    def chunk_len(self) -> int:
        """Packed length of every chunk."""
        return self.chunks[0].length

    @property
    def readout(self) -> int:
        """Coefficient index carrying per-chunk norm contributions."""
        return self.chunks[0].params.ring.n - 1

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)


def _chunk_shape(dim: int, capacity: int) -> tuple[int, int]:
    """(count, length) of the chunks ``split_chunks`` cuts a dim-long vector into."""
    return (1, dim) if dim <= capacity else (-(-dim // capacity), capacity)


def split_chunks(vec: np.ndarray, capacity: int) -> list[np.ndarray]:
    """Chunk a vector; multi-chunk splits are zero-padded to the capacity."""
    vec = np.asarray(vec, dtype=np.float64)
    n_chunks, chunk_len = _chunk_shape(vec.size, capacity)
    return list(np.pad(vec, (0, n_chunks * chunk_len - vec.size)).reshape(n_chunks, chunk_len))


def encrypt_update(
    kr: UserKeyring,
    grad: np.ndarray,
    a,
    rng: np.random.Generator,
) -> EncryptedUpdate:
    grad = np.asarray(grad, dtype=np.float64)
    if grad.ndim != 1 or grad.size == 0 or not np.isfinite(grad).all():
        raise ParameterError("gradients must be finite non-empty 1-d vectors")
    params = kr.params
    chunks = split_chunks(grad, params.capacity)
    # the round reads the uploads at the upload level and below, so the rows
    # above it would be sent only to be dropped
    level = round_plan(params).upload_level
    packed = [PlainVector(c, "mirrored") for c in chunks]
    cts = encrypt(params, packed, kr.sk, a, rng, level=level)
    return EncryptedUpdate(user_id=kr.user_id, epoch=kr.epoch, chunks=cts, dim=grad.size)


def sq_norm_encrypted(eu, evk) -> Ciphertext | tuple[Ciphertext, ...]:
    """[g]^2 summed over chunks; ||g||^2 lands on eu.readout.

    ``eu`` is one upload, or a sequence of them with ``evk`` one key per
    upload; a sequence gives a tuple of norms in order.  Every chunk of every
    upload carries the round's c1 = a, so every chunk square is one
    ``he_mult_relin`` batch, which key-switches their quadratic component
    a*a once per upload.
    """
    batch = not isinstance(eu, EncryptedUpdate)
    eus, evks = (tuple(eu), tuple(evk)) if batch else ((eu,), (evk,))
    chunks = [ct for e in eus for ct in e.chunks]
    prods = iter(he_mult_relin(
        chunks, chunks, [k for e, k in zip(eus, evks) for _ in e.chunks]
    ))
    norms = tuple(reduce(he_add, islice(prods, e.n_chunks)) for e in eus)
    return norms if batch else norms[0]


def rates_encrypted(
    d_ct,
    sum_d: float,
    n_users: int,
    *,
    readout: int,
) -> Ciphertext | tuple[Ciphertext, ...]:
    """[p_u] = (1 - [d_u]/sum_d)/(U-1) as one plaintext affine map.

    The fractional slope costs a level (see ``plain_affine``).  The additive
    1/(U-1) lands on the readout coefficient carrying d_u.  ``d_ct`` is one
    distance, or a sequence of them.
    """
    if n_users < 2:
        raise ParameterError("rates need at least two users")
    if not sum_d > 0:
        raise ParameterError(f"distance total must be positive, got {sum_d}")
    k1 = -1.0 / ((n_users - 1) * sum_d)
    k0 = 1.0 / (n_users - 1)
    return plain_affine(d_ct, k1, k0, add_index=readout)


# ---------------------------------------------------------------------------
# the full encrypted round
# ---------------------------------------------------------------------------


# How far the opened sum of the rates may sit from 1.
_RATE_SUM_TOL = 0.05


def _open_sums(openings, keyrings: dict, read, tags, roster, rng) -> list[np.ndarray]:
    """Decode the read set of sum_u cts[u] for each opening's ``cts``: every
    roster member's key terms of every opening, read side by side
    (``key_terms``), then each opening's flooded and masked in roster order
    under its tag, and combined."""
    out = []
    for cts, terms, tag in zip(openings, key_terms(keyrings, openings, read), tags):
        partials = {
            u: masked_partial_decrypt(keyrings[u], terms[u], tag, roster, rng) for u in roster
        }
        out.append(combine_partials(cts, partials, read))
    return out


@contextmanager
def _stage(name: str):
    """Annotate any scheme/protocol error with the pipeline stage it hit."""
    try:
        yield
    except ProtocolError as exc:
        if str(exc).startswith("["):
            raise
        raise ProtocolError(f"[{name}] {exc}") from exc
    except FheflError as exc:
        raise ProtocolError(f"[{name}] {exc}") from exc


def secure_aggregate_round(
    enc_updates: dict[int, EncryptedUpdate],
    keyrings: dict[int, UserKeyring],
    w_prev: np.ndarray,
    eta: float,
    rng: np.random.Generator,
    *,
    round_tag: bytes,
) -> np.ndarray:
    """One full norm-weighted aggregation under encryption.

    Returns the next model vector; every opened value is roster-aggregate
    (sum of distances, sum of rates, weighted gradient sum) — no per-user
    quantity is ever decrypted server-side.

    ``round_tag`` must be unique per (epoch, round).  It seeds the fresh
    distances' public polynomial and the pair masks of every opening, so two
    rounds under one tag share ``a2``: the difference of one user's fresh
    distance ciphertexts from those rounds then decrypts without any key to
    the change in that user's distance.
    """
    users = sorted(enc_updates)
    if len(users) < 2:
        raise ProtocolError("encrypted aggregation needs at least two users")
    if set(users) - set(keyrings):
        raise ProtocolError(f"missing keyrings for users {sorted(set(users) - set(keyrings))}")
    params = keyrings[users[0]].params
    epoch = keyrings[users[0]].epoch
    plan = round_plan(params)
    # the upload contract, from the preset and the model alone
    w_prev = np.asarray(w_prev, dtype=np.float64)
    n_chunks, chunk_len = _chunk_shape(w_prev.size, params.capacity)
    ri = params.ring.n - 1
    for u in users:
        eu, kr = enc_updates[u], keyrings[u]
        if eu.user_id != u or kr.user_id != u:
            raise ProtocolError(f"update/keyring ownership mismatch for user {u}")
        if eu.epoch != epoch or kr.epoch != epoch:
            raise ProtocolError(f"mixed epochs in round (user {u})")
        if ((eu.dim,), eu.n_chunks) != (w_prev.shape, n_chunks):
            raise ProtocolError(
                f"user {u} sent a dim-{eu.dim} update in {eu.n_chunks} chunks; "
                f"a model of shape {w_prev.shape} takes {n_chunks}"
            )
        if u == users[0]:
            a = eu.chunks[0].c1  # the round's public polynomial (see the norm stage)
        for ct in eu.chunks:
            # the norm reads n-1 of each chunk's square, the aggregate 0..L-1
            # of the rate times it: both need the mirrored packing
            if ct.direction != "mirrored":
                raise ProtocolError(
                    f"user {u}'s upload has a {ct.direction} chunk; the round takes "
                    "mirrored chunks"
                )
            if (ct.level, ct.scale, ct.length) != (plan.upload_level, params.scale, chunk_len):
                raise ProtocolError(
                    f"user {u}'s upload sits at level {ct.level}, scale "
                    f"2^{math.log2(ct.scale):g}, length {ct.length}; the round takes level "
                    f"{plan.upload_level}, scale 2^{params.scale_bits}, length {chunk_len}"
                )
            if ct.c1 != a:
                raise ProtocolError(f"user {u}'s upload is off the round's public polynomial")
    roster = users
    n_users = len(users)
    l_agg, rate = plan.aggregate_level, plan.rate_scale  # the rates' level and scale

    with _stage("norm"):
        evks = [keyrings[u].evk for u in users]
        d_cts = dict(zip(users, sq_norm_encrypted([enc_updates[u] for u in users], evks)))

    with _stage("distance-sum"):
        d_open = {u: d_cts[u].mod_reduce_to(plan.distance_level) for u in users}
        (opened,) = _open_sums([d_open], keyrings, [ri], [round_tag + b"|dsum"], roster, rng)
        sum_d = float(opened[0])
        noise = opening_noise(d_open.values())
        # a true total is never negative; one below the noise wrapped the
        # opening modulus, and clamping it would fall back to uniform rates
        if sum_d < -noise:
            raise ProtocolError(
                f"distance total opened as {sum_d:.4g}: above 2^{_VALUE_BITS}, "
                "it wrapped the opening modulus; aborting round"
            )
        del d_open

    with _stage("re-encrypt"):
        # user u re-encrypts the readout of its own distance, which it knows,
        # over the public total (U-1)*sum_d, on a2 over the chain up to l_agg;
        # it states the public bound 1 on that share, not its own value
        a2 = common_poly(params, seed=round_tag + b"|a2", level=l_agg)
        # a total within the noise of zero divides by 1, and its rates are 1/U
        total, mult, add = (n_users - 1) * sum_d, -1, 1.0 / (n_users - 1)
        if sum_d <= noise:
            total, mult, add = 1, 0, 1.0 / n_users
        fresh = [
            reencrypt(d_cts.pop(u), keyrings[u].sk, a2, rng, index=ri, scale=rate, total=total)
            for u in users
        ]
        fresh = [replace(x, msg_bound=1.0) for x in fresh]
        del a2

    with _stage("rate"):
        # the integer map keeps the level and the scale: every rate sits at
        # l_agg and the rate scale, with no rescale
        p_cts = plain_affine(fresh, mult, add)
        rates = dict(zip(users, p_cts))
        del fresh, p_cts

    with _stage("rate-sum-check"):
        # the rates sit at l_agg, so the keys are masked there
        masked = [mask_key(keyrings[u], roster, level=l_agg) for u in roster]
        gk = reconstruct_group_key(masked, roster)
        del masked
        p_total = float(group_decrypt(aggregate_fresh(rates), gk)[0])
        del gk
        if abs(p_total - 1.0) > _RATE_SUM_TOL:
            raise ProtocolError(
                f"rates sum to {p_total:.4f}, expected 1 "
                f"(tolerance {_RATE_SUM_TOL}); aborting round"
            )

    with _stage("aggregate"):
        # every rate carries one c1 (aggregate_fresh checked it), so every
        # product's quadratic component is the public d2 = c1*a; the products
        # stay three-component and open with no key switch.  c1 and a
        # multiply every product's c0 parts: prepared once, dropped before
        # the openings
        c1s = (rates[users[0]].c1.prepared(), a.mod_reduce_to(l_agg).prepared())
        d2 = c1s[0].mul(c1s[1])
        openings = [{} for _ in range(n_chunks)]
        for u in users:
            x = rates.pop(u)
            for opening, y in zip(openings, enc_updates[u].chunks):
                opening[u] = _he_mult_raw(x, y.mod_reduce_to(l_agg), d2, c1s)
        del x, c1s
        tags = [round_tag + b"|agg|" + str(c).encode() for c in range(n_chunks)]
        out = np.concatenate(_open_sums(openings, keyrings, range(chunk_len), tags, roster, rng))
        agg = out[: w_prev.size]

    return w_prev - eta * agg
