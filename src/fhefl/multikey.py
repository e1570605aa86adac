"""Multi-user key material: masked key sums and masked partial decryptions.

Every user u holds a per-epoch secret s_u plus one static shared seed per
peer.  From the pair seed both endpoints derive the *same* uniform draw and
attach it with opposite signs, so for any roster R:

    sum_{u in R} (s_u + sum_{j in R, j != u} sgn(u,j) * m_{u,j})  =  sum_u s_u

The masked keys therefore reveal the aggregate key and nothing else (each
individual masked key is uniform given the rest).  ``mask_key`` masks s_u at
a level of the chain, or by default at the top level with the special row.

The same trick, keyed by a per-leg round tag, masks partial decryptions, the
users' shares of a collective decryption (Mouchet et al., PETS 2021) smudged
with flooding noise (Asharov et al., EUROCRYPT 2012).  An opening reads a
public set of coefficients, its read set, and user u sends those alone, in
the coefficient domain:

    ps_u = [c1_u * s_u]_R + e_flood + sum_j sgn(u,j) * r_{u,j}(tag)

so the server learns the roster sum on R and nothing of the other
coefficients.  The flooding, of width sigma * 2^flood_sigma_bits per
coefficient, drowns the secret-dependent rounding of the individual share,
and each pair mask is one draw of |R| residues per row.  A three-component
product (d0, d1, d2) opens with no key switch: user u's terms are
[d1_u * s_u - d2 * s_u^2]_R divided by q_level and rounded (the product's
rescale, on |R| integers), flooded and masked a level lower, and the server
divides [sum_u d0_u]_R the same way.  ``key_terms`` computes a roster's
terms side by side, for one or more openings: one coefficient is a dot
product with no transform, more take the users' elements through grouped
inverse transforms, and a user forms d2 * s_u^2 once for all of its products
over one d2, with s_u prepared once when it multiplies more than once.
``combine_partials`` is the one opening routine, and ``opening_noise``
bounds what an opening adds to a decoded value.  The roster sums follow the
adding rule of :mod:`fhefl.he`.

Both shares travel as a record of (preset name, user id, epoch, level,
residues), told apart by their magic.  A masked key (FMK2) is an NTT element
at its level, with the special row exactly when that is the top level.  A
partial decryption (FPD3) also states |R| after the level and holds level+1
rows of |R| coefficient residues.  The deserialisers refuse another preset,
a level outside the chain and any other length.

``setup_pairwise`` builds each user's evaluation key at the round's upload
level (``he.RoundPlan``), the highest level the round relinearizes at, so
the key carries no pair or row above it: at fhefl-16384 that is 3 of 5 pairs
of 4 of 6 rows.  Each key holds its public half a_0..a_L as a seed drawn
from the master seed, the user and the epoch, never from a user's secret, and
expands it on each key switch, so what a key holds is b_i = a_i*s_u + e_i +
P_i*s_u^2 alone.  Every user's a_i are its own: the rate-sum check reveals
sum_u s_u, so with one a_i for the whole roster the server could cancel
a_i*sum_u s_u from sum_u b_i and read sum_u s_u^2 and the summed errors.

Pair seeds stand in for an out-of-band pairwise agreement (e.g. a DH
exchange); here they are derived from a master seed so simulations are
reproducible.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import ProtocolError, SerializationError
from .he import (
    Ciphertext,
    EvalKey,
    HeParams,
    SecretKey,
    _check_addable,
    _read_record_head,
    _record_head,
    decode,
    decrypt,
    round_plan,
)
from .ntt import add_mod, sub_mod
from .ring import RingElement, Residues, coeffs_at, sample_error, sample_uniform

_SHARE_FIELDS = "<IIB"  # user id, epoch, level
_COUNT_FIELD = "<I"  # a partial decryption's read-set size


def _h(*parts: bytes) -> bytes:
    return hashlib.sha256(b"|".join(parts)).digest()


def _pair_seed(master: bytes, u: int, j: int) -> bytes:
    lo, hi = sorted((u, j))
    return _h(master, b"pair", str(lo).encode(), str(hi).encode())


@dataclass
class UserKeyring:
    """One user's secret material for one epoch."""

    user_id: int
    params: HeParams
    epoch: int
    sk: SecretKey
    evk: EvalKey
    pair_seeds: dict[int, bytes]


@dataclass
class _KeyShare:
    """One user's share of a roster-wide sum for one epoch.  Wire form: the
    subclass's magic, the preset name (a length byte and UTF-8), user id and
    epoch as little-endian u32, the level as a byte, then what the subclass
    adds."""

    params: HeParams
    user_id: int
    epoch: int
    elem: RingElement | Residues

    MAGIC = b""
    WHAT = "key share"

    def _head(self) -> bytes:
        head = _record_head(self.MAGIC, self.params)
        return head + struct.pack(_SHARE_FIELDS, self.user_id, self.epoch, self.elem.level)

    @classmethod
    def _read_head(cls, buf: bytes, params: HeParams) -> tuple[int, int, int, int]:
        """User id, epoch and level of a record, and where the rest starts."""
        off = _read_record_head(buf, cls.MAGIC, cls.WHAT, params)
        end = off + struct.calcsize(_SHARE_FIELDS)
        if len(buf) < end:
            raise SerializationError(f"truncated {cls.WHAT}")
        uid, epoch, level = struct.unpack_from(_SHARE_FIELDS, buf, off)
        top = params.ring.max_level
        if level > top:
            raise SerializationError(f"{cls.WHAT} level {level} outside chain 0..{top}")
        return uid, epoch, level, end


class MaskedKey(_KeyShare):
    """s_u plus the user's pair masks, an NTT element over the chain up to
    its level, and the special row at the top level; then its residues."""

    MAGIC = b"FMK2"
    WHAT = "masked key"

    def to_bytes(self) -> bytes:
        return self._head() + self.elem.to_bytes()

    @classmethod
    def from_bytes(cls, buf: bytes, params: HeParams) -> "MaskedKey":
        uid, epoch, level, off = cls._read_head(buf, params)
        special = level == params.ring.max_level
        elem = RingElement.from_bytes(buf[off:], params.ring, level, special, True)
        return cls(params, uid, epoch, elem)


class PartialDecryption(_KeyShare):
    """The user's key terms on an opening's read set R, flooded and masked:
    `Residues` at the level the opening reads.  After the level the record
    states |R| as a little-endian u32, then the residues."""

    MAGIC = b"FPD3"
    WHAT = "partial decryption"

    def to_bytes(self) -> bytes:
        return self._head() + struct.pack(_COUNT_FIELD, self.elem.count) + self.elem.to_bytes()

    @classmethod
    def from_bytes(cls, buf: bytes, params: HeParams) -> "PartialDecryption":
        uid, epoch, level, off = cls._read_head(buf, params)
        end = off + struct.calcsize(_COUNT_FIELD)
        if len(buf) < end:
            raise SerializationError(f"truncated {cls.WHAT}")
        (count,) = struct.unpack_from(_COUNT_FIELD, buf, off)
        n = params.ring.n
        if not 1 <= count <= n:
            raise SerializationError(f"read set of {count} coefficients outside 1..{n}")
        elem = Residues.from_bytes(buf[end:], params.ring, level, count)
        return cls(params, uid, epoch, elem)


def setup_pairwise(
    params: HeParams,
    user_ids,
    epoch: int,
    master_seed: bytes,
) -> dict[int, UserKeyring]:
    """Provision keyrings for a user population at a given epoch.

    Per-epoch secrets are re-derived from each user's long-term seed, so
    rotating the epoch refreshes s_u and the evaluation key while the pairwise
    seeds stay put.  Each evaluation key sits at the round's upload level
    (``he.round_plan``), the highest level the round relinearizes at, and
    holds its public half as a seed of the master seed, the user and the
    epoch.  A chain that cannot hold the round is refused before any key.
    """
    evk_level = round_plan(params).upload_level
    ids = list(user_ids)
    if len(set(ids)) != len(ids):
        raise ProtocolError("duplicate user ids in setup")
    rings: dict[int, UserKeyring] = {}
    for u in ids:
        secret_seed = _h(master_seed, b"user", str(u).encode())
        sk_seed = _h(secret_seed, b"sk", str(epoch).encode())
        sk = SecretKey.generate(params, sk_seed)
        evk_seed = int.from_bytes(_h(secret_seed, b"evk", str(epoch).encode())[:8], "little")
        # the key's public half: the user's own, drawn from public data
        a_seed = _h(master_seed, b"evk-a", str(u).encode(), str(epoch).encode())
        evk = EvalKey.generate(
            params, sk, np.random.default_rng(evk_seed), level=evk_level, a_seed=a_seed
        )
        pair_seeds = {j: _pair_seed(master_seed, u, j) for j in ids if j != u}
        rings[u] = UserKeyring(
            user_id=u,
            params=params,
            epoch=epoch,
            sk=sk,
            evk=evk,
            pair_seeds=pair_seeds,
        )
    return rings


def _masked(kr: UserKeyring, roster, elem, leg: bytes, *extra: bytes):
    """``elem`` (a `RingElement` or the `Residues` of a read set) plus the
    user's pair mask with every other roster member, in roster order.  Both
    ends of a pair draw the same mask, at ``elem``'s layout, from their pair
    seed under the tag ``leg|epoch|extra...`` and add it with opposite signs."""
    roster = list(roster)
    if len(set(roster)) != len(roster):
        raise ProtocolError("duplicate user ids in roster")
    if kr.user_id not in roster:
        raise ProtocolError(f"user {kr.user_id} not part of roster {roster}")
    missing = [j for j in roster if j != kr.user_id and j not in kr.pair_seeds]
    if missing:
        raise ProtocolError(f"no pair seeds for roster members {missing}")
    tag = b"|".join((leg, str(kr.epoch).encode(), *extra))
    if isinstance(elem, Residues):
        layout = dict(level=elem.level, count=elem.count, tag=tag)
    else:
        layout = dict(level=elem.level, special=elem.special, ntt=True, tag=tag)
    q = elem._q()
    acc = elem.data
    for j in roster:
        if j != kr.user_id:
            m = sample_uniform(kr.params.ring, kr.pair_seeds[j], **layout)
            acc = (add_mod if kr.user_id < j else sub_mod)(acc, m.data, q)
    return replace(elem, data=acc)


def _one_epoch(shares, what: str) -> None:
    epochs = {share.epoch for share in shares}
    if len(epochs) != 1:
        raise ProtocolError(f"mixed epochs in {what}: {sorted(epochs)}")


def mask_key(kr: UserKeyring, roster, level: int | None = None) -> MaskedKey:
    """The user's epoch key plus all pairwise masks for this roster, at
    ``level``: over the chain up to it, with the special row only at the top
    level, which is the default."""
    top = kr.params.ring.max_level
    level = top if level is None else level
    kr.params.ring.moduli(level)  # refuses a level outside the chain
    elem = _masked(kr, roster, kr.sk.s.mod_reduce_to(level, special=level == top), b"km")
    return MaskedKey(params=kr.params, user_id=kr.user_id, epoch=kr.epoch, elem=elem)


def reconstruct_group_key(masked_keys, roster) -> RingElement:
    """Sum the masked keys of exactly this roster; pair masks cancel to sum(s_u)."""
    roster = list(roster)
    by_user = {}
    for mk in masked_keys:
        if mk.user_id in by_user:
            raise ProtocolError(f"duplicate masked key from user {mk.user_id}")
        by_user[mk.user_id] = mk
    if set(by_user) != set(roster):
        raise ProtocolError(
            f"masked keys {sorted(by_user)} do not match roster {sorted(roster)}"
        )
    _one_epoch(by_user.values(), "masked keys")
    acc = None
    for u in roster:
        acc = by_user[u].elem if acc is None else acc.add(by_user[u].elem)
    return acc


def aggregate_fresh(cts: dict[int, Ciphertext]) -> Ciphertext:
    """Sum fresh ciphertexts that share the round's public polynomial.

    Only the c0 parts add; c1 stays the shared a, so the sum decrypts under
    the aggregate key sum(s_u).
    """
    if not cts:
        raise ProtocolError("nothing to aggregate")
    users = sorted(cts)
    _check_addable([cts[u] for u in users])
    first = cts[users[0]]
    acc = first.c0
    for u in users[1:]:
        ct = cts[u]
        if ct.c1 != first.c1:
            raise ProtocolError(
                "fresh aggregation requires the shared public polynomial; "
                f"user {u} encrypted against a different one"
            )
        acc = acc.add(ct.c0)
    return replace(
        first,
        comps=(acc, first.c1),
        noise_log2=first.noise_log2 + np.log2(len(users)),
        msg_bound=first.msg_bound * len(users),
    )


def group_decrypt(ct: Ciphertext, group_key: RingElement):
    """Decrypt an aggregate of fresh ciphertexts with the reconstructed key sum."""
    return decrypt(ct, SecretKey(group_key)).values


def _flood_sigma(params: HeParams) -> float:
    """Width of the flooding noise on every partial decryption."""
    return params.sigma * 2.0**params.flood_sigma_bits


def _opened_at(ct: Ciphertext) -> tuple[int, float, int]:
    """Where an opening of ``ct`` reads it: (level, scale, divisor).  A
    three-component product's opened residues are divided by q_level, which
    takes them a level down and divides the scale; any other ciphertext
    opens at its own level and scale, divided by 1."""
    if len(ct.comps) == 3:
        q = ct.params.ring.chain[ct.level]
        return ct.level - 1, ct.scale / q, q
    return ct.level, ct.scale, 1


def opening_noise(cts) -> float:
    """Bound on what a roster opening of ``cts`` adds to a decoded
    coefficient: each ciphertext's tracked noise and each partial's flooding
    (6 sigma); for a three-component product the noise is divided by q_level
    and every division (one per user, one of the sum) rounds by at most 1/2."""
    cts = list(cts)
    flood = 6.0 * _flood_sigma(cts[0].params)
    _, scale, q = _opened_at(cts[0])
    rounding = 0.5 if q > 1 else 0.0
    return (sum(2.0**ct.noise_log2 / q + rounding + flood for ct in cts) + rounding) / scale


def _terms(kr: UserKeyring, parts) -> list[RingElement]:
    """The user's key terms in the NTT domain of its own ciphertexts, each
    given by its parts after c0, (c1,) or (c1, d2), in order: c1 * s_u, less
    d2 * s_u^2 for a three-component product.

    d2 * s_u^2 is formed once per d2 (by identity) for all the products that
    share it, and s_u is prepared once when it multiplies more than once
    (several c1, or a c1 and itself)."""
    if any(not p[0].ntt for p in parts):
        raise ProtocolError("partial decryption expects an NTT-domain c1")
    d2s = {id(p[1]): p[1] for p in parts if len(p) == 2}
    s = kr.sk.s.mod_reduce_to(max(p[0].level for p in parts))
    if len(parts) + len(d2s) > 1:
        s = s.prepared()
    quads = {}
    for key, d2 in d2s.items():
        s_l = s.mod_reduce_to(d2.level)
        quads[key] = d2.mul(s_l.mul(s_l))
    out = []
    for p in parts:
        terms = p[0].mul(s.mod_reduce_to(p[0].level))
        out.append(terms.sub(quads[id(p[1])]) if len(p) == 2 else terms)
    return out


def key_terms(keyrings: dict, openings, read) -> list[dict[int, Residues]]:
    """Each user's key terms of its own ciphertext in each opening on the
    read set, in the coefficient domain at the level the opening reads (a
    three-component product's divided by q_level, rounded): one dict by user
    per opening of ``openings`` (each a dict of ciphertexts by user), in
    order.

    Each user computes only its own terms, of all of its ciphertexts at once
    (``_terms``), and holds its prepared s_u only meanwhile.  Every element
    goes through one ``coeffs_at`` call, so a read of more than one
    coefficient takes one inverse transform per ``RingParams.group_size``
    elements, not one per user.
    """
    openings = list(openings)
    mine: dict = {}
    for opening in openings:
        for u, ct in opening.items():
            mine.setdefault(u, []).append(ct.comps[1:])
    by_user = {u: iter(_terms(keyrings[u], parts)) for u, parts in mine.items()}
    elems = [next(by_user[u]) for opening in openings for u in opening]
    terms = iter(coeffs_at(elems, read))
    out = []
    for opening in openings:
        _, _, q = _opened_at(next(iter(opening.values())))
        got = [next(terms) for _ in opening]
        if q > 1:
            got = [t.drop_last_modulus() for t in got]
        out.append(dict(zip(opening, got)))
    return out


def masked_partial_decrypt(
    kr: UserKeyring,
    c1,
    round_tag: bytes,
    roster,
    rng: np.random.Generator,
    read=None,
) -> PartialDecryption:
    """The user's key terms on the read set ``read`` (every coefficient if
    None), flooded and masked so only the roster-wide sum is meaningful.

    ``c1`` is the NTT-domain c1 of the user's two-component ciphertext, or
    the user's terms on the read set already (`key_terms`, which reads a
    roster's terms at once), whose read set it then is.  The flooding is
    drawn in the coefficient domain, one error per residue column.

    The round tag must be unique per (epoch, protocol leg); reusing one lets
    two mask layers cancel outside the intended sum.
    """
    if isinstance(c1, Residues):
        terms = c1
    else:
        read = range(kr.params.ring.n) if read is None else read
        (terms,) = coeffs_at(_terms(kr, [(c1,)]), read)
    flood = sample_error(
        kr.params.ring, rng, _flood_sigma(kr.params), level=terms.level, count=terms.count
    )
    acc = _masked(kr, roster, terms.add(flood), b"pd", round_tag)
    return PartialDecryption(params=kr.params, user_id=kr.user_id, epoch=kr.epoch, elem=acc)


def combine_partials(
    cts: dict[int, Ciphertext],
    partials: dict[int, PartialDecryption],
    read=None,
) -> np.ndarray:
    """The opening: the read set of sum_u c0_u minus the summed partial
    decryptions, decoded, in the order of ``read``.

    Each user supplied the key terms of their own ciphertext, so this
    recovers sum_u (m_u + noise) on the read set without any party revealing
    s_u.  For three-component products the server divides its sum's residues
    by q_level, as each user divided their terms.  One coefficient is read
    without a transform (``coeffs_at``).  Without a read set the partials
    cover every coefficient and the result is the packed vector, as
    ``decrypt`` reads it.
    """
    if not cts:
        raise ProtocolError("nothing to combine")
    if set(cts) != set(partials):
        raise ProtocolError(
            f"partials {sorted(partials)} do not match ciphertexts {sorted(cts)}"
        )
    _one_epoch(partials.values(), "partial decryptions")
    users = sorted(cts)
    _check_addable([cts[u] for u in users])
    first = cts[users[0]]
    level, scale, q = _opened_at(first)
    whole = read is None
    read = range(first.params.ring.n) if whole else read
    c0, shares = None, None
    for u in users:
        part = partials[u].elem
        if (part.level, part.count) != (level, len(read)):
            raise ProtocolError(
                f"partial from user {u} holds {part.count} coefficients at level "
                f"{part.level}; the opening reads {len(read)} at level {level}"
            )
        c0 = cts[u].c0 if c0 is None else c0.add(cts[u].c0)
        shares = part if shares is None else shares.add(part)
    (opened,) = coeffs_at([c0], read)
    if q > 1:
        opened = opened.drop_last_modulus()
    vals = decode(opened.sub(shares), scale)
    return vals[: first.length] if whole else vals
