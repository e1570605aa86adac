"""Multi-user key material: masked key sums and masked partial decryptions.

Every user u holds a per-epoch secret s_u plus one static shared seed per
peer.  From the pair seed both endpoints derive the *same* uniform ring
element and attach it with opposite signs, so for any roster R:

    sum_{u in R} (s_u + sum_{j in R, j != u} sgn(u,j) * m_{u,j})  =  sum_u s_u

The masked keys therefore reveal the aggregate key and nothing else (each
individual masked key is uniform given the rest).  The same trick, keyed by a
per-leg round tag, masks partial decryptions: user u returns

    ps_u = c1_u * s_u + e_flood + sum_j sgn(u,j) * r_{u,j}(tag)

and only the sum over the full roster strips the masks.  The flooding noise,
of width sigma * 2^flood_sigma_bits, drowns the secret-dependent rounding of
the individual share; ``opening_noise`` bounds what an opening adds to a
decoded value: each ciphertext's tracked noise plus 6 sigma of flooding per
share.  The roster sums follow the adding rule of :mod:`fhefl.he`.

Both shares travel as the same record, (preset name, user id, epoch, level,
residues), and differ only in their magic and in the element's layout, which
the record's class fixes and its header's level completes.  A masked key is a
top-level NTT element with the special row; a partial decryption is an NTT
element of the chain at its c1's level.  The deserialisers refuse another
preset, a level outside the chain and a masked key below the top level.

``setup_pairwise`` builds each user's evaluation key at the round's upload
level (``he._norm_level``), the highest level the round relinearizes at, so
the key carries no pair or row above it: at fhefl-16384 that is 4 of 5 pairs
of 5 of 6 rows.

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
    _norm_level,
    _read_record_head,
    _record_head,
    decode,
    decrypt,
)
from .ntt import add_mod, sub_mod
from .ring import RingElement, sample_error, sample_uniform

_SHARE_FIELDS = "<IIB"  # user id, epoch, level


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
    epoch as little-endian u32, the level as a byte, then the element's
    residues at the subclass's layout."""

    params: HeParams
    user_id: int
    epoch: int
    elem: RingElement

    MAGIC = b""
    WHAT = "key share"
    SPECIAL = False

    def to_bytes(self) -> bytes:
        head = _record_head(self.MAGIC, self.params)
        head += struct.pack(_SHARE_FIELDS, self.user_id, self.epoch, self.elem.level)
        return head + self.elem.to_bytes()

    @classmethod
    def from_bytes(cls, buf: bytes, params: HeParams):
        off = _read_record_head(buf, cls.MAGIC, cls.WHAT, params)
        end = off + struct.calcsize(_SHARE_FIELDS)
        if len(buf) < end:
            raise SerializationError(f"truncated {cls.WHAT}")
        uid, epoch, level = struct.unpack_from(_SHARE_FIELDS, buf, off)
        top = params.ring.max_level
        if level > top:
            raise SerializationError(f"{cls.WHAT} level {level} outside chain 0..{top}")
        if cls.SPECIAL and level != top:
            raise SerializationError(f"{cls.WHAT} at level {level}, below the top level {top}")
        elem = RingElement.from_bytes(buf[end:], params.ring, level, cls.SPECIAL, True)
        return cls(params, uid, epoch, elem)


class MaskedKey(_KeyShare):
    """s_u plus the user's pair masks, over the full basis."""

    MAGIC = b"FMK2"
    WHAT = "masked key"
    SPECIAL = True


class PartialDecryption(_KeyShare):
    """c1 * s_u plus flooding and pair masks, at c1's level."""

    MAGIC = b"FPD2"
    WHAT = "partial decryption"


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
    (``he._norm_level``), the highest level the round relinearizes at.
    """
    ids = list(user_ids)
    if len(set(ids)) != len(ids):
        raise ProtocolError("duplicate user ids in setup")
    evk_level = _norm_level(params)
    rings: dict[int, UserKeyring] = {}
    for u in ids:
        secret_seed = _h(master_seed, b"user", str(u).encode())
        sk_seed = _h(secret_seed, b"sk", str(epoch).encode())
        sk = SecretKey.generate(params, sk_seed)
        evk_seed = int.from_bytes(_h(secret_seed, b"evk", str(epoch).encode())[:8], "little")
        evk = EvalKey.generate(params, sk, np.random.default_rng(evk_seed), level=evk_level)
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


def _masked(kr: UserKeyring, roster, elem: RingElement, leg: bytes, *extra: bytes) -> RingElement:
    """``elem`` plus the user's pair mask with every other roster member, in
    roster order.  Both ends of a pair draw the same element, at ``elem``'s
    layout, from their pair seed under the tag ``leg|epoch|extra...`` and add
    it with opposite signs."""
    roster = list(roster)
    if len(set(roster)) != len(roster):
        raise ProtocolError("duplicate user ids in roster")
    if kr.user_id not in roster:
        raise ProtocolError(f"user {kr.user_id} not part of roster {roster}")
    missing = [j for j in roster if j != kr.user_id and j not in kr.pair_seeds]
    if missing:
        raise ProtocolError(f"no pair seeds for roster members {missing}")
    tag = b"|".join((leg, str(kr.epoch).encode(), *extra))
    layout = dict(level=elem.level, special=elem.special, ntt=True, tag=tag)
    ring = kr.params.ring
    q = ring.tables.q[elem.rows]
    acc = elem.data
    for j in roster:
        if j != kr.user_id:
            m = sample_uniform(ring, kr.pair_seeds[j], **layout)
            acc = (add_mod if kr.user_id < j else sub_mod)(acc, m.data, q)
    return RingElement(ring, acc, elem.level, elem.special, elem.ntt)


def _one_epoch(shares, what: str) -> None:
    epochs = {share.epoch for share in shares}
    if len(epochs) != 1:
        raise ProtocolError(f"mixed epochs in {what}: {sorted(epochs)}")


def mask_key(kr: UserKeyring, roster) -> MaskedKey:
    """The user's epoch key plus all pairwise masks for this roster."""
    elem = _masked(kr, roster, kr.sk.s, b"km")
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


def opening_noise(cts) -> float:
    """Bound on what a roster opening of ``cts`` adds to a decoded
    coefficient: each ciphertext's tracked noise and each partial's flooding
    (6 sigma)."""
    cts = list(cts)
    flood = 6.0 * _flood_sigma(cts[0].params)
    return sum(2.0**ct.noise_log2 + flood for ct in cts) / cts[0].scale


def masked_partial_decrypt(
    kr: UserKeyring,
    c1: RingElement,
    round_tag: bytes,
    roster,
    rng: np.random.Generator,
) -> PartialDecryption:
    """c1 * s_u, flooded and masked so only the roster-wide sum is meaningful.

    The round tag must be unique per (epoch, protocol leg); reusing one lets
    two mask layers cancel outside the intended sum.
    """
    if not c1.ntt:
        raise ProtocolError("partial decryption expects an NTT-domain c1")
    level = c1.level
    s_l = kr.sk.s.mod_reduce_to(level)
    flood = sample_error(kr.params.ring, rng, _flood_sigma(kr.params), level=level).to_ntt()
    acc = _masked(kr, roster, c1.mul(s_l).add(flood), b"pd", round_tag)
    return PartialDecryption(params=kr.params, user_id=kr.user_id, epoch=kr.epoch, elem=acc)


def combine_partials(
    cts: dict[int, Ciphertext],
    partials: dict[int, PartialDecryption],
) -> np.ndarray:
    """sum_u c0_u minus the summed partial decryptions, decoded.

    Each user supplied the key switch for their own c1, so this recovers
    sum_u (m_u + noise) without any party revealing s_u.
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
    if len(first.comps) != 2:
        raise ProtocolError("relinearize before requesting partial decryptions")
    phase = None
    for u in users:
        ct = cts[u]
        part = partials[u].elem
        if part.level != ct.level:
            raise ProtocolError(
                f"partial from user {u} is at level {part.level}, ciphertext at {ct.level}"
            )
        contrib = ct.c0.sub(part)
        phase = contrib if phase is None else phase.add(contrib)
    return decode(phase.to_coeff(), first.scale, first.length, first.direction)
