"""Symmetric leveled HE on the negacyclic ring with fixed-point coefficient packing.

Encryption follows the additive-mask form ``c0 = a*s + m + e, c1 = a`` with a
*shared* public polynomial ``a`` per round, so fresh ciphertexts from different
users can be aggregated by summing the ``c0`` parts against a summed key.
Decryption is the phase ``c0 - c1*s`` (plus ``+ c2*s^2`` for unrelinearized
three-component products, which ``rescale`` refuses).

Packing is by coefficients, not slots: a vector ``v`` sits at coefficients
``0..len-1`` (forward) or mirrored (reversed).  There are no rotation keys;
inner products come from the forward*reversed product instead, whose
coefficient ``len-1`` is exactly ``sum(v_k^2)``.  A packed value is
round(scale * v), rounded once from the exact product; for a power-of-two
scale that product is a float64 and ``np.rint`` rounds a whole vector at once.

``encrypt`` takes one vector or a sequence of ``PlainVector``s, and encrypts a
sequence as one batch: each vector packed by ``encode``, a*s once, the errors
drawn in the sequence's order and one forward transform over the stacked
m + e rows.  A user's upload is one such batch, byte-identical to
encrypting its ciphertexts one by one.

Multiplication produces scale ``s1*s2`` and is followed by an exact RNS
rescale that divides by the dropped prime.  Relinearization decomposes the
quadratic component into its per-prime RNS digits and key-switches them with
one evaluation-key pair per chain prime over the special-prime extension —
the standard word-sized realization of dividing by a large public ``p``.
The quadratic component of a product of fresh ciphertexts is the product of
their public c1 parts, so every product of a round's stage has the same one.
``he_mult_relin`` takes a stage as one batch, whose products must share
their c1 parts: it forms the component once, decomposes it into key-switch
digits once and key-switches it once per run of products under one key
(``switch_quadratic``) — the hoisting of Halevi & Shoup (CRYPTO 2018), across
users instead of rotations.

An ``EvalKey`` is built at a level L: one pair per prime q_0..q_L, each over
q_0..q_L and the special prime.  It switches a component at any level up to
L, and ``he_mult_relin`` refuses a product above its key's level before any
work.  A key holds its public half as a seed
(``EvalKey.generate(..., a_seed=)``, or 32 bytes of the key's rng): a_0..a_L
are expanded from it on each use, so the key holds its own half ``ks_b``
alone.  The round's level plan
sits beside ``product_scale`` and ``affine_scale``, computed from the chain
and the scales alone: ``_open_level`` is the lowest level that opens a value
below 2^_VALUE_BITS at a scale, ``_blind_bound`` the blind a rate takes at a
level, and ``_norm_level`` the level of the uploads.  The round relinearizes at that
level and below, so :mod:`fhefl.multikey` builds every user's key there.

``rescale``, ``he_mult_relin`` and ``plain_affine`` take one ciphertext (or
pair) or a sequence of them; a sequence is rescaled through batched
``RingElement.drop_last_modulus`` calls, with one transform per group of
components rather than one per ciphertext, and gives the same bytes.

A ciphertext's level is its components' level.  Ciphertexts add under one
rule (``_check_addable``, applied by ``he_add`` and by the roster sums of
:mod:`fhefl.multikey`): one level, one component count, one packing and
scales equal to a relative 1e-9; nothing aligns levels silently.  The noise
widths ``sigma`` (3.2) and ``flood_sigma_bits`` (20) are scheme constants.

Every ciphertext carries ``noise_log2``, an upper bound on its noise in
coefficient units.  The tests check it against the error measured with the
known key, at test-16 and test-1024, for encryption, addition, the tensor
product, relinearization, rescaling, ``plain_affine`` and fresh aggregation.
``decrypt`` refuses a ciphertext whose bound exceeds half its scale, since
the value's precision has collapsed.

Wire format v3 (``ciphertext_to_bytes``): magic, version, preset name (the
reader takes the params and refuses another preset's record), then level,
component count, packing direction, length, scale, ``noise_log2`` and
``msg_bound``, so a ciphertext read back is refused by ``decrypt`` exactly
when the original would be.  The header states the layout once: every
component is an NTT-domain chain element at its level.  Each component
follows as a kind byte and either the element's residues, whose length the
level fixes (``RingElement.to_bytes``: n * sum(bits(q_0..q_l)) bits plus a
byte of padding at most), or a one-byte length and the seed of the round's
public polynomial.  The c1 of a two-component ciphertext travels as its seed
whenever it is that polynomial (``common_poly`` remembers the seed, and
dropping primes keeps it) and the seed has at most 255 bytes, which halves a
fresh upload; the reader rebuilds it with ``common_poly`` at the header's
level, once per (seed, level) in a row.  A c0, any component of a
three-component product and any computed c1 travel in full.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import ClassVar, Iterator

import numpy as np

from .errors import (
    EncodingError,
    LevelError,
    ParameterError,
    SerializationError,
)
from .ntt import add_mod, find_ntt_primes, mul_mod
from .ring import (
    RingElement,
    RingParams,
    _seed_bytes,
    rns_digits,
    sample_error,
    sample_ternary,
    sample_uniform,
    to_ntt_all,
)

_CT_MAGIC = b"FCT1\x03"  # magic and wire format version 3
# level, component count, direction flag, length, scale, noise_log2, msg_bound
_CT_FIELDS = "<BBBIddd"
_COMP_RING, _COMP_SEED = 0, 1  # component kinds: residues at the header's level, or a seed
_SCALE_RTOL = 1e-9  # scales that differ by less than this add as one


@dataclass
class HeParams:
    """Scheme parameters: ring and fixed-point scale (noise widths are constants)."""

    ring: RingParams
    scale_bits: int
    name: str = "custom"
    logq_budget: int | None = None  # security-standard modulus budget, if pinned
    sigma: ClassVar[float] = 3.2  # encryption and key error
    flood_sigma_bits: ClassVar[int] = 20  # partial-decryption flooding: sigma * 2^this

    def __post_init__(self) -> None:
        # every wire record names its preset after a length byte
        size = len(self.name.encode())
        if size > 255:
            raise ParameterError(f"preset name of {size} UTF-8 bytes; a wire record holds 255")

    @property
    def scale(self) -> float:
        return float(1 << self.scale_bits)

    @property
    def capacity(self) -> int:
        """Packable vector length: half the ring degree (the product of a
        forward/reversed pair of full-capacity vectors must not wrap)."""
        return self.ring.n // 2

    def chain_bits(self) -> list[int]:
        return [q.bit_length() for q in self.ring.chain]

    def total_logq(self) -> int:
        bits = sum(self.chain_bits())
        if self.ring.special:
            bits += self.ring.special.bit_length()
        return bits


# ---------------------------------------------------------------------------
# preset registry
# ---------------------------------------------------------------------------

_PRESET_SPECS: dict[str, dict] = {
    # name: n, (q0 bits, mid bits, #mids, special bits), scale bits, budget
    "test-16": dict(n=16, q0=53, mid=41, mids=2, special=53, scale=40, budget=None),
    "test-1024": dict(n=1024, q0=53, mid=41, mids=3, special=53, scale=40, budget=None),
    "fhefl-8192": dict(n=8192, q0=54, mid=26, mids=4, special=60, scale=25, budget=218),
    "fhefl-16384": dict(n=16384, q0=61, mid=60, mids=4, special=61, scale=60, budget=438),
}

_PRESET_CACHE: dict[str, HeParams] = {}


def preset_names() -> list[str]:
    return list(_PRESET_SPECS)


def get_params(name: str) -> HeParams:
    """Look up a named parameter preset (built once, then cached)."""
    if name not in _PRESET_SPECS:
        known = ", ".join(preset_names())
        raise ParameterError(f"unknown preset {name!r}; known presets: {known}")
    if name not in _PRESET_CACHE:
        spec = _PRESET_SPECS[name]
        n = spec["n"]
        sp = find_ntt_primes(n, spec["special"], 1)[0]
        q0 = find_ntt_primes(n, spec["q0"], 1, avoid=[sp])[0]
        mids = find_ntt_primes(n, spec["mid"], spec["mids"], avoid=[sp, q0])
        ring = RingParams(n=n, chain=(q0, *mids), special=sp)
        _PRESET_CACHE[name] = HeParams(
            ring=ring,
            scale_bits=spec["scale"],
            name=name,
            logq_budget=spec["budget"],
        )
    return _PRESET_CACHE[name]


# ---------------------------------------------------------------------------
# plaintext packing
# ---------------------------------------------------------------------------


@dataclass
class PlainVector:
    """A packed real vector plus its packing direction."""

    values: np.ndarray
    direction: str = "forward"

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise EncodingError("packed vectors must be non-empty and 1-d")
        if self.direction not in ("forward", "reversed"):
            raise EncodingError(f"unknown packing direction {self.direction!r}")


def _scaled_round(scale: float, v: float) -> int:
    """round(scale * v) of the exact product, ties to even."""
    vn, vd = v.as_integer_ratio()
    sn, sd = scale.as_integer_ratio()
    q, r = divmod(vn * sn, vd * sd)
    return q + (2 * r > vd * sd or (2 * r == vd * sd and q & 1))


def _scaled_ints(scale: float, values: np.ndarray) -> np.ndarray:
    """``_scaled_round`` of every value: int64 when the scale is a power of
    two >= 1 and every product is below 2^62, Python integers otherwise.

    Such a scale makes scale * v exact in float64, and ``np.rint`` rounds the
    exact product half to even, as ``_scaled_round`` does.
    """
    if scale >= 1.0 and math.frexp(scale)[0] == 0.5:
        x = values * scale
        if (np.abs(x) < 2.0**62).all():  # a NaN or an infinity fails too
            return np.rint(x).astype(np.int64)
    return np.array([_scaled_round(scale, float(v)) for v in values], dtype=object)


def _check_headroom(params: HeParams, worst: int, level: int) -> None:
    """Refuse an encoded magnitude that wraps the level's modulus Q_level / 2."""
    bound = _modulus(params, level) // 2
    if worst >= bound:
        raise EncodingError(
            f"encoded magnitude 2^{worst.bit_length()} overflows modulus headroom "
            f"2^{bound.bit_length() - 1} at level {level}"
        )


def _plaintext(params: HeParams, ints, level: int, direction: str) -> RingElement:
    """Place fixed-point integers on the packing coefficients, checking headroom."""
    worst = int(np.abs(ints).max()) if isinstance(ints, np.ndarray) else max(map(abs, ints))
    _check_headroom(params, worst, level)
    if direction != "forward":
        ints = ints[::-1]
    return RingElement.from_int_coeffs(params.ring, ints, level)


def _packed(params: HeParams, values, direction: str) -> PlainVector:
    """``values`` as a ``PlainVector`` that fits the packing capacity."""
    pv = values if isinstance(values, PlainVector) else PlainVector(values, direction)
    if pv.values.size > params.capacity:
        raise EncodingError(
            f"vector of length {pv.values.size} exceeds packing capacity {params.capacity}"
        )
    return pv


def encode(
    params: HeParams,
    values,
    level: int | None = None,
    *,
    scale: float | None = None,
    direction: str = "forward",
) -> RingElement:
    """Fixed-point packing: coefficient k (forward) or len-1-k (reversed)
    holds round(scale * v_k), rounded once from the exact product."""
    pv = _packed(params, values, direction)
    level = params.ring.max_level if level is None else level
    scale = params.scale if scale is None else float(scale)
    return _plaintext(params, _scaled_ints(scale, pv.values), level, pv.direction)


def _monomial(params: HeParams, coeff: int, index: int, level: int) -> RingElement:
    """coeff * X^index in the NTT domain (no transform), checking headroom."""
    _check_headroom(params, abs(coeff), level)
    return RingElement.monomial(params.ring, coeff, index, level)


def encode_monomial(
    params: HeParams,
    value: float,
    index: int,
    level: int,
    *,
    scale: float | None = None,
) -> RingElement:
    """``encode`` of a vector whose only nonzero entry is ``value`` at
    ``index``, returned in the NTT domain without a transform."""
    scale = params.scale if scale is None else float(scale)
    if not 0 <= index < params.capacity:
        raise EncodingError(f"index {index} outside packing capacity {params.capacity}")
    return _monomial(params, _scaled_round(scale, float(value)), index, level)


def decode(
    elem: RingElement,
    scale: float,
    length: int,
    direction: str = "forward",
) -> np.ndarray:
    """Centered lift of the first ``length`` coefficients divided by the scale."""
    ints = elem.to_int_coeffs(indices=np.arange(length))
    # object-to-float64 conversion rounds each integer correctly, as float() does
    vals = ints.astype(np.float64) / scale
    if direction == "reversed":
        vals = vals[::-1]
    return vals


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------


@dataclass
class SecretKey:
    """Ternary secret in NTT form over the full basis (chain + special prime)."""

    s: RingElement

    @classmethod
    def generate(cls, params: HeParams, seed) -> "SecretKey":
        s = sample_ternary(params.ring, seed)
        return cls(s=s.to_ntt())


@dataclass
class EvalKey:
    """Relinearization key at a level L: one (b_i, a_i) pair per chain prime
    q_0..q_L, each over q_0..q_L and the special prime.

    b_i = a_i*s + e_i + P_i*s^2, where P_i is the special prime carried on
    chain row i only (p * CRT idempotent).  Key switching then needs just the
    RNS digits of the quadratic component, and a level-L key switches any
    component at level L or below: it is the full key of the chain cut at
    q_L (Han & Ki, CT-RSA 2020), so a key needs no pair or row above the
    highest level it relinearizes at.

    The key holds its public half a_0..a_L as a seed (``a_seed``) that
    ``ks_a`` expands on each use, so it holds its own half ``ks_b`` alone and
    pays one expansion per key switch.  Each key's a_i are its own: a public
    half shared across a roster would give away sum_u s_u^2 once the
    rate-sum check reveals sum_u s_u.
    """

    ks_b: tuple[RingElement, ...]
    a_seed: bytes

    @property
    def level(self) -> int:
        """The highest level of a quadratic component this key switches."""
        return self.ks_b[0].level

    @property
    def ks_a(self) -> tuple[RingElement, ...]:
        """The public half a_0..a_L, expanded from the seed."""
        return _public_half(self.ks_b[0].params, self.a_seed, self.level)

    @classmethod
    def generate(
        cls,
        params: HeParams,
        sk: SecretKey,
        rng: np.random.Generator,
        level: int | None = None,
        a_seed: bytes | None = None,
    ) -> "EvalKey":
        """The key at ``level`` (the top level if None).

        ``a_seed`` is public bytes whose expansion gives the a_i; without it
        the rng draws a 32-byte seed first.  Either way the rng then draws the
        errors e_0..e_L and nothing else, so a level-L key's pairs are the
        top-level key's first L+1 without the rows above L, apart from each
        pair's special row, which the sampler draws after the chain rows the
        key holds.
        """
        ring = params.ring
        if ring.special is None:
            raise ParameterError("relinearization keys need a special prime")
        level = ring.max_level if level is None else level
        ring.moduli(level)  # refuses a level outside the chain
        if a_seed is None:
            a_seed = rng.bytes(32)
        elif not (isinstance(a_seed, bytes) and len(a_seed) >= 16):
            raise ParameterError("a key's public seed is bytes of at least 16")
        # the key's error polynomials take one forward transform, and each
        # b_i is written over its own error
        errors = to_ntt_all(
            [
                sample_error(ring, rng, params.sigma, level=level, special=True)
                for _ in range(level + 1)
            ]
        )
        s = sk.s.mod_reduce_to(level, special=True)
        # P_i * s^2 is (p mod q_i) * s^2 on chain row i and zero on every
        # other row, so row i of p * s^2 (zero on the special row) is all of it
        p_s2 = s.mul(s).mul_scalar(ring.special)
        q = ring.tables.q
        for i, (a_i, b_i) in enumerate(zip(_public_half(ring, a_seed, level), errors)):
            b_i.data[:] = a_i.mul(s).add(b_i).data
            b_i.data[i] = add_mod(b_i.data[i], p_s2.data[i], q[i])
        return cls(ks_b=tuple(errors), a_seed=a_seed)


def _public_half(ring: RingParams, a_seed: bytes, level: int) -> tuple[RingElement, ...]:
    """The level-``level`` public half a_0..a_level that ``a_seed`` expands to:
    each a_i uniform over q_0..q_level and the special prime, in the NTT
    domain, from its own tag of the seed's stream."""
    return tuple(
        sample_uniform(ring, a_seed, level=level, special=True, ntt=True, tag=b"evk-a|%d" % i)
        for i in range(level + 1)
    )


def common_poly(params: HeParams, seed, level: int | None = None) -> RingElement:
    """The shared public polynomial a for one round of fresh encryptions.

    The element remembers its seed, so a ciphertext whose c1 it is can send
    the seed instead of the polynomial.
    """
    a = sample_uniform(params.ring, seed, level=level, ntt=True, tag=b"common-a")
    a.seed = _seed_bytes(seed)
    return a


# ---------------------------------------------------------------------------
# ciphertexts
# ---------------------------------------------------------------------------


@dataclass
class Ciphertext:
    params: HeParams
    comps: tuple[RingElement, ...]
    scale: float
    length: int
    direction: str = "forward"
    noise_log2: float = 0.0  # tested upper bound on the noise, log2 coefficient units
    msg_bound: float = 1.0

    @property
    def level(self) -> int:
        """The level of the components (every component shares it)."""
        return self.comps[0].level

    @property
    def c0(self) -> RingElement:
        return self.comps[0]

    @property
    def c1(self) -> RingElement:
        return self.comps[1]

    def mod_reduce_to(self, level: int) -> "Ciphertext":
        """Drop chain primes without rescaling (scale untouched, exact)."""
        return replace(self, comps=tuple(c.mod_reduce_to(level) for c in self.comps))


def _log2_add(a: float, b: float) -> float:
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log2(1.0 + 2.0 ** (lo - hi))


def encrypt(
    params: HeParams,
    values,
    sk: SecretKey,
    a: RingElement,
    rng: np.random.Generator,
    *,
    level: int | None = None,
    scale: float | None = None,
    direction: str = "forward",
) -> Ciphertext | tuple[Ciphertext, ...]:
    """Fresh encryption c0 = a*s + m + e, c1 = a at ``level``.

    ``values`` is one vector, packed by ``direction``, or a non-empty sequence
    of ``PlainVector``s, each packed by its own direction.  One vector gives
    one ciphertext, a sequence a tuple of them in its order.  The vectors are
    encrypted as one batch: each vector packed by ``encode``, a*s once, the
    errors drawn in the sequence's order and one forward transform over every
    m + e.
    """
    level = params.ring.max_level if level is None else level
    scale = params.scale if scale is None else float(scale)
    batch = (
        isinstance(values, (list, tuple))
        and len(values) > 0
        and all(isinstance(v, PlainVector) for v in values)
    )
    pvs = [_packed(params, v, direction) for v in (values if batch else [values])]
    ms = [encode(params, pv, level, scale=scale) for pv in pvs]
    cts = _encrypt_plaintexts(params, ms, pvs, sk, a, rng, scale)
    return cts if batch else cts[0]


def _encrypt_plaintexts(
    params: HeParams,
    ms: list[RingElement],
    pvs: list[PlainVector],
    sk: SecretKey,
    a: RingElement,
    rng: np.random.Generator,
    scale: float,
) -> tuple[Ciphertext, ...]:
    """c0 = a*s + m + e, c1 = a for each encoded plaintext m, all at one level;
    ``pvs`` give each ciphertext's length, direction and message bound."""
    level = ms[0].level
    a = a.mod_reduce_to(level)
    a_s = a.mul(sk.s.mod_reduce_to(level))
    # the NTT is linear mod q, so each m + e takes one transform, and the
    # transforms of the whole batch run as one over their stacked rows
    m_e = to_ntt_all([m.add(sample_error(params.ring, rng, params.sigma, level=level)) for m in ms])
    return tuple(
        Ciphertext(
            params=params,
            comps=(a_s.add(x), a),
            scale=scale,
            length=pv.values.size,
            direction=pv.direction,
            noise_log2=math.log2(6 * params.sigma + 0.5),
            msg_bound=float(np.abs(pv.values).max()),
        )
        for x, pv in zip(m_e, pvs)
    )


def _phase(ct: Ciphertext, sk: SecretKey) -> RingElement:
    """c0 - c1*s (+ c2*s^2 ...) in the coefficient domain."""
    s = sk.s.mod_reduce_to(ct.level)
    phase = ct.comps[0]
    s_pow = s
    for k, comp in enumerate(ct.comps[1:], start=1):
        term = comp.mul(s_pow)
        phase = phase.sub(term) if k % 2 == 1 else phase.add(term)
        if k < len(ct.comps) - 1:
            s_pow = s_pow.mul(s)
    return phase.to_coeff()


def decrypt(ct: Ciphertext, sk: SecretKey) -> PlainVector:
    """Phase decryption; handles two- and three-component ciphertexts."""
    if ct.noise_log2 > math.log2(ct.scale) - 1:
        raise EncodingError(
            f"tracked noise 2^{ct.noise_log2:.1f} exceeds half the scale "
            f"2^{math.log2(ct.scale):.1f}; precision has collapsed"
        )
    vals = decode(_phase(ct, sk), ct.scale, ct.length, ct.direction)
    return PlainVector(vals, ct.direction)


def reencrypt(
    ct: Ciphertext,
    sk: SecretKey,
    a: RingElement,
    rng: np.random.Generator,
    *,
    index: int,
    scale: float,
) -> Ciphertext:
    """The key holder's fresh encryption of coefficient ``index`` of ct's plaintext.

    The coefficient is read from the phase as an exact integer and re-encoded
    at ``scale`` on coefficient 0, rounding the exact rational once: unlike a
    decrypt-then-encrypt, the value never passes through a float, whose 53
    bits would cap its precision.  The fresh ciphertext sits at the level of
    ``a``, so a caller that draws a lower-level ``a`` gets a lower-level
    encryption.
    """
    params = ct.params
    coeff = int(_phase(ct, sk).to_int_coeffs(indices=[index])[0])
    value = Fraction(coeff) / Fraction(ct.scale)
    m = _plaintext(params, [round(value * Fraction(scale))], a.level, "forward")
    return _encrypt_plaintexts(params, [m], [PlainVector([float(value)])], sk, a, rng, scale)[0]


def _check_addable(cts) -> None:
    """The adding rule: ciphertexts add only at one level and one scale (to a
    relative ``_SCALE_RTOL``), with one component count and one packing
    (length, direction)."""
    first, *rest = cts
    for ct in rest:
        if ct.level != first.level:
            raise LevelError(f"level mismatch in addition: {ct.level} vs {first.level}")
        if not math.isclose(ct.scale, first.scale, rel_tol=_SCALE_RTOL):
            raise LevelError(f"scale mismatch in addition: {ct.scale} vs {first.scale}")
        if len(ct.comps) != len(first.comps):
            raise LevelError("component count mismatch; relinearize before adding")
        if (ct.length, ct.direction) != (first.length, first.direction):
            raise EncodingError("packed length/direction mismatch in addition")


def he_add(x: Ciphertext, y: Ciphertext) -> Ciphertext:
    """Component-wise sum of two ciphertexts that obey the adding rule."""
    _check_addable((x, y))
    comps = tuple(a.add(b) for a, b in zip(x.comps, y.comps))
    return replace(
        x,
        comps=comps,
        noise_log2=_log2_add(x.noise_log2, y.noise_log2),
        msg_bound=x.msg_bound + y.msg_bound,
    )


def _check_key_level(level: int, evk: EvalKey) -> None:
    """Refuse to key-switch a quadratic component above the key's level."""
    if level > evk.level:
        raise LevelError(
            f"product at level {level} is above its evaluation key's level {evk.level}"
        )


def _check_product(x: Ciphertext, y: Ciphertext, evk: EvalKey | None = None) -> None:
    """Refuse a pair of operands that cannot be multiplied (and relinearized
    under ``evk``, when given)."""
    if len(x.comps) != 2 or len(y.comps) != 2:
        raise LevelError("three-component operands must be relinearized first")
    if x.level != y.level:
        raise LevelError(
            f"multiplication needs aligned levels ({x.level} vs {y.level}); "
            "mod-reduce the fresher operand first"
        )
    if x.level < 1:
        raise LevelError("no levels left for multiplication")
    if evk is not None:
        _check_key_level(x.level, evk)
    n = x.params.ring.n
    out_len = x.length + y.length - 1
    if out_len > n:
        raise EncodingError(f"product length {out_len} wraps the ring degree {n}")


def _he_mult_raw(x: Ciphertext, y: Ciphertext, d2: RingElement | None = None) -> Ciphertext:
    """Tensor product -> three components (d0, d1, d2), scale multiplied.

    ``d2`` is x1*y1 when the caller has formed it already (``he_mult_relin``
    forms it once per batch); otherwise it is formed here.
    """
    _check_product(x, y)
    x0, x1 = x.comps
    y0, y1 = y.comps
    d0 = x0.mul(y0)
    d1 = x0.mul(y1).add(x1.mul(y0))
    if d2 is None:
        d2 = x1.mul(y1)
    n = x.params.ring.n
    root_n = math.log2(n) / 2
    nz = _log2_add(
        x.noise_log2 + math.log2(max(y.scale * y.msg_bound, 1.0)),
        y.noise_log2 + math.log2(max(x.scale * x.msg_bound, 1.0)),
    )
    nz = _log2_add(nz, x.noise_log2 + y.noise_log2) + root_n
    return Ciphertext(
        params=x.params,
        comps=(d0, d1, d2),
        scale=x.scale * y.scale,
        length=x.length + y.length - 1,
        direction="forward" if "forward" in (x.direction, y.direction) else "reversed",
        noise_log2=nz,
        msg_bound=x.msg_bound * y.msg_bound * min(x.length, y.length),
    )


@dataclass(frozen=True)
class SwitchedQuadratic:
    """A quadratic component d2 key-switched under one evaluation key:
    u0 - u1*s = d2*s^2 + p^-1 * sum_i digit_i * e_i (mod the active chain)."""

    d2: RingElement
    evk: EvalKey
    u0: RingElement
    u1: RingElement


def switch_quadratic(d2: RingElement, evks) -> Iterator[SwitchedQuadratic]:
    """Key-switch one quadratic component under each of ``evks``, in order.

    d2 is decomposed into its RNS digits once.  Each key's inner product with
    the digits over the extended basis is one stacked multiply per half of
    the key (a seeded key's public half expanded for it, and dropped after)
    and one sum over the digits; a group of keys' (u0, u1) are then
    exactly divided-and-rounded by the special prime in one
    ``drop_last_modulus`` call, all in the NTT domain.  The group holds
    ``RingParams.group_size // 2`` keys, so its 2 elements per key fill one
    group of the drop.  The pairs are yielded in key order, so a caller that
    uses each group before the next holds one group at a time.
    """
    ring, level = d2.params, d2.level
    rows = ring.rows(level, special=True)
    q = ring.tables.q[rows]
    digits = rns_digits(d2)

    # each pair's rows of q_0..q_level and its special row, by position: a
    # key below the top level holds fewer rows than the tables
    key_rows = [*range(level + 1), -1]

    def inner(half) -> RingElement:
        # the key's rows at d2's level, digit after digit as the digits lie,
        # each overwritten by its product with the digit
        terms = np.empty((level + 1, len(rows), ring.n), dtype=np.uint64)
        for k, term in zip(half, terms):
            np.take(k.data, key_rows, axis=0, out=term)
        flat = terms.reshape(digits.shape)
        mul_mod(digits, flat, ring.tables, rows * (level + 1), out=flat)
        acc = terms[0]
        for term in terms[1:]:
            acc = add_mod(acc, term, q)
        return RingElement(ring, acc, level, True, True)

    keys = iter(evks)
    while group := list(islice(keys, max(1, ring.group_size // 2))):
        for evk in group:
            _check_key_level(level, evk)
        downs = RingElement.drop_last_modulus(
            *[inner(half) for evk in group for half in (evk.ks_b, evk.ks_a)]
        )
        for k, evk in enumerate(group):
            yield SwitchedQuadratic(d2, evk, downs[2 * k], downs[2 * k + 1])


def relinearize(
    ct: Ciphertext, evk: EvalKey, switched: SwitchedQuadratic | None = None
) -> Ciphertext:
    """Key-switch the quadratic component under ``evk``; ``switched`` may carry
    that switch, computed once for every product that shares the component."""
    if len(ct.comps) != 3:
        raise LevelError("relinearize expects a three-component ciphertext")
    d0, d1, d2 = ct.comps
    if switched is None:
        (switched,) = switch_quadratic(d2, [evk])
    elif switched.evk is not evk or switched.d2 != d2:
        raise ParameterError("switched pair is not this product's quadratic component under evk")
    ring = ct.params.ring
    ks_noise = (
        math.log2(ct.level + 1)
        + math.log2(ring.n) / 2
        + math.log2(max(ring.chain))
        + math.log2(6 * ct.params.sigma)
        - math.log2(ring.special)
    )
    return replace(
        ct,
        comps=(d0.add(switched.u0), d1.add(switched.u1)),
        noise_log2=_log2_add(ct.noise_log2, ks_noise),
    )


def rescale(ct) -> Ciphertext | tuple[Ciphertext, ...]:
    """Exact divide-and-round by the last chain prime; scale divides with it.

    ``ct`` is one ciphertext, or a sequence of them at one level whose
    components all drop through one ``drop_last_modulus`` call.  One gives
    one, a sequence a tuple in its order.  A three-component product is
    refused: the rounding of its d2 reaches the phase times s^2, which the
    tracked bound does not cover (relinearize first, or open the product
    through `fhefl.multikey`, which divides its opened residues instead).
    """
    batch = not isinstance(ct, Ciphertext)
    cts = tuple(ct) if batch else (ct,)
    if not cts:
        return ()
    if any(len(x.comps) != 2 for x in cts):
        raise LevelError("rescale takes two-component ciphertexts; relinearize first")
    flat = [c for x in cts for c in x.comps]
    downs = iter(flat[0].drop_last_modulus(*flat[1:]))
    out = []
    for x in cts:
        q_last = x.params.ring.chain[x.level]
        nz = _log2_add(
            x.noise_log2 - math.log2(q_last),
            math.log2(x.params.ring.n) / 2 + 1.0,  # rounding folded through the key
        )
        comps = tuple(islice(downs, len(x.comps)))
        out.append(replace(x, comps=comps, scale=x.scale / q_last, noise_log2=nz))
    return tuple(out) if batch else out[0]


def product_scale(params: HeParams, scale_x: float, scale_y: float, level: int) -> float:
    """Scale of ``he_mult_relin`` of two ciphertexts at ``level``."""
    return scale_x * scale_y / params.ring.chain[level]


def affine_scale(params: HeParams, scale: float, level: int) -> float:
    """Scale of ``plain_affine`` of a ciphertext at ``level``: the multiplier
    is encoded at ``params.scale`` and the product rescaled once."""
    return scale * params.scale / params.ring.chain[level]


# The round's level plan (see :mod:`fhefl.aggregation`), from public data
# only: every value the round opens is below 2^_VALUE_BITS in magnitude, and
# a rate is blinded by at most _MAX_BLIND.
_VALUE_BITS = 32
_MAX_BLIND = 2.0**20


def _modulus(params: HeParams, level: int) -> int:
    return params.ring.crt_constants(params.ring.moduli(level))[0]


def _open_level(params: HeParams, scale: float) -> int:
    """Lowest level whose modulus holds scale * 2^_VALUE_BITS and a sign;
    the top level if none does."""
    need = scale * 2.0 ** (_VALUE_BITS + 1)
    for level in range(params.ring.max_level + 1):
        if _modulus(params, level) >= need:
            return level
    return params.ring.max_level


def _blind_bound(params: HeParams, level: int, scale: float) -> float:
    """Largest safe blinding magnitude for a rate at this level and scale."""
    headroom = float(_modulus(params, level) // 2) / (scale * 16.0)
    return min(_MAX_BLIND, headroom)


def _norm_level(params: HeParams) -> int:
    """Lowest upload level whose squared norm opens and whose rate, after the
    product's rescale and the affine map's, takes the full blind; the top
    level if none does.  The round relinearizes at this level and below, so
    it is also the level of every user's evaluation key."""
    for level in range(2, params.ring.max_level + 1):
        d_scale = product_scale(params, params.scale, params.scale, level)
        p_scale = affine_scale(params, d_scale, level - 1)
        if (
            _open_level(params, d_scale) < level
            and _blind_bound(params, level - 2, p_scale) >= _MAX_BLIND
        ):
            return level
    return params.ring.max_level


def he_mult_relin(x, y, evk) -> Ciphertext | tuple[Ciphertext, ...]:
    """Full product: tensor, relinearize, rescale.

    ``x`` and ``y`` are one ciphertext each, or equal-length sequences of a
    batch's operands with ``evk`` one key per product; a batch gives a tuple
    in order.  Every product of a batch must share its operands' c1 parts,
    and so its quadratic component d2 = x1*y1: d2 is formed once, decomposed
    once and key-switched once per run of consecutive products under one key
    (``switch_quadratic``).  The products are then relinearized and rescaled
    half a ``RingParams.group_size`` at a time, so that their components fill
    one group of the drop and only one group of three-component products is
    held.
    """
    batch = not isinstance(x, Ciphertext)
    xs, ys, evks = (tuple(x), tuple(y), tuple(evk)) if batch else ((x,), (y,), (evk,))
    if not 0 < len(xs) == len(ys) == len(evks):
        raise ParameterError("he_mult_relin takes one key per operand pair, and at least one pair")
    for a, b, k in zip(xs, ys, evks):
        _check_product(a, b, k)
    x1, y1 = xs[0].c1, ys[0].c1
    if any(a.c1 != x1 or b.c1 != y1 for a, b in zip(xs, ys)):
        raise ParameterError("a batch's products must share their operands' c1 parts")
    d2 = x1.mul(y1)
    new_run = [i == 0 or k is not evks[i - 1] for i, k in enumerate(evks)]
    switched = switch_quadratic(d2, [k for k, new in zip(evks, new_run) if new])
    step = max(1, d2.params.group_size // 2)
    out = []
    for first in range(0, len(xs), step):
        raws = []
        for i in range(first, min(first + step, len(xs))):
            if new_run[i]:
                sw = next(switched)
            raws.append(relinearize(_he_mult_raw(xs[i], ys[i], d2), evks[i], sw))
        out += rescale(raws)
    return tuple(out) if batch else out[0]


def plain_affine(
    ct, mult: float, add: float, *, add_index: int = 0
) -> Ciphertext | tuple[Ciphertext, ...]:
    """Homomorphic mult*x + add with plaintext scalars.

    The multiplicative constant scales every packed coefficient; the additive
    constant lands on ``add_index`` (the readout coefficient of the value of
    interest — 0 for plain scalars, chunk_len-1 for norm ciphertexts).
    Costs one level.  ``ct`` is one ciphertext, or a sequence of them at one
    level, rescaled through one ``rescale`` call: one gives one, a sequence a
    tuple in its order.
    """
    batch = not isinstance(ct, Ciphertext)
    mids = []
    for x in ct if batch else (ct,):
        if len(x.comps) != 2:
            raise LevelError("plain_affine expects a relinearized ciphertext")
        if x.level < 1:
            raise LevelError("no levels left for the affine rescale")
        params = x.params
        if add != 0.0 and not 0 <= add_index < params.ring.n:
            raise EncodingError(f"add_index {add_index} outside ring degree")
        # a constant's NTT is the constant in every slot: one scalar pass
        pm = _scaled_round(params.scale, float(mult))
        _check_headroom(params, abs(pm), x.level)
        mids.append(replace(
            x,
            comps=tuple(c.mul_scalar(pm) for c in x.comps),
            scale=x.scale * params.scale,
            noise_log2=x.noise_log2 + params.scale_bits
            + math.log2(max(abs(mult), 2**-params.scale_bits)),
            msg_bound=x.msg_bound * max(abs(mult), 1e-300),
        ))
    outs = list(rescale(mids))
    if add != 0.0:
        for k, out in enumerate(outs):
            pa = _monomial(out.params, int(round(add * out.scale)), add_index, out.level)
            outs[k] = replace(
                out,
                comps=(out.c0.add(pa), out.c1),
                noise_log2=_log2_add(out.noise_log2, -1.0),
                msg_bound=out.msg_bound + abs(add),
            )
    return tuple(outs) if batch else outs[0]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _record_head(magic: bytes, params: HeParams) -> bytes:
    """The start of a wire record: its magic, then its preset's name as a
    length byte and UTF-8."""
    name = params.name.encode()
    return magic + bytes((len(name),)) + name


def _read_record_head(buf: bytes, magic: bytes, what: str, params: HeParams) -> int:
    """Check that a record starts as ``_record_head`` of ``params``; return
    where the rest of it starts."""
    head = _record_head(magic, params)
    got = bytes(buf[: len(head)])
    if got[: len(magic)] != magic:
        raise SerializationError(f"bad {what} magic or version {got[: len(magic)]!r}")
    if got != head:
        raise SerializationError(f"{what} header does not name preset {params.name!r}")
    return len(head)


def ciphertext_to_bytes(ct: Ciphertext) -> bytes:
    """Wire format v3 record of ``ct`` (see the module docstring); the c1 of
    a two-component ciphertext goes as its seed when it has one of at most
    255 bytes."""
    dir_flag = 0 if ct.direction == "forward" else 1
    fields = (ct.level, len(ct.comps), dir_flag, ct.length, ct.scale, ct.noise_log2, ct.msg_bound)
    parts = [_record_head(_CT_MAGIC, ct.params) + struct.pack(_CT_FIELDS, *fields)]
    for k, comp in enumerate(ct.comps):
        seed = comp.seed if (k, len(ct.comps)) == (1, 2) else None
        if seed is not None and len(seed) < 256:
            parts += [bytes((_COMP_SEED, len(seed))), seed]
        else:
            parts += [bytes((_COMP_RING,)), comp.to_bytes()]
    return b"".join(parts)


def _seeded_poly(params: HeParams, seed: bytes, level: int) -> RingElement:
    """``common_poly`` of a seeded c1.  Every record of a round carries the
    same seed, so the last polynomial rebuilt is kept (one entry, shared by
    the ciphertexts read with it)."""
    memo = params.ring._seeded
    a = memo.get((seed, level))
    if a is None:
        a = common_poly(params, seed, level=level)
        a.data.flags.writeable = False
        memo.clear()
        memo[seed, level] = a
    return a


def ciphertext_from_bytes(buf: bytes, params: HeParams) -> Ciphertext:
    """Read a wire format v3 record of ``params``, rebuilding a seeded c1
    with ``common_poly``; any malformed record, or one of another preset,
    raises ``SerializationError``."""
    off = _read_record_head(buf, _CT_MAGIC, "ciphertext", params)
    if len(buf) < off + struct.calcsize(_CT_FIELDS):
        raise SerializationError("truncated ciphertext header fields")
    level, ncomp, dir_flag, length, scale, noise_log2, msg_bound = struct.unpack_from(
        _CT_FIELDS, buf, off
    )
    off += struct.calcsize(_CT_FIELDS)
    if ncomp not in (2, 3):
        raise SerializationError(f"ciphertext has {ncomp} components, expected 2 or 3")
    if dir_flag not in (0, 1):
        raise SerializationError(f"unknown packing direction flag {dir_flag}")
    if level > params.ring.max_level:
        raise SerializationError(f"level {level} outside chain 0..{params.ring.max_level}")
    if not 1 <= length <= params.ring.n:
        raise SerializationError(f"packed length {length} outside 1..{params.ring.n}")
    if not (math.isfinite(scale) and scale > 0):
        raise SerializationError(f"scale {scale} is not a positive finite number")
    for what, value in (("noise bound", noise_log2), ("message bound", msg_bound)):
        if not (math.isfinite(value) and value >= 0):
            raise SerializationError(f"{what} {value} is not a non-negative finite number")
    comps = []
    for k in range(ncomp):
        if off >= len(buf):
            raise SerializationError("truncated component header")
        kind, off = buf[off], off + 1
        if kind == _COMP_SEED:
            if (k, ncomp) != (1, 2):
                raise SerializationError(
                    f"component {k} of a {ncomp}-component ciphertext sent as a seed; "
                    "only the c1 of a two-component ciphertext may be"
                )
            if off >= len(buf):
                raise SerializationError("truncated seed length")
            blen, off = buf[off], off + 1
        elif kind == _COMP_RING:
            blen = params.ring.record_bytes(level, False)
        else:
            raise SerializationError(f"unknown component kind {kind}")
        blob = bytes(buf[off : off + blen])
        if len(blob) != blen:
            raise SerializationError(f"truncated component: need {blen} bytes, have {len(blob)}")
        off += blen
        if kind == _COMP_SEED:
            comps.append(_seeded_poly(params, blob, level))
        else:
            # every component of a ciphertext is an NTT-domain chain element
            # at the header's level
            comps.append(RingElement.from_bytes(blob, params.ring, level, False, True))
    if off != len(buf):
        raise SerializationError(f"{len(buf) - off} trailing bytes after ciphertext")
    direction = "forward" if dir_flag == 0 else "reversed"
    return Ciphertext(params, tuple(comps), scale, length, direction, noise_log2, msg_bound)
