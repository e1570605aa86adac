"""Symmetric leveled HE on the negacyclic ring with fixed-point coefficient packing.

Encryption follows the additive-mask form ``c0 = a*s + m + e, c1 = a`` with a
*shared* public polynomial ``a`` per round, so fresh ciphertexts from different
users can be aggregated by summing the ``c0`` parts against a summed key.
Decryption is the phase ``c0 - c1*s`` (plus ``+ c2*s^2`` for unrelinearized
three-component products, which ``rescale`` refuses), read on the decoded
coefficients alone by ``ring.coeffs_at``: one coefficient needs no transform.

Packing is by coefficients, not slots: a vector ``v`` of length L <= n/2
sits at coefficients ``0..L-1`` (forward), and a mirrored packing also puts
``v_k / 2`` on coefficient ``n-1-k``.  There are no rotation keys; inner
products come from the product of two mirrored packings instead, whose
coefficient ``n-1`` is exactly ``sum(u_k * v_k)``: the two cross terms give
half of it each, and neither square term nor any wrapped term reaches
``n-1``.  A length-1 forward scalar times a mirrored packing keeps
``p * v`` on coefficients ``0..L-1``.  A ``PlainVector`` alone states its
packing; a bare vector packs forward.  Real values become plaintext
integers through ``encode`` (a vector) or ``encode_monomial`` (one value on
any coefficient, in the NTT domain) alone, as round(scale * v) of the exact
product, ties to even (``_scaled_round``, as in ``reencrypt``); for a
power-of-two scale that product is a float64 and ``np.rint`` rounds a whole
vector at once.

Products follow one rule (``_check_product``): forward times forward must
not wrap the ring degree; a mirrored operand multiplies only a length-1
forward one (the product stays mirrored) or another mirrored one (the
product is forward of length n, read on ``n-1``).

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
``relinearize`` leaves the product on that prime (the key switch without its
mod-down), and ``he_mult_relin`` divides it by ``p`` and the dropped chain
prime in one exact pass, ``rescale(..., level=)``, byte-identical to the
two divisions one after the other.  The quadratic component of a product
of fresh ciphertexts is the product of their public c1 parts, so every
product of a round's stage has the same one.
``he_mult_relin`` takes a stage as one batch, whose products must share
their c1 parts: it forms the component once, decomposes it into key-switch
digits once and key-switches it once per run of products under one key
(``switch_quadratic``) — the hoisting of Halevi & Shoup (CRYPTO 2018), across
users instead of rotations.  The operands a batch shares are prepared once
(``RingElement.prepared``): the digits, for both halves of every key, and
the shared c1 parts, for every product's cross terms; so is a secret that
multiplies more than once (key generation, re-encryption, the phase of a
three-component product).

An ``EvalKey`` is built at a level L: one pair per prime q_0..q_L, each over
q_0..q_L and the special prime.  It switches a component at any level up to
L, and ``he_mult_relin`` refuses a product above its key's level before any
work.  A key holds its public half as a seed
(``EvalKey.generate(..., a_seed=)``, or 32 bytes of the key's rng): a_0..a_L
are expanded from it on each use, so the key holds its own half ``ks_b``
alone.  ``round_plan`` builds the round's ``RoundPlan``, each leg's level
and scale, from the chain and the scales alone.  The round relinearizes at
the plan's upload level and below, so :mod:`fhefl.multikey` builds every
user's key there.

Every fresh ciphertext lies on the chain; the special prime P is carried
only inside key switching, by keys, secrets and a relinearized product, and
``rescale`` divides such a product by P.

``rescale``, ``he_mult_relin`` and ``plain_affine`` take one ciphertext (or
pair) or a sequence of them; a sequence is rescaled through batched
``RingElement.drop_last_modulus`` calls, with one transform per group of
components rather than one per ciphertext, and gives the same bytes.  A
component that several ciphertexts of a sequence hold (the c1 that every
fresh distance shares) is multiplied (and divided) once, and every result
holds the one result.  An integer multiplier in ``plain_affine`` keeps the
level and the scale, so it needs no rescale and no transform.

A ciphertext's level is its components' level, and its layout that level
with or without the special row.  Ciphertexts add under one
rule (``_check_addable``, applied by ``he_add`` and by the roster sums of
:mod:`fhefl.multikey`): one level, one component count, one packing and
scales equal to a relative 1e-9; nothing aligns levels silently.  The noise
widths ``sigma`` (3.2) and ``flood_sigma_bits`` (20) are scheme constants.

Every ciphertext carries ``noise_log2``, an upper bound on its noise in
coefficient units.  The tests check it against the error measured with the
known key, at test-16 and test-1024, for encryption, addition, the tensor
products of the round (a mirrored square over the whole ring, a scalar
times a mirrored packing), relinearization, rescaling, ``plain_affine`` and
fresh aggregation.
``decrypt`` refuses a ciphertext whose bound exceeds half its scale, since
the value's precision has collapsed.

Wire format v4 (``ciphertext_to_bytes``): magic, version, preset name (the
reader takes the params and refuses another preset's record), then level,
component count, packing flag (forward or mirrored; a mirrored record is at
most n/2 long), length, scale, ``noise_log2`` and ``msg_bound``, so a
ciphertext read back is refused by ``decrypt`` exactly when the original
would be.  The header states the layout once: every component is an
NTT-domain chain element at its level, so a ciphertext on the special
prime has no record (``SerializationError``).  Each component
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
from typing import ClassVar, Iterator

import numpy as np

from .errors import (
    EncodingError,
    LevelError,
    ParameterError,
    SerializationError,
)
from .ntt import add_mod, find_ntt_primes, mul_prepared, prepare_rows
from .ring import (
    RingElement,
    RingParams,
    Residues,
    _seed_bytes,
    coeffs_at,
    rns_digits,
    sample_error,
    sample_ternary,
    sample_uniform,
    to_ntt_all,
)

_CT_MAGIC = b"FCT1\x04"  # magic and wire format version 4
# level, component count, packing flag, length, scale, noise_log2, msg_bound
_CT_FIELDS = "<BBBIddd"
_COMP_RING, _COMP_SEED = 0, 1  # component kinds: residues at the header's level, or a seed
_PACKINGS = ("forward", "mirrored")  # by wire flag
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
        """Packable vector length: half the ring degree (the square of a
        full-capacity mirrored packing must leave coefficient n-1 to the
        cross terms)."""
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
    """A packed real vector plus its packing direction (forward or mirrored)."""

    values: np.ndarray
    direction: str = "forward"

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise EncodingError("packed vectors must be non-empty and 1-d")
        if self.direction not in _PACKINGS:
            raise EncodingError(f"unknown packing direction {self.direction!r}")


def _scaled_round(scale: float, v: float | Fraction) -> int:
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
    """Refuse an encoded magnitude that wraps half the modulus q_0..q_level."""
    bound = _modulus(params, level) // 2
    if worst >= bound:
        raise EncodingError(
            f"encoded magnitude 2^{worst.bit_length()} overflows modulus headroom "
            f"2^{bound.bit_length() - 1} at level {level}"
        )


def _plaintext(params: HeParams, ints, level: int, mirror=None) -> RingElement:
    """Place fixed-point integers on coefficients 0..len-1 and, when given,
    ``mirror[k]`` on coefficient n-1-k, checking headroom, at level ``level``."""
    for part in (ints,) if mirror is None else (ints, mirror):
        worst = int(np.abs(part).max()) if isinstance(part, np.ndarray) else max(map(abs, part))
        _check_headroom(params, worst, level)
    if mirror is not None:
        n, length = params.ring.n, len(ints)
        small = all(isinstance(p, np.ndarray) and p.dtype == np.int64 for p in (ints, mirror))
        coeffs = np.zeros(n, dtype=np.int64 if small else object)
        coeffs[:length] = ints
        coeffs[n - length :] = mirror[::-1]
        ints = coeffs
    return RingElement.from_int_coeffs(params.ring, ints, level)


def _packed(params: HeParams, values) -> PlainVector:
    """``values`` as a ``PlainVector`` that fits the packing capacity."""
    pv = values if isinstance(values, PlainVector) else PlainVector(values)
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
) -> RingElement:
    """Fixed-point packing: coefficient k holds round(scale * v_k), and for a
    mirrored packing coefficient n-1-k also holds round(scale * v_k / 2),
    each rounded once from the exact product."""
    pv = _packed(params, values)
    level = params.ring.max_level if level is None else level
    scale = params.scale if scale is None else float(scale)
    ints = _scaled_ints(scale, pv.values)
    if pv.direction == "forward":
        return _plaintext(params, ints, level)
    # halving a float64 is exact, so this rounds scale * v / 2 once
    return _plaintext(params, ints, level, _scaled_ints(scale, pv.values * 0.5))


def encode_monomial(
    params: HeParams,
    value: float,
    index: int,
    level: int,
    *,
    scale: float | None = None,
) -> RingElement:
    """``encode``'s round(scale * value) on coefficient ``index`` (0..n-1)
    alone, returned in the NTT domain without a transform."""
    scale = params.scale if scale is None else float(scale)
    if not 0 <= index < params.ring.n:
        raise EncodingError(f"index {index} outside coefficients 0..{params.ring.n - 1}")
    coeff = _scaled_round(scale, float(value))
    _check_headroom(params, abs(coeff), level)
    return RingElement.monomial(params.ring, coeff, index, level)


def decode(read: Residues, scale: float) -> np.ndarray:
    """Read coefficients' centered lift divided by the scale: the values of
    every plaintext read, a decryption's or a roster opening's."""
    # object-to-float64 conversion rounds each integer correctly, as float() does
    return read.to_ints().astype(np.float64) / scale


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
        return tuple(_public_half(self.ks_b[0].params, self.a_seed, self.level))

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
        # s multiplies every a_i and itself: prepared once for the key
        s = sk.s.mod_reduce_to(level, special=True).prepared()
        # P_i * s^2 is (p mod q_i) * s^2 on chain row i and zero on every
        # other row, so row i of p * s^2 (zero on the special row) is all of it
        p_s2 = s.mul(s).mul_scalar(ring.special)
        q = ring.tables.q
        # the a_i are expanded one at a time, each dropped once b_i holds it
        for i, (a_i, b_i) in enumerate(zip(_public_half(ring, a_seed, level), errors)):
            b_i.data[:] = a_i.mul(s).add(b_i).data
            b_i.data[i] = add_mod(b_i.data[i], p_s2.data[i], q[i])
        return cls(ks_b=tuple(errors), a_seed=a_seed)


def _public_half(ring: RingParams, a_seed: bytes, level: int) -> Iterator[RingElement]:
    """The level-``level`` public half a_0..a_level that ``a_seed`` expands to,
    one at a time: each a_i uniform over q_0..q_level and the special prime,
    in the NTT domain, from its own tag of the seed's stream."""
    for i in range(level + 1):
        yield sample_uniform(ring, a_seed, level=level, special=True, ntt=True, tag=b"evk-a|%d" % i)


def common_poly(params: HeParams, seed, level: int | None = None) -> RingElement:
    """The shared public polynomial a for one round of fresh encryptions, over
    q_0..q_level.

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
    def special(self) -> bool:
        """Whether the components carry the special row above their level."""
        return self.comps[0].special

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
) -> Ciphertext | tuple[Ciphertext, ...]:
    """Fresh encryption c0 = a*s + m + e, c1 = a at ``level``.

    ``values`` is one vector (a ``PlainVector``, or a bare vector packed
    forward) or a non-empty sequence of ``PlainVector``s.  One vector gives
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
    pvs = [_packed(params, v) for v in (values if batch else [values])]
    ms = [encode(params, pv, level, scale=scale) for pv in pvs]
    cts = _encrypt_plaintexts(params, ms, pvs, sk.s, a, rng, scale)
    return cts if batch else cts[0]


def _encrypt_plaintexts(
    params: HeParams,
    ms: list[RingElement],
    pvs: list[PlainVector],
    s: RingElement,
    a: RingElement,
    rng: np.random.Generator,
    scale: float,
) -> tuple[Ciphertext, ...]:
    """c0 = a*s + m + e, c1 = a for each encoded plaintext m, all of one
    level, under the secret ``s`` at that level or above; ``pvs`` give each
    ciphertext's length, direction and message bound."""
    level = ms[0].level
    a = a.mod_reduce_to(level)
    a_s = a.mul(s.mod_reduce_to(level))
    # the NTT is linear mod q, so each m + e takes one transform, and the
    # transforms of the whole batch run as one over their stacked rows
    m_e = to_ntt_all(
        [m.add(sample_error(params.ring, rng, params.sigma, level=level)) for m in ms]
    )
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


def _phase(ct: Ciphertext, s: RingElement, read) -> Residues:
    """Coefficients ``read`` of the phase c0 - c1*s (+ c2*s^2 for an
    unrelinearized product), read off the NTT domain by ``coeffs_at``.  ``s``
    is the secret at the ciphertext's level or above, prepared when the
    caller multiplies by it again."""
    s = s.mod_reduce_to(ct.level)
    phase = ct.c0.sub(ct.c1.mul(s))
    if len(ct.comps) == 3:
        phase = phase.add(ct.comps[2].mul(s.mul(s)))
    return coeffs_at([phase], read)[0]


def decrypt(ct: Ciphertext, sk: SecretKey) -> PlainVector:
    """Phase decryption of coefficients 0..length-1 of a two- or three-component ct."""
    if ct.noise_log2 > math.log2(ct.scale) - 1:
        raise EncodingError(
            f"tracked noise 2^{ct.noise_log2:.1f} exceeds half the scale "
            f"2^{math.log2(ct.scale):.1f}; precision has collapsed"
        )
    s = sk.s.mod_reduce_to(ct.level)
    if len(ct.comps) == 3:  # s multiplies c1 and itself
        s = s.prepared()
    return PlainVector(decode(_phase(ct, s, range(ct.length)), ct.scale), ct.direction)


def reencrypt(
    ct: Ciphertext,
    sk: SecretKey,
    a: RingElement,
    rng: np.random.Generator,
    *,
    index: int,
    scale: float,
    total: float,
) -> Ciphertext:
    """The key holder's fresh encryption of coefficient ``index`` of ct's
    plaintext, divided by the public ``total``.

    The coefficient (0..n-1, else ``ParameterError``) is read alone from the
    phase, with no transform, as an exact integer; coeff / (ct.scale * total)
    is one exact rational, encoded at ``scale`` on coefficient 0 and rounded
    once (``_scaled_round``): unlike a decrypt-then-encrypt, the value never
    passes through a float, whose 53 bits would cap its precision.  The fresh
    ciphertext sits at the level of ``a``.
    """
    if not total > 0:
        raise ParameterError(f"a re-encryption divides by a positive total, not {total}")
    params = ct.params
    # s multiplies the phase's c1 and a: prepared once for both
    s = sk.s.mod_reduce_to(max(ct.level, a.level)).prepared()
    coeff = int(_phase(ct, s, [index]).to_ints()[0])
    value = Fraction(coeff) / (Fraction(ct.scale) * Fraction(total))
    m = _plaintext(params, [_scaled_round(scale, value)], a.level)
    return _encrypt_plaintexts(params, [m], [PlainVector([float(value)])], s, a, rng, scale)[0]


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


def _check_product(
    x: Ciphertext, y: Ciphertext, evk: EvalKey | None = None
) -> tuple[int, str, float]:
    """Refuse a pair of operands that cannot be multiplied (and relinearized
    under ``evk``, when given); otherwise return the product's length,
    direction and message-bound factor under the packing rule."""
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
    packings = {x.direction, y.direction}
    if packings == {"forward"}:
        out_len = x.length + y.length - 1
        if out_len > n:
            raise EncodingError(f"product length {out_len} wraps the ring degree {n}")
        return out_len, "forward", 1.0
    if packings == {"mirrored"}:
        # the whole ring, read on n-1; a mirrored vector's l1 norm is at most
        # 1.5 times its length times its largest value
        return n, "forward", 1.5
    scalar, mirrored = (x, y) if y.direction == "mirrored" else (y, x)
    if scalar.length != 1:
        raise EncodingError(
            f"a mirrored packing multiplies a length-1 scalar or another mirrored "
            f"packing, not a forward vector of length {scalar.length}"
        )
    return mirrored.length, "mirrored", 1.0


def _he_mult_raw(
    x: Ciphertext, y: Ciphertext, d2: RingElement | None = None, c1s=None
) -> Ciphertext:
    """Tensor product -> three components (d0, d1, d2), scale multiplied.

    ``d2`` is x1*y1 when the caller has formed it already (``he_mult_relin``
    forms it once per batch); otherwise it is formed here.  ``c1s`` is
    (x1, y1) as the caller prepared them for every product of a batch that
    shares them.  A square (``y`` is ``x``) forms d1 = 2*x0*x1 from one
    product.
    """
    length, direction, spread = _check_product(x, y)
    x0, x1 = x.comps
    y0, y1 = y.comps
    if c1s is not None:
        x1, y1 = c1s
    d0 = x0.mul(y0)
    if y is x:
        cross = x0.mul(x1)
        d1 = cross.add(cross)
    else:
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
        length=length,
        direction=direction,
        noise_log2=nz,
        msg_bound=spread * x.msg_bound * y.msg_bound * min(x.length, y.length),
    )


@dataclass(frozen=True)
class SwitchedQuadratic:
    """A quadratic component d2 key-switched under one evaluation key, not
    yet divided by the special prime P: over q_0..q_l and P,
    u0 - u1*s = P * d2*s^2 + sum_i digit_i * e_i."""

    d2: RingElement
    evk: EvalKey
    u0: RingElement
    u1: RingElement


def switch_quadratic(d2: RingElement, evks) -> Iterator[SwitchedQuadratic]:
    """Key-switch one quadratic component under each of ``evks``, in order,
    leaving the pair on the special prime (``relinearize`` keeps it there).

    d2 is decomposed into its RNS digits once.  Each key's inner product with
    the digits over the extended basis is one stacked multiply per half of
    the key (a seeded key's public half expanded for it, and dropped after)
    and one sum over the digits, all in the NTT domain, with no transform.
    The pairs are yielded in key order, one key at a time, so a caller that
    uses each pair before the next holds one at a time.
    """
    ring, level = d2.params, d2.level
    rows = ring.rows(level, special=True)
    q = ring.tables.q[rows]
    # the digits multiply both halves of every key: prepared once
    digits = prepare_rows(rns_digits(d2), ring.tables, rows * (level + 1))

    # each pair's rows of q_0..q_level and its special row, by position: a
    # key below the top level holds fewer rows than the tables
    key_rows = [*range(level + 1), -1]

    def inner(half) -> RingElement:
        # the key's rows at d2's level, digit after digit as the digits lie,
        # each overwritten by its product with the digit
        terms = np.empty((level + 1, len(rows), ring.n), dtype=np.uint64)
        for k, term in zip(half, terms):
            np.take(k.data, key_rows, axis=0, out=term)
        flat = terms.reshape(digits[0].shape)
        mul_prepared(flat, digits, ring.tables, rows * (level + 1), out=flat)
        acc = terms[0]
        for term in terms[1:]:
            acc = add_mod(acc, term, q)
        return RingElement(ring, acc, level, True, True)

    for evk in evks:
        _check_key_level(level, evk)
        yield SwitchedQuadratic(d2, evk, inner(evk.ks_b), inner(evk.ks_a))


def relinearize(
    ct: Ciphertext, evk: EvalKey, switched: SwitchedQuadratic | None = None
) -> Ciphertext:
    """Key-switch the quadratic component under ``evk``; ``switched`` may carry
    that switch, computed once for every product that shares the component.

    The result stays on the special prime P: (P*d0 + u0, P*d1 + u1) over
    q_0..q_l and P, at P times the product's scale, which is the hybrid key
    switch without its mod-down.  ``rescale`` divides it by P alone, or,
    given a level below, by P and the chain primes above that level in one
    pass (``he_mult_relin`` drops P and q_l together).
    """
    if len(ct.comps) != 3:
        raise LevelError("relinearize expects a three-component ciphertext")
    d0, d1, d2 = ct.comps
    if switched is None:
        (switched,) = switch_quadratic(d2, [evk])
    elif switched.evk is not evk or switched.d2 != d2:
        raise ParameterError("switched pair is not this product's quadratic component under evk")
    ring = ct.params.ring
    p, q = ring.special, ring.tables.q[: ct.level + 1]

    def on_p(d: RingElement, u: RingElement) -> RingElement:
        # P*d vanishes mod P, so the special row is u's alone
        data = np.empty_like(u.data)
        data[:-1] = add_mod(d.mul_scalar(p).data, u.data[:-1], q)
        data[-1] = u.data[-1]
        return RingElement(ring, data, ct.level, True, True)

    ks_noise = (
        math.log2(ct.level + 1)
        + math.log2(ring.n) / 2
        + math.log2(max(ring.chain))
        + math.log2(6 * ct.params.sigma)
        - math.log2(p)
    )
    return replace(
        ct,
        comps=(on_p(d0, switched.u0), on_p(d1, switched.u1)),
        scale=ct.scale * p,
        noise_log2=_log2_add(ct.noise_log2, ks_noise) + math.log2(p),
    )


def rescale(ct, level: int | None = None) -> Ciphertext | tuple[Ciphertext, ...]:
    """Exact divide-and-round by the components' last modulus, the special
    prime when they carry it and the last chain prime otherwise, or, given
    ``level``, by every modulus above that level in one pass; the scale
    divides with them.

    ``ct`` is one ciphertext, or a sequence of them of one layout whose
    components all drop through one ``drop_last_modulus`` call; a component
    that several of them hold (the rates' shared c1) drops once, and every
    result holds that one component.  One gives one, a sequence a tuple in
    its order.  A three-component product is refused: the rounding of its d2
    reaches the phase times s^2, which the tracked bound does not cover
    (relinearize first, or open the product through `fhefl.multikey`, which
    divides its opened residues instead).
    """
    batch = not isinstance(ct, Ciphertext)
    cts = tuple(ct) if batch else (ct,)
    if not cts:
        return ()
    if any(len(x.comps) != 2 for x in cts):
        raise LevelError("rescale takes two-component ciphertexts; relinearize first")
    flat = {id(c): c for x in cts for c in x.comps}
    first, *rest = flat.values()
    downs = first.drop_last_modulus(*rest, level=level)
    downs = dict(zip(flat, downs if rest else (downs,)))
    out = []
    for x in cts:
        comps = tuple(downs[id(c)] for c in x.comps)
        scale, nz = x.scale, x.noise_log2
        for q in reversed(x.c0.moduli[comps[0].level + 1 :]):
            scale /= q
            nz -= math.log2(q)
        # the rounding, folded through the key
        nz = _log2_add(nz, math.log2(x.params.ring.n) / 2 + 1.0)
        out.append(replace(x, comps=comps, scale=scale, noise_log2=nz))
    return tuple(out) if batch else out[0]


# The round's plan (see :mod:`fhefl.aggregation`), from public data only:
# every value the round opens is below 2^_VALUE_BITS in magnitude.
_VALUE_BITS = 32


def _modulus(params: HeParams, level: int) -> int:
    """Q of q_0..q_level."""
    ring = params.ring
    return ring.crt_constants(ring.moduli(level))[0]


def _open_level(params: HeParams, scale: float) -> int:
    """Lowest level whose modulus holds scale * 2^_VALUE_BITS and a sign;
    the top level if none does."""
    need = scale * 2.0 ** (_VALUE_BITS + 1)
    for level in range(params.ring.max_level + 1):
        if _modulus(params, level) >= need:
            return level
    return params.ring.max_level


@dataclass(frozen=True)
class RoundPlan:
    """Each leg of the encrypted round's level and scale, from ``round_plan``.

    The rates take the scale raised by 2^flood_sigma_bits, so that the
    aggregate leg's flooding stays far below them, and sit at the lowest
    level (at least 1) that holds a rate times a gradient.  The uploads sit
    at the lowest level that both opens their distance a level down and
    holds the aggregate.  Each user re-encrypts its normalized distance over
    the chain up to the aggregate level, at the rate scale, and the rate is
    an integer affine map of it, which keeps its level and scale.
    """

    upload_level: int  # the uploads, the norm products and the evaluation keys
    distance_scale: float  # a distance, after its product's rescale
    distance_level: int  # the lowest level that opens a distance
    rate_scale: float  # a re-encrypted distance and its rate
    aggregate_level: int  # the rates, the rate-sum check and the products


def round_plan(params: HeParams) -> RoundPlan:
    """The round's ``RoundPlan`` at ``params``; ``ParameterError``, naming the
    preset and the leg, for params that cannot hold the round."""
    ring, top = params.ring, params.ring.max_level

    def refuse(leg: str, why: str):
        raise ParameterError(f"preset {params.name!r} cannot hold the round: [{leg}] {why}")

    def distance_scale(level: int) -> float:
        # a norm product at ``level`` after its rescale
        return params.scale * params.scale / ring.chain[level]

    if ring.special is None:
        refuse("norm", "no special prime for the norm products' key switch")
    rate = params.scale * 2.0**params.flood_sigma_bits
    agg = max(1, _open_level(params, rate * params.scale))
    upload = next(
        (lv for lv in range(agg, top + 1) if _open_level(params, distance_scale(lv)) < lv), None
    )
    if upload is None:
        refuse("distance-sum", f"no level from {agg} up opens its distance a level lower")
    if _modulus(params, agg) < rate * params.scale * 2.0 ** (_VALUE_BITS + 1):
        refuse("aggregate", f"level {agg} does not hold a rate times a gradient")
    d_scale = distance_scale(upload)
    return RoundPlan(upload, d_scale, _open_level(params, d_scale), rate, agg)


def he_mult_relin(x, y, evk) -> Ciphertext | tuple[Ciphertext, ...]:
    """Full product: tensor, relinearize, rescale.

    ``x`` and ``y`` are one ciphertext each, or equal-length sequences of a
    batch's operands with ``evk`` one key per product; a batch gives a tuple
    in order.  Every product of a batch must share its operands' c1 parts,
    and so its quadratic component d2 = x1*y1: d2 is formed once, decomposed
    once and key-switched once per run of consecutive products under one key
    (``switch_quadratic``).  The products are then relinearized and rescaled
    half a ``RingParams.group_size`` at a time, so that their components fill
    one group of the drop and only one group of products is held: each
    product leaves ``relinearize`` on the special prime P and drops P and
    its top chain prime in one ``rescale`` pass, where the products of one
    key in a group share the lift of their P rows.
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
    # the shared c1 parts multiply every product's c0 parts: prepared once
    c1s = (x1.prepared(),) * 2 if y1 is x1 else (x1.prepared(), y1.prepared())
    new_run = [i == 0 or k is not evks[i - 1] for i, k in enumerate(evks)]
    switched = switch_quadratic(d2, [k for k, new in zip(evks, new_run) if new])
    step = max(1, d2.params.group_size // 2)
    out = []
    for first in range(0, len(xs), step):
        raws = []
        for i in range(first, min(first + step, len(xs))):
            if new_run[i]:
                sw = next(switched)
            raws.append(relinearize(_he_mult_raw(xs[i], ys[i], d2, c1s), evks[i], sw))
        out += rescale(raws, level=d2.level - 1)
    return tuple(out) if batch else out[0]


def plain_affine(
    ct, mult: float, add: float, *, add_index: int = 0
) -> Ciphertext | tuple[Ciphertext, ...]:
    """Homomorphic mult*x + add with plaintext scalars.

    The multiplicative constant scales every packed coefficient; the additive
    constant lands on ``add_index`` (the coefficient of the value of
    interest: 0 for a scalar, n-1 for a norm product) at the result's scale.
    An integer ``mult`` multiplies the components as it is, keeping the
    level and the scale, at any level.  Any other is encoded at the scale
    and costs the last chain prime: the results are rescaled through one
    ``rescale`` call.  ``ct`` is one ciphertext, or a sequence of them of one
    level: one gives one, a sequence a tuple in its order.  A component that
    several of them hold (the fresh distances' c1) is multiplied (and
    divided) once, and every result holds that one component.
    """
    batch = not isinstance(ct, Ciphertext)
    whole = float(mult).is_integer()
    mids, scaled = [], {}
    for x in ct if batch else (ct,):
        if len(x.comps) != 2:
            raise LevelError("plain_affine expects a relinearized ciphertext")
        if x.level < 1 and not whole:
            raise LevelError("no levels left for the affine rescale")
        params = x.params
        # a constant's NTT is the constant in every slot: one scalar pass,
        # once per component that several ciphertexts hold
        enc = 1.0 if whole else params.scale
        pm = _scaled_round(enc, float(mult))
        _check_headroom(params, abs(pm), x.level)
        for c in x.comps:
            if (id(c), pm) not in scaled:
                scaled[id(c), pm] = c.mul_scalar(pm)
        mids.append(replace(
            x,
            comps=tuple(scaled[id(c), pm] for c in x.comps),
            scale=x.scale * enc,
            noise_log2=x.noise_log2 + math.log2(max(enc * abs(mult), 1.0)),
            msg_bound=x.msg_bound * max(abs(mult), 1e-300),
        ))
    outs = mids if whole else list(rescale(mids))
    if add != 0.0:
        # the constant is encoded once per (level, scale) of the results
        pas = {}
        for k, out in enumerate(outs):
            at = (out.level, out.scale)
            if at not in pas:
                pas[at] = encode_monomial(out.params, add, add_index, out.level, scale=out.scale)
            outs[k] = replace(
                out,
                comps=(out.c0.add(pas[at]), out.c1),
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
    """Wire format v4 record of ``ct`` (see the module docstring); the c1 of
    a two-component ciphertext goes as its seed when it has one of at most
    255 bytes.  A ciphertext whose components carry the special row has no
    record: the header states chain elements alone."""
    if ct.special:
        raise SerializationError(
            "a ciphertext on the special prime has no wire record; rescale it first"
        )
    dir_flag = _PACKINGS.index(ct.direction)
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
    """Read a wire format v4 record of ``params``, rebuilding a seeded c1
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
    if dir_flag >= len(_PACKINGS):
        raise SerializationError(f"unknown packing flag {dir_flag}")
    direction = _PACKINGS[dir_flag]
    if level > params.ring.max_level:
        raise SerializationError(f"level {level} outside chain 0..{params.ring.max_level}")
    top = params.ring.n if direction == "forward" else params.capacity
    if not 1 <= length <= top:
        raise SerializationError(f"{direction} packed length {length} outside 1..{top}")
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
    return Ciphertext(params, tuple(comps), scale, length, direction, noise_log2, msg_bound)
