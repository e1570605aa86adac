"""RNS arithmetic in the negacyclic ring Z_Q[X]/(X^n + 1).

A ring element is stored as a matrix of uint64 residues, one row per active
modulus.  The modulus chain is ``q_0 .. q_L`` plus one *special* prime used
only inside key material and key switching; a fresh element at level ``l``
carries rows for ``q_0 .. q_l`` (plus the special row when requested).

Two representations coexist:

* coefficient domain — rows hold polynomial coefficients in standard order;
* NTT domain — rows hold negacyclic evaluations (bit-reversed order, see
  :mod:`fhefl.ntt`); products are pointwise there.

Every operation works on the whole residue matrix, with the moduli as a
``(rows, 1)`` column, through the kernels of :mod:`fhefl.ntt`; transforms
and products walk it in the kernels' cache-sized row blocks.  The kernel
constants (Shoup twiddles, the Montgomery factor, rescale inverses, sampler
bounds and the bit-reversal permutation) are built once, with the
kernels themselves, when a :class:`RingParams` is constructed: one table row
per prime of the chain plus the special prime, and an element selects the
rows of the moduli it carries.  Nothing else is cached on the params but the
wire reader's last seeded polynomial.  Every stack of Shoup constants, scalar
multipliers included, comes from one rule, `fhefl.ntt.shoup_stack`.  The
pointwise product is one Montgomery reduction followed by a Shoup multiply by
2^64 mod q, which cancels the Montgomery factor.

Integers enter through one constructor, `RingElement.from_int_coeffs`: up
to n of them, zero-padded, reduced as int64 when they fit and as Python
integers row by row when they do not.  The ternary and error samplers and the
plaintext encoder build their elements with it.  An element is never written to
once it is handed out, so ciphertexts share the round's public polynomial
rather than copy it, and `mod_reduce_to` hands back the element itself when
it drops no row.

An element may remember the seed it was drawn from (`RingElement.seed`).  Only
the round's public polynomial (`he.common_poly`) sets it, so that the wire
format can send that polynomial as its seed.  The seed is provenance only:
equality ignores it, `mod_reduce_to` keeps it (a lower-level draw is the
prefix of the top-level one) and every arithmetic op drops it.

Rescaling (`drop_last_modulus`) is the exact RNS divide-and-round by the last
active modulus: subtract the centered remainder, then multiply by its inverse
on the remaining rows (the full-RNS rescale of Cheon et al., SAC 2018).  It
works in either domain, and on any number of elements of one layout at once,
in groups of `RingParams.group_size`: in the NTT domain a group's dropped rows
take one inverse transform, its remainders are lifted in one vectorised pass
and take one forward transform over all of their rows.  At n = 1024 a group
is 16 elements; at n = 16384 it is one, the arithmetic of a single drop.
Dropping rows without rounding (`mod_reduce_to`) is plain modulus reduction
and keeps the encoded scale untouched.

An opening reads a public set of coefficients, its read set, and moves
only those: `Residues` holds them, one column per coefficient, with the
add, subtract, divide-and-round, integer lift and wire record of an
element's coefficients.  `coeffs_at` reads them off NTT-domain elements:
one coefficient as a dot product with the roots `RingElement.monomial`
gathers, with no transform; more through inverse transforms, a group of
elements per call.  `sample_uniform` and `sample_error` draw a read set's
residues directly (``count=``).

An element's wire record (`RingElement.to_bytes`) is its residues alone, as
one little-endian bitstream: row i takes q_i.bit_length() bits per residue,
and the stream is padded with zero bits to a whole byte.  It carries no
header: the record that holds the element (a ciphertext, a key share) states
the layout once, and the reader is told it.  The reader refuses any other
length (`RingParams.record_bytes`), nonzero pad bits and any residue at or
above its modulus, so an element has exactly one encoding.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, LevelError, ParameterError, SerializationError
from .ntt import (
    BLOCK_ELEMS,
    NttTables,
    add_mod,
    is_prime,
    make_ntt_tables,
    mul_mod,
    mul_shoup,
    neg_mod,
    ntt_forward_inplace,
    ntt_inverse_inplace,
    shoup_stack,
    sub_mod,
)

_WORD = 1 << 64


@dataclass
class RingParams:
    """Ring degree plus the RNS modulus chain (and optional special prime)."""

    n: int
    chain: tuple[int, ...]
    special: int | None = None
    # kernel constants, one row per chain prime, then the special prime
    tables: NttTables = field(init=False, repr=False, compare=False)
    # Q and the CRT idempotents of every layout moduli(level, special)
    _crt: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = field(
        init=False, repr=False, compare=False
    )
    # the last seeded polynomial the wire reader rebuilt, by (seed, level)
    _seeded: dict[tuple[bytes, int], RingElement] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n < 4 or self.n & (self.n - 1):
            raise ParameterError(f"ring degree {self.n} must be a power of two >= 4")
        self.chain = tuple(int(q) for q in self.chain)
        if not self.chain:
            raise ParameterError("modulus chain is empty")
        all_primes = self.chain + ((self.special,) if self.special else ())
        if len(set(all_primes)) != len(all_primes):
            raise ParameterError("modulus chain contains duplicates")
        for q in all_primes:
            if q % (2 * self.n) != 1:
                raise ParameterError(f"modulus {q} is not 1 mod 2n (n={self.n})")
            if not is_prime(q):
                raise ParameterError(f"modulus {q} is not prime")
            if q >= 1 << 62:
                raise ParameterError(f"modulus {q} is not below 2^62")
        self.tables = make_ntt_tables(all_primes, self.n)
        specials = (False, True) if self.special else (False,)
        self._crt = {}
        for mods in (self.moduli(lvl, sp) for lvl in range(len(self.chain)) for sp in specials):
            big_q = math.prod(mods)
            es = tuple((big_q // q) * pow(big_q // q, -1, q) % big_q for q in mods)
            self._crt[mods] = (big_q, es)

    # -- structure helpers ---------------------------------------------------

    @property
    def max_level(self) -> int:
        return len(self.chain) - 1

    def moduli(self, level: int, special: bool = False) -> tuple[int, ...]:
        if not 0 <= level <= self.max_level:
            raise LevelError(f"level {level} outside chain 0..{self.max_level}")
        mods = self.chain[: level + 1]
        if special:
            if self.special is None:
                raise LevelError("params define no special prime")
            mods = mods + (self.special,)
        return mods

    def rows(self, level: int, special: bool = False) -> list[int]:
        """Table rows of the moduli ``moduli(level, special)``."""
        rows = list(range(level + 1))
        if special:
            rows.append(len(self.chain))
        return rows

    @property
    def group_size(self) -> int:
        """Elements per group of a batched `RingElement.drop_last_modulus`:
        as many as one transform block has rows (``BLOCK_ELEMS // n``), at
        least one, so the group's dropped rows take one block."""
        return max(1, BLOCK_ELEMS // self.n)

    def record_bytes(self, level: int, special: bool, count: int | None = None) -> int:
        """Length of a `RingElement.to_bytes` record at this layout, or of a
        `Residues.to_bytes` record of ``count`` residues per row."""
        count = self.n if count is None else count
        return (count * sum(q.bit_length() for q in self.moduli(level, special)) + 7) // 8

    def crt_constants(self, moduli: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """Product Q and the CRT idempotents e_i (e_i = 1 mod q_i, 0 elsewhere)
        of the layout ``moduli``."""
        return self._crt[moduli]


@dataclass
class RingElement:
    params: RingParams
    data: np.ndarray  # (rows, n) uint64
    level: int
    special: bool = False
    ntt: bool = False
    # the seed this element was drawn from, if it is the round's public
    # polynomial (provenance only: equality ignores it, arithmetic drops it)
    seed: bytes | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        want = self.level + 1 + bool(self.special)
        if self.data.shape != (want, self.params.n):
            raise ParameterError(
                f"residue matrix shape {self.data.shape} != ({want}, {self.params.n})"
            )
        if self.data.dtype != np.uint64:
            raise ParameterError("residues must be uint64")

    # -- basics ----------------------------------------------------------------

    @property
    def moduli(self) -> tuple[int, ...]:
        return self.params.moduli(self.level, self.special)

    @property
    def rows(self) -> list[int]:
        """Rows of the params' kernel tables that this element's residues use."""
        return self.params.rows(self.level, self.special)

    def _q(self) -> np.ndarray:
        return self.params.tables.q[self.rows]

    def _like(self, data: np.ndarray, ntt: bool | None = None) -> "RingElement":
        ntt = self.ntt if ntt is None else ntt
        return RingElement(self.params, data, self.level, self.special, ntt)

    def copy(self) -> "RingElement":
        return self._like(self.data.copy())

    def _check_compat(self, other: "RingElement") -> None:
        if self.params is not other.params and self.moduli != other.moduli:
            raise ParameterError("ring elements live in different rings")
        if (self.level, self.special) != (other.level, other.special):
            raise LevelError(
                f"level mismatch: ({self.level},{self.special}) vs ({other.level},{other.special})"
            )
        if self.ntt != other.ntt:
            raise DomainError("cannot combine NTT-domain with coefficient-domain element")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.moduli == other.moduli
            and self.level == other.level
            and self.special == other.special
            and self.ntt == other.ntt
            and np.array_equal(self.data, other.data)
        )

    # -- arithmetic --------------------------------------------------------------

    def add(self, other: "RingElement") -> "RingElement":
        self._check_compat(other)
        return self._like(add_mod(self.data, other.data, self._q()))

    def sub(self, other: "RingElement") -> "RingElement":
        self._check_compat(other)
        return self._like(sub_mod(self.data, other.data, self._q()))

    def neg(self) -> "RingElement":
        return self._like(neg_mod(self.data, self._q()))

    def mul(self, other: "RingElement") -> "RingElement":
        """Pointwise product; both operands must be in NTT domain."""
        self._check_compat(other)
        if not self.ntt:
            raise DomainError("pointwise product requires NTT domain")
        return self._like(mul_mod(self.data, other.data, self.params.tables, self.rows))

    def mul_scalar(self, c: int) -> "RingElement":
        """Multiply every coefficient by the integer c (any domain)."""
        mods = self.moduli
        w = [c % q for q in mods]
        r = [(v << 64) % q for v, q in zip(w, mods)]
        col = np.array([w, r], dtype=np.uint64)[:, :, None]
        consts = shoup_stack(col[0], col[1], self.params.tables.neg_qinv.take(self.rows, axis=0))
        return self._like(mul_shoup(self.data, *consts, self._q()))

    # -- representation switches ---------------------------------------------------

    def to_ntt(self) -> "RingElement":
        if self.ntt:
            return self.copy()
        out = self.data.copy()
        ntt_forward_inplace(out, self.params.tables, self.rows)
        return self._like(out, ntt=True)

    def to_coeff(self) -> "RingElement":
        if not self.ntt:
            return self.copy()
        out = self.data.copy()
        ntt_inverse_inplace(out, self.params.tables, self.rows)
        return self._like(out, ntt=False)

    # -- modulus management ----------------------------------------------------------

    def mod_reduce_to(self, level: int, special: bool = False) -> "RingElement":
        """Drop residue rows (exact modulus reduction; scale is unchanged).

        Dropping no row returns the element itself.  The seed is kept: the
        rows that remain are the draw at the lower level.
        """
        if level > self.level or (special and not self.special):
            raise LevelError("mod_reduce_to can only drop moduli")
        if (level, special) == (self.level, self.special):
            return self
        rows = list(range(level + 1))
        if special:
            rows.append(self.data.shape[0] - 1)
        data = np.ascontiguousarray(self.data[rows])
        return RingElement(self.params, data, level, special, self.ntt, self.seed)

    def drop_last_modulus(self, *more: "RingElement"):
        """Exact divide-and-round by the last active modulus, in either domain,
        of this element and of every element of ``more``, all of one layout.

        Computes round(x / q_last) residue-wise: y_j = (x_j - [x]_q_last) / q_last
        with the centered remainder, which is exact in RNS.  The elements go
        in groups of `RingParams.group_size`; in the NTT domain a group's
        dropped rows take one inverse transform and its remainders one
        forward transform over all of their rows.  The results stay in the
        input's domain.  Without ``more`` the result is one element, with it
        a tuple in order.
        """
        for e in more:
            self._check_compat(e)
        mods = self.moduli
        if len(mods) == 1:
            raise LevelError("modulus chain exhausted; nothing left to drop")
        params, tab, rows = self.params, self.params.tables, self.rows
        keep = rows[:-1]
        q = tab.q[keep]
        inv_last = tab.rescale[:, keep, rows[-1], None]
        level = self.level if self.special else self.level - 1
        elems = (self, *more)
        out = []
        for start in range(0, len(elems), params.group_size):
            group = elems[start : start + params.group_size]
            last = np.stack([e.data[-1] for e in group])
            if self.ntt:
                ntt_inverse_inplace(last, tab, rows[-1:] * len(group))
            # one (elements, rows, n) block of remainders
            rem = _centered_rem(last[:, None], mods[-1], q)
            if self.ntt:
                ntt_forward_inplace(rem.reshape(-1, params.n), tab, keep * len(group))
            # element by element, the subtract-and-multiply's temporaries stay
            # cache-sized
            for e, r in zip(group, rem):
                y = mul_shoup(sub_mod(e.data[:-1], r, q), *inv_last, q)
                out.append(RingElement(params, y, level, False, self.ntt))
        return tuple(out) if more else out[0]

    # -- integer views ------------------------------------------------------------------

    def to_int_coeffs(self, indices=None) -> np.ndarray:
        """Centered CRT lift to Python integers (coefficient domain)."""
        if self.ntt:
            raise DomainError("integer lift requires coefficient domain")
        cols = self.data if indices is None else self.data[:, indices]
        return _crt_lift(self.params, self.moduli, cols)

    @classmethod
    def from_int_coeffs(
        cls,
        params: RingParams,
        values,
        level: int,
        special: bool = False,
    ) -> "RingElement":
        """Coefficient-domain element whose first coefficients are the given
        (possibly huge, possibly negative) integers; the rest are zero."""
        if not (isinstance(values, np.ndarray) and values.dtype == np.int64):
            values = np.asarray(values, dtype=object)
        if values.ndim != 1 or values.size > params.n:
            raise ParameterError(
                f"expected at most {params.n} coefficients, got shape {values.shape}"
            )
        mods = params.moduli(level, special)
        out = np.zeros((len(mods), params.n), dtype=np.uint64)
        k = values.size
        try:
            small = values.astype(np.int64, copy=False)
        except OverflowError:  # beyond int64: reduce the Python integers row by row
            for i, q in enumerate(mods):
                out[i, :k] = values % q
        else:
            out[:, :k] = np.mod(small, np.array(mods, dtype=np.int64)[:, None])
        return cls(params, out, level, special, False)

    @classmethod
    def monomial(
        cls, params: RingParams, coeff: int, k: int, level: int, special: bool = False
    ) -> "RingElement":
        """coeff * X^k in the NTT domain, without a transform: a gather of
        the twiddle powers times coeff.

        NTT slot j is the evaluation at psi^(2 brv(j) + 1), so X^k there is
        psi^e with e = k (2 brv(j) + 1) mod 2n.  The table holds psi^brv(i),
        i.e. psi^e at index brv(e), and psi^(e + n) = -psi^e.
        """
        n = params.n
        if not 0 <= k < n:
            raise ParameterError(f"monomial degree {k} outside 0..{n - 1}")
        rows = params.rows(level, special)
        tab = params.tables
        e = k * (2 * tab.brv + 1) & (2 * n - 1)
        powers = tab.fwd[0, rows][:, tab.brv[e & (n - 1)]]
        powers = np.where(e >= n, tab.q[rows] - powers, powers)  # powers are never 0
        return cls(params, powers, level, special, True).mul_scalar(coeff)

    @classmethod
    def zeros(
        cls, params: RingParams, level: int, special: bool = False, ntt: bool = False
    ) -> "RingElement":
        rows = level + 1 + bool(special)
        return cls(params, np.zeros((rows, params.n), dtype=np.uint64), level, special, ntt)

    # -- serialization (see the module docstring) ------------------------------------

    def to_bytes(self) -> bytes:
        return _pack_residues(self.data, [q.bit_length() for q in self.moduli])

    @classmethod
    def from_bytes(
        cls, buf: bytes, params: RingParams, level: int, special: bool, ntt: bool
    ) -> "RingElement":
        """Read a `to_bytes` record of the given layout of ring ``params``;
        refuse any residue that layout cannot hold."""
        data = _read_residues(buf, params, level, special, params.n)
        return cls(params, data, level, special, ntt)


@dataclass(eq=False)
class Residues:
    """Some coefficients of a chain element, in the coefficient domain: row i
    holds them mod q_i of q_0..q_level, one column per coefficient.

    An opening reads a public set of coefficients (its read set) and nothing
    more, so its shares are these rather than whole elements.  The read set
    is known to every party and is not stored here.  Residues add, subtract,
    drop their last modulus and lift to integers as an element's
    coefficients do, on as many columns as the set has.
    """

    params: RingParams
    data: np.ndarray  # (level + 1, count) uint64
    level: int

    def __post_init__(self) -> None:
        shape = self.data.shape
        if len(shape) != 2 or shape[0] != self.level + 1 or not 1 <= shape[1] <= self.params.n:
            raise ParameterError(
                f"residue matrix shape {shape} is not ({self.level + 1}, 1..{self.params.n})"
            )
        if self.data.dtype != np.uint64:
            raise ParameterError("residues must be uint64")

    @property
    def count(self) -> int:
        """Coefficients per row."""
        return self.data.shape[1]

    @property
    def moduli(self) -> tuple[int, ...]:
        return self.params.moduli(self.level)

    def _q(self) -> np.ndarray:
        return self.params.tables.q[: self.level + 1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Residues)
            and self.moduli == other.moduli
            and self.level == other.level
            and np.array_equal(self.data, other.data)
        )

    def copy(self) -> "Residues":
        return Residues(self.params, self.data.copy(), self.level)

    def _check_compat(self, other: "Residues") -> None:
        if self.params is not other.params and self.moduli != other.moduli:
            raise ParameterError("residues live in different rings")
        if (self.level, self.count) != (other.level, other.count):
            raise LevelError(
                f"layout mismatch: level {self.level}, {self.count} coefficients vs "
                f"level {other.level}, {other.count}"
            )

    def add(self, other: "Residues") -> "Residues":
        self._check_compat(other)
        return Residues(self.params, add_mod(self.data, other.data, self._q()), self.level)

    def sub(self, other: "Residues") -> "Residues":
        self._check_compat(other)
        return Residues(self.params, sub_mod(self.data, other.data, self._q()), self.level)

    def drop_last_modulus(self) -> "Residues":
        """round(x / q_level) of every coefficient, exactly, over q_0..q_(level-1):
        `RingElement.drop_last_modulus` in the coefficient domain."""
        if self.level == 0:
            raise LevelError("modulus chain exhausted; nothing left to drop")
        tab, keep = self.params.tables, slice(0, self.level)
        q = tab.q[keep]
        rem = _centered_rem(self.data[-1:], self.params.chain[self.level], q)
        y = mul_shoup(sub_mod(self.data[:-1], rem, q), *tab.rescale[:, keep, self.level, None], q)
        return Residues(self.params, y, self.level - 1)

    def to_ints(self) -> np.ndarray:
        """Centered CRT lift to Python integers."""
        return _crt_lift(self.params, self.moduli, self.data)

    @classmethod
    def from_ints(cls, params: RingParams, values: np.ndarray, level: int) -> "Residues":
        """The int64 ``values`` reduced into q_0..q_level."""
        mods = np.array(params.moduli(level), dtype=np.int64)[:, None]
        return cls(params, np.mod(values, mods).astype(np.uint64), level)

    def to_bytes(self) -> bytes:
        """The residues alone, packed as `RingElement.to_bytes` packs a row."""
        return _pack_residues(self.data, [q.bit_length() for q in self.moduli])

    @classmethod
    def from_bytes(cls, buf: bytes, params: RingParams, level: int, count: int) -> "Residues":
        """Read a `to_bytes` record of ``count`` residues per row of
        q_0..q_level; refuse any residue that layout cannot hold."""
        return cls(params, _read_residues(buf, params, level, False, count), level)


def _centered_rem(last: np.ndarray, q_last: int, q: np.ndarray) -> np.ndarray:
    """The residues ``last`` mod q_last, centered, reduced into each modulus
    of the column ``q`` (broadcast against ``last``)."""
    # a remainder x above q_last / 2 stands for x - q_last, which is
    # x + (q - q_last mod q) mod q: both terms are below 2^62
    shift = (q - np.uint64(q_last) % q) % q
    rem = np.where(last > np.uint64(q_last // 2), shift, np.uint64(0))
    rem += last
    rem %= q
    return rem


def _crt_lift(params: RingParams, mods: tuple[int, ...], cols: np.ndarray) -> np.ndarray:
    """Centered CRT lift of residue columns over ``mods`` to Python integers."""
    big_q, es = params.crt_constants(mods)
    acc = np.zeros(cols.shape[1], dtype=object)
    for row, e in zip(cols, es):
        acc = acc + row.astype(object) * e
    acc = acc % big_q
    return np.where(acc > big_q // 2, acc - big_q, acc)


def _read_residues(buf: bytes, params: RingParams, level: int, special: bool, count: int):
    """The (rows, count) residues of a packed record of that layout; refuses
    any other length, nonzero pad bits and a residue at or above its modulus."""
    need = params.record_bytes(level, special, count)
    if len(buf) != need:
        raise SerializationError(f"payload length {len(buf)} != expected {need}")
    mods = params.moduli(level, special)
    widths = [q.bit_length() for q in mods]
    data = _unpack_residues(np.frombuffer(buf, dtype=np.uint8), widths, count)
    if (data >= np.array(mods, dtype=np.uint64)[:, None]).any():
        raise SerializationError("residue not below its row's modulus")
    return data


def _sum_mod(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Sums mod q over the last axis of residues below q < 2^62; ``q`` is one
    modulus per entry of the second-to-last axis."""
    # the 32-bit halves sum without overflow for any n below 2^32
    lo = (x & np.uint64(0xFFFFFFFF)).sum(axis=-1)
    hi = (x >> np.uint64(32)).sum(axis=-1)
    total = (hi.astype(object) << 32) + lo.astype(object)
    return (total % q.ravel().astype(object)).astype(np.uint64)


def coeffs_at(elems, read) -> list[Residues]:
    """Coefficients ``read`` (in its order) of NTT-domain chain elements of
    one layout, as `Residues`.

    One coefficient is a dot product and needs no transform: coefficient k
    of x is n^-1 * sum_j x_j * w_j^-k over the slots j, where w_j is slot
    j's root, and w_j^-k = -w_j^(n-k) is what `RingElement.monomial` gathers
    for X^(n-k).  So it is one modular product with those roots and a
    modular sum.  More coefficients take the elements through inverse
    transforms, `RingParams.group_size` elements per call, as
    `RingElement.drop_last_modulus` groups them.
    """
    first = elems[0]
    if not first.ntt or first.special:
        raise DomainError("coeffs_at takes NTT-domain chain elements")
    for e in elems[1:]:
        first._check_compat(e)
    params, rows, level = first.params, first.rows, first.level
    n = params.n
    read = np.asarray(read, dtype=np.int64)
    if read.ndim != 1 or read.size == 0 or read.min() < 0 or read.max() >= n:
        raise ParameterError(f"read set must be coefficients of 0..{n - 1}")
    if read.size == 1:
        k = int(read[0])
        big_q = params.crt_constants(first.moduli)[0]
        inv_n = pow(n, -1, big_q)
        roots = RingElement.monomial(params, inv_n if k == 0 else big_q - inv_n, -k % n, level)
        stack = np.concatenate([e.data for e in elems])
        roots = np.tile(roots.data, (len(elems), 1))
        prod = mul_mod(stack, roots, params.tables, rows * len(elems))
        sums = _sum_mod(prod.reshape(len(elems), len(rows), n), params.tables.q[rows])
        return [Residues(params, col[:, None], level) for col in sums]
    out = []
    for start in range(0, len(elems), params.group_size):
        group = elems[start : start + params.group_size]
        data = np.concatenate([e.data for e in group])
        ntt_inverse_inplace(data, params.tables, rows * len(group))
        out += [Residues(params, blk, level) for blk in np.split(data[:, read], len(group))]
    return out


def _bit_layout(widths: list[int], n: int):
    """Where each residue of a packed record sits, as (rows, n) arrays: its
    64-bit word, its shift in that word and whether it runs into the next
    word; plus the (rows, 1) column of width masks.  Residues run row by row,
    ``widths[i]`` bits each for row i.

    Every width is below 64, so every word up to the last residue's holds
    the start of at least one residue."""
    width = np.array(widths, dtype=np.int64)[:, None]
    start = (np.cumsum(width) - width.ravel())[:, None] * n + width * np.arange(n)
    shift = (start & 63).astype(np.uint64)
    spill = shift + width.astype(np.uint64) > np.uint64(64)
    mask = (np.uint64(1) << width.astype(np.uint64)) - np.uint64(1)
    return start >> 6, shift, spill, mask


def _pack_residues(data: np.ndarray, widths: list[int]) -> bytes:
    """The rows of ``data`` at ``widths[i]`` bits per residue of row i, as one
    little-endian bitstream padded with zero bits to a whole byte."""
    total = data.shape[1] * sum(widths)
    word, shift, spill, mask = _bit_layout(widths, data.shape[1])
    x = data & mask  # a residue too wide for its row cannot reach its neighbours
    out = np.zeros((total + 63) // 64, dtype=np.uint64)
    # bits of different residues never overlap, so OR-ing them into their
    # words assembles the stream; a word's first residue starts the run
    firsts = np.flatnonzero(np.diff(word.ravel(), prepend=-1))
    out[: len(firsts)] = np.bitwise_or.reduceat((x << shift).ravel(), firsts)
    # at most one residue runs into each word, from the word before
    out[word[spill] + 1] |= x[spill] >> (np.uint64(64) - shift[spill])
    return out.astype("<u8", copy=False).tobytes()[: (total + 7) // 8]


def _unpack_residues(payload: np.ndarray, widths: list[int], n: int) -> np.ndarray:
    """Inverse of `_pack_residues` for a payload of the right length; refuses
    nonzero pad bits."""
    total = n * sum(widths)
    if total % 8 and payload[-1] >> (total % 8):
        raise SerializationError("nonzero pad bits after the last residue")
    # whole words plus one of zeros, so a residue's next word always exists
    padded = np.zeros(((total + 63) // 64 + 1) * 8, dtype=np.uint8)
    padded[: len(payload)] = payload
    words = padded.view("<u8").astype(np.uint64, copy=False)
    word, shift, spill, mask = _bit_layout(widths, n)
    x = words[word] >> shift
    # the high bits of a residue that ran into the next word
    x[spill] |= words[word[spill] + 1] << (np.uint64(64) - shift[spill])
    return x & mask


# ---------------------------------------------------------------------------
# module-level op aliases
# ---------------------------------------------------------------------------


def ring_add(a: RingElement, b: RingElement) -> RingElement:
    return a.add(b)


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    """Negacyclic product; accepts a matching pair in either domain."""
    if a.ntt != b.ntt:
        raise DomainError("ring_mul operands must share a representation")
    if a.ntt:
        return a.mul(b)
    return a.to_ntt().mul(b.to_ntt()).to_coeff()


def to_ntt_all(elems) -> list[RingElement]:
    """``[e.to_ntt() for e in elems]`` for coefficient-domain elements of one
    layout, as one forward transform over their stacked rows (one element is
    its own ``to_ntt``)."""
    first = elems[0]
    if first.ntt:
        raise DomainError("to_ntt_all takes coefficient-domain elements")
    if len(elems) == 1:
        # a round's fresh rates are its only RingElement.to_ntt calls, which the
        # traced run needs (test_every_reported_layer_runs_in_a_traced_round)
        return [first.to_ntt()]
    for e in elems[1:]:
        first._check_compat(e)
    data = np.concatenate([e.data for e in elems])
    ntt_forward_inplace(data, first.params.tables, first.rows * len(elems))
    return [first._like(block, ntt=True) for block in np.split(data, len(elems))]


def rns_digits(x: RingElement) -> np.ndarray:
    """The NTT forms of an element's RNS digits over the extended basis, as
    one stacked ``(digits * rows, n)`` residue matrix.

    ``x`` is an NTT-domain element over q_0..q_l.  Digit i is its residue row
    mod q_i read as an integer in [0, q_i) and reduced into every modulus of
    q_0..q_l plus the special prime; it fills rows i*(l+2) .. i*(l+2)+l+1.
    Row i of that digit is x's own NTT row i, so only the other rows are
    transformed, every digit's in one call.
    """
    if not x.ntt or x.special:
        raise DomainError("digit decomposition takes an NTT-domain chain element")
    params, tab = x.params, x.params.tables
    rows = params.rows(x.level, special=True)
    n_digits = x.level + 1
    digit, row = np.nonzero(~np.eye(n_digits, len(rows), dtype=bool))
    other = x.to_coeff().data[digit] % tab.q[rows][row]
    ntt_forward_inplace(other, tab, [rows[r] for r in row])
    out = np.empty((n_digits, len(rows), params.n), dtype=np.uint64)
    out[digit, row] = other
    out[np.arange(n_digits), np.arange(n_digits)] = x.data
    return out.reshape(-1, params.n)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _seed_bytes(seed) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, str):
        return seed.encode()
    if isinstance(seed, int):
        return seed.to_bytes(16, "little", signed=False)
    raise ParameterError(f"unsupported seed type {type(seed)!r}")


def _shake_words(seed: bytes, count: int) -> np.ndarray:
    """First ``count`` uint64 words of the SHAKE-256 stream for ``seed``."""
    return np.frombuffer(hashlib.shake_256(seed).digest(8 * count), dtype="<u8")


# Words drawn per word a row needs on average.  A row of n residues takes
# n * 2^64 / bound words, and its spread is far below 2% for every n the
# pipeline uses; a shortfall only costs a longer digest.
_DRAW_SLACK = 1.02


def sample_uniform(
    params: RingParams,
    seed,
    *,
    level: int | None = None,
    special: bool = False,
    ntt: bool = False,
    tag: bytes = b"",
    count: int | None = None,
):
    """Deterministic uniform element from a SHAKE-256 stream (rejection sampled).

    The same (seed, tag) always yields the same element, which is what lets
    every party derive the shared public polynomial for a round.  Row i takes
    the next stream words below the largest multiple of q_i under 2^64,
    reduced mod q_i.  With ``count`` each row takes that many residues
    instead of n, read from the stream the same way, and the draw is the
    `Residues` of a read set over the chain.
    """
    if level is None:
        level = params.max_level
    if count is not None and (special or ntt):
        raise ParameterError("a read-set draw is chain residues in the coefficient domain")
    rows = params.rows(level, special)
    seed_b = _seed_bytes(seed) + b"|" + tag
    data = _uniform_rows(params, rows, seed_b, params.n if count is None else count)
    if count is not None:
        return Residues(params, data, level)
    return RingElement(params, data, level, special, ntt)


def _uniform_rows(params: RingParams, rows: list[int], seed_b: bytes, n: int) -> np.ndarray:
    """n uniform residues for each table row of ``rows``, read from the
    SHAKE-256 stream of ``seed_b`` as `sample_uniform` describes."""
    bound_col = params.tables.bound.take(rows, axis=0)
    q_col = params.tables.q.take(rows, axis=0)
    k = len(rows)
    draws = [_DRAW_SLACK * n * _WORD / b for b in bound_col.ravel().tolist()]  # words per row
    words = _shake_words(seed_b, int(sum(draws)) + 16)
    if len(words) >= k * n:
        block = words[: k * n].reshape(k, n)
        # no word rejected: row i is exactly the stream's i-th run of n words
        if (block < bound_col).all():
            return block % q_col
    out = np.empty((k, n), dtype=np.uint64)
    pos = 0
    for i in range(k):
        bound, q = bound_col[i], q_col[i]
        got = 0
        while got < n:
            if pos >= len(words):  # SHAKE output is prefix-stable: extend it
                words = _shake_words(seed_b, 2 * len(words))
            window = words[pos : pos + int(draws[i] * (n - got) / n) + 16]
            hits = np.flatnonzero(window < bound)
            take = min(n - got, len(hits))
            out[i, got : got + take] = window[hits[:take]] % q
            got += take
            # advance past exactly the words that produced the accepted ones
            pos += int(hits[take - 1]) + 1 if got == n else len(window)
    return out


def sample_ternary(params: RingParams, seed) -> RingElement:
    """Deterministic ternary element with entries in {-1, 0, 1}, over the full
    basis (chain and special prime), in the coefficient domain."""
    seed_b = _seed_bytes(seed) + b"|ter|"
    n = params.n
    need = 2 * n + 16
    raw = hashlib.shake_256(seed_b).digest(need)
    vals = np.frombuffer(raw, dtype=np.uint8)
    vals = vals[vals < 255][:n]
    while len(vals) < n:  # pragma: no cover - astronomically unlikely refill
        need *= 2
        raw = hashlib.shake_256(seed_b).digest(need)
        vals = np.frombuffer(raw, dtype=np.uint8)
        vals = vals[vals < 255][:n]
    signed = vals.astype(np.int64) % 3 - 1
    return RingElement.from_int_coeffs(params, signed, params.max_level, special=True)


def sample_error(
    params: RingParams,
    rng: np.random.Generator,
    sigma: float,
    *,
    level: int | None = None,
    special: bool = False,
    count: int | None = None,
):
    """Rounded-Gaussian error polynomial (coefficient domain); with ``count``,
    that many errors per row as the `Residues` of a read set over the chain."""
    if level is None:
        level = params.max_level
    if count is not None and special:
        raise ParameterError("a read-set draw is chain residues")
    vals = np.rint(rng.normal(0.0, sigma, params.n if count is None else count)).astype(np.int64)
    if count is not None:
        return Residues.from_ints(params, vals, level)
    return RingElement.from_int_coeffs(params, vals, level, special)

