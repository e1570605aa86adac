"""Span tracer for the traced benchmark run.

The tracer wraps public functions of every fhefl layer from outside the
package.  A function is replaced in *every* fhefl namespace that bound it by
name (``fhefl.ring`` binds the ``ntt`` kernels, ``fhefl.aggregation`` binds
``he``/``multikey``, ``fhefl.simulation`` binds ``aggregation``), and methods
are replaced on their class, so a call cannot bypass the wrapper through
another import.  Pipeline stages are the ``_stage`` blocks of
``secure_aggregate_round``; they are traced by replacing that context manager.

Each call records one span (name, start, end, parent span, round id, size)
into flat arrays.  Self time is a span's duration minus the durations of its
direct child spans, computed once when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _result_size(out) -> int:
    return int(np.size(out))


def _coeff_count(out) -> int:
    return int(out.data.size)


def _wire_bytes(out) -> int:
    return len(out.to_bytes())


# (owner, attribute, span name, size of the result or None).  An owner
# "module:Class" patches the attribute on the class.
TARGETS = (
    ("fhefl.ntt", "mont_mul", "ntt.mont_mul", _result_size),
    ("fhefl.ntt", "add_mod", "ntt.add_sub", _result_size),
    ("fhefl.ntt", "sub_mod", "ntt.add_sub", _result_size),
    ("fhefl.ntt", "neg_mod", "ntt.add_sub", _result_size),
    ("fhefl.ntt", "ntt_forward_inplace", "ntt.forward", None),
    ("fhefl.ntt", "ntt_inverse_inplace", "ntt.inverse", None),
    ("fhefl.ring:RingElement", "mul", "ring.mul", None),
    ("fhefl.ring:RingElement", "add", "ring.add_sub", None),
    ("fhefl.ring:RingElement", "sub", "ring.add_sub", None),
    ("fhefl.ring:RingElement", "neg", "ring.add_sub", None),
    ("fhefl.ring:RingElement", "to_ntt", "ring.to_ntt", None),
    ("fhefl.ring:RingElement", "to_coeff", "ring.to_coeff", None),
    ("fhefl.ring:RingElement", "drop_last_modulus", "ring.drop_last_modulus", None),
    ("fhefl.ring", "sample_uniform", "ring.sample_uniform", _coeff_count),
    ("fhefl.ring", "sample_error", "ring.sample_error", None),
    ("fhefl.he", "he_mult_relin", "he.mult_relin", None),
    ("fhefl.he", "relinearize", "he.relinearize", None),
    ("fhefl.he", "rescale", "he.rescale", None),
    ("fhefl.he", "plain_affine", "he.plain_affine", None),
    ("fhefl.he", "encrypt", "he.encrypt", None),
    ("fhefl.he", "decrypt", "he.decrypt", None),
    ("fhefl.he:EvalKey", "generate", "he.evalkey_gen", None),
    ("fhefl.multikey", "setup_pairwise", "multikey.setup_pairwise", None),
    ("fhefl.multikey", "masked_partial_decrypt", "multikey.masked_partial_decrypt", _wire_bytes),
    ("fhefl.multikey", "mask_key", "multikey.mask_key", _wire_bytes),
    ("fhefl.multikey", "combine_partials", "multikey.combine_partials", None),
    ("fhefl.multikey", "reconstruct_group_key", "multikey.reconstruct_group_key", None),
    ("fhefl.aggregation", "encrypt_update", "aggregation.encrypt_update", None),
    ("fhefl.aggregation", "secure_aggregate_round", "aggregation.round", None),
    ("fhefl.simulation", "local_train", "simulation.local_train", None),
    ("fhefl.simulation", "accuracy", "simulation.eval", None),
    ("fhefl.simulation", "attack_success_rate", "simulation.eval", None),
    ("fhefl.simulation", "per_class_accuracy", "simulation.eval", None),
    ("fhefl.simulation", "run_round", "simulation.run_round", None),
)

STAGES = ("norm", "distance-sum", "rate", "re-encrypt", "rate-sum-check", "aggregate")

SETUP_ROUND = -1  # round id of spans recorded while provisioning keys


def _fhefl_modules():
    return [m for k, m in sys.modules.items() if k == "fhefl" or k.startswith("fhefl.")]


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.round_id = SETUP_ROUND
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.round.append(self.round_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.size.append(0)
        stack.append(sid)
        return sid

    def _wrap(self, fn, name: str, size_of):
        name_id = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name_id)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1
            if size_of is not None:
                tracer.size[sid] = size_of(out)
            return out

        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every target in every namespace that bound it.

        Raises RuntimeError if a target is missing or if any fhefl namespace
        still holds an unwrapped original afterwards.
        """
        if self._undo:
            raise RuntimeError("tracer already installed")
        originals = []
        for owner_path, attr, name, size_of in TARGETS:
            mod_name, _, cls_name = owner_path.partition(":")
            owner = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(owner, cls_name)
                raw = owner.__dict__.get(attr)
                if raw is None:
                    raise RuntimeError(f"{owner_path}.{attr} not found; cannot trace it")
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._wrap(raw.__func__, name, size_of)))
                else:
                    self._set(owner, attr, self._wrap(raw, name, size_of))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                raise RuntimeError(f"{owner_path}.{attr} not found; cannot trace it")
            wrapped = self._wrap(orig, name, size_of)
            for mod in _fhefl_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped)
            originals.append(orig)
        self._install_stage()
        for mod in _fhefl_modules():
            for key, value in vars(mod).items():
                if any(value is o for o in originals):
                    raise RuntimeError(f"{mod.__name__}.{key} escaped the tracer")

    def _install_stage(self) -> None:
        agg = importlib.import_module("fhefl.aggregation")
        orig = getattr(agg, "_stage", None)
        if orig is None:
            raise RuntimeError("fhefl.aggregation._stage not found; cannot trace stages")
        for stage in STAGES:
            self._id("aggregation.stage." + stage)
        tracer = self

        @contextmanager
        def traced_stage(name):
            sid = tracer._open(tracer._id("aggregation.stage." + name))
            tracer.start[sid] = perf_counter()
            try:
                with orig(name):
                    yield
            finally:
                tracer.end[sid] = perf_counter()
                tracer._stack.pop()

        self._set(agg, "_stage", traced_stage)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns, with per-span self time."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": parent.copy(),
            "round": np.frombuffer(self.round, dtype=np.int32).copy(),
            "start": start.copy(),
            "end": end.copy(),
            "self": dur - child,
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


# Layers whose per-round calls and self time are reported as <name>.calls/.s.
CALL_METRICS = (
    "ntt.mont_mul", "ntt.add_sub", "ntt.forward", "ntt.inverse",
    "ring.mul", "ring.add_sub", "ring.to_ntt", "ring.to_coeff",
    "ring.drop_last_modulus", "ring.sample_uniform", "ring.sample_error",
    "he.mult_relin", "he.rescale", "he.plain_affine", "he.encrypt", "he.decrypt",
    "multikey.masked_partial_decrypt", "multikey.mask_key",
    "multikey.combine_partials", "multikey.reconstruct_group_key",
)

# Names whose span sizes are reported, with the metric suffix and unit.
SIZE_METRICS = (
    ("ntt.mont_mul", "ntt.mont_mul.elems", "count"),
    ("ntt.add_sub", "ntt.add_sub.elems", "count"),
    ("ring.sample_uniform", "ring.sample_uniform.coeffs", "count"),
)

MASK_PARENTS = ("multikey.masked_partial_decrypt", "multikey.mask_key")


def layer_metrics(spans: dict, names: list[str], n_users: int) -> dict:
    """Per-layer figures from recorded spans: {metric: (value, unit)}.

    Figures are per traced round (round id >= 0) unless noted.  ``.s`` is
    self time, except for the stages (which never nest, so their wall time is
    already exclusive of one another) and for key provisioning, which is
    reported per ``setup_pairwise`` call and inclusive of its children.
    """
    ids = {n: i for i, n in enumerate(names)}
    name, rnd, parent = spans["name"], spans["round"], spans["parent"]
    dur = spans["end"] - spans["start"]
    in_round = rnd >= 0
    n_rounds = max(len(np.unique(rnd[in_round])), 1)

    def of(n, where=in_round):
        return where & (name == ids.get(n, -1))

    out = {}
    for base in CALL_METRICS:
        sel = of(base)
        out[base + ".calls"] = (sel.sum() / n_rounds, "count")
        out[base + ".s"] = (spans["self"][sel].sum() / n_rounds, "s")
    for base, metric, unit in SIZE_METRICS:
        out[metric] = (spans["size"][of(base)].sum() / n_rounds, unit)
    out["he.relinearize.s"] = (spans["self"][of("he.relinearize")].sum() / n_rounds, "s")

    everywhere = np.ones_like(in_round)
    setups = of("multikey.setup_pairwise", everywhere)
    n_setups = max(int(setups.sum()), 1)
    evk = of("he.evalkey_gen", everywhere)
    out["he.evalkey_gen.calls"] = (evk.sum() / n_setups, "count")
    out["he.evalkey_gen.s"] = (dur[evk].sum() / n_setups, "s")
    out["multikey.setup_pairwise.s"] = (dur[setups].sum() / n_setups, "s")

    callers = parent[of("ring.sample_uniform")]
    callers = callers[callers >= 0]
    from_masks = np.isin(name[callers], [ids.get(n, -1) for n in MASK_PARENTS])
    out["multikey.pair_masks"] = (from_masks.sum() / n_rounds, "count")
    for base, metric in (
        ("multikey.masked_partial_decrypt", "multikey.partial_bytes_per_user"),
        ("multikey.mask_key", "multikey.masked_key_bytes_per_user"),
    ):
        out[metric] = (spans["size"][of(base)].sum() / n_rounds / n_users, "B")

    stage_total = 0.0
    for stage in STAGES:
        t = dur[of("aggregation.stage." + stage)].sum()
        stage_total += t
        out[f"aggregation.stage.{stage}.s"] = (t / n_rounds, "s")
    round_total = dur[of("aggregation.round")].sum()
    out["aggregation.stage_share"] = (stage_total / round_total if round_total else 0.0, "ratio")

    for base in ("simulation.local_train", "simulation.eval"):
        out[base + ".s"] = (spans["self"][of(base)].sum() / n_rounds, "s")
    return out
