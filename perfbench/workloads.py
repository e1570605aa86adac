"""The benchmark workloads, the oracle gate and the measuring loop.

All workloads are closed loops: one server runs rounds back to back and the
users of a round run in-process one after another.  Every round draws fresh
inputs from ``[seed, round]``: gradients, the model, the common polynomial
``a`` and a unique round tag, as the protocol requires (a reused tag lets two
mask layers cancel outside the intended sum).

The library is reached only through module attributes looked up at call time,
so the tracer's patches are seen.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from fhefl import aggregation, he, multikey, simulation
from tracer import SETUP_ROUND, Tracer, layer_metrics

TOL = {"rtol": 1e-2, "atol": 1e-4}  # acceptance criteria 04 and 09
SETUP_REPS = 3
ETA = 0.1
HEAVY_FRACTION = 0.2  # share of server-workload users whose update is doubled

# configs/desk_attack.json switched to the encrypted pipeline; rounds and
# seeds come from the benchmark.
DESK_ATTACK = {
    "dataset": "synthetic",
    "n_features": 64,
    "n_train": 5000,
    "n_test": 1000,
    "n_classes": 10,
    "spread": 0.5,
    "architecture": "logreg",
    "n_users": 100,
    "roster_size": 10,
    "attacker_fraction": 0.2,
    "attack_source": 1,
    "attack_target": 7,
    "attacker_epochs": 10,
    "aggregator": "fhefl",
    "mode": "encrypted",
    "preset": "test-1024",
    "eta": 0.1,
    "local_epochs": 2,
    "batch_size": 32,
}


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    roster: int
    dim: int = 0  # update length of a server workload
    desk: dict | None = None  # simulation config of an FL-round workload

    @property
    def dimension(self) -> int:
        if self.desk is None:
            return self.dim
        cfg = self.sim_config()
        return simulation.Architecture(
            cfg.architecture, cfg.n_features, cfg.n_classes, cfg.hidden_units
        ).dim

    def sim_config(self) -> "simulation.SimConfig":
        cfg = simulation.SimConfig(
            **{**self.desk, "preset": self.preset, "roster_size": self.roster}
        )
        cfg.validate()
        return cfg

    def expected_pair_masks(self) -> int:
        """One mask set for distance-sum, rate-sum-check and each aggregate chunk."""
        capacity = he.get_params(self.preset).capacity
        chunks = max(1, math.ceil(self.dimension / capacity))
        return self.roster * (self.roster - 1) * (2 + chunks)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("prod-16384", "fhefl-16384", roster=10, dim=1024),
        Workload("desk-1024", "test-1024", roster=10, desk=DESK_ATTACK),
        Workload("roster-64", "test-1024", roster=64, dim=64),
    )
}


def fresh_params(preset: str) -> "he.HeParams":
    """Build a preset from scratch; get_params memoises, so drop its entry first."""
    old = he._PRESET_CACHE.pop(preset, None)
    params = he.get_params(preset)
    if params is old:
        raise RuntimeError(f"preset {preset} was not rebuilt; set-up time would read 0")
    return params


def gate(w_prev, w_enc, w_plain) -> tuple[bool, float]:
    """Oracle check of one round plus the precision of its model step in bits."""
    w_enc = np.asarray(w_enc, dtype=np.float64)
    ok = bool(np.all(np.isfinite(w_enc)) and np.allclose(w_enc, w_plain, **TOL))
    step = w_plain - w_prev
    err = np.max(np.abs((w_enc - w_prev) - step)) / np.max(np.abs(step))
    return ok, -math.log2(max(float(err), 2.0**-52))


def upload_bytes(kr, eu, params) -> int:
    """Wire size of one user's update, after checking the serialised form
    decrypts to the same vector."""
    total = 0
    for ct in eu.fwd + eu.rev:
        blob = he.ciphertext_to_bytes(ct)
        back = he.ciphertext_from_bytes(blob, params)
        if not np.array_equal(he.decrypt(back, kr.sk).values, he.decrypt(ct, kr.sk).values):
            raise RuntimeError("ciphertext round trip through bytes changed the plaintext")
        total += len(blob)
    return total


@dataclass
class Samples:
    setup_s: list = field(default_factory=list)
    round_s: list = field(default_factory=list)
    encrypt_s: list = field(default_factory=list)
    fl_round_s: list = field(default_factory=list)
    precision_bits: list = field(default_factory=list)
    traced_round_s: list = field(default_factory=list)
    upload_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


class ServerLoop:
    """A server aggregating one roster with keys provisioned once per run."""

    def __init__(self, w: Workload, seed: int) -> None:
        self.w, self.seed = w, seed
        self.users = list(range(w.roster))
        self.master = b"perfbench|%d" % seed
        self.spares = 0

    def setup(self) -> float:
        t0 = perf_counter()
        self.params = fresh_params(self.w.preset)
        self.keyrings = multikey.setup_pairwise(self.params, self.users, 0, self.master)
        return perf_counter() - t0

    def prepare(self, r: int) -> dict:
        rng = np.random.default_rng([self.seed, r, 0])
        n, dim = len(self.users), self.w.dim
        grads = rng.uniform(-1.0, 1.0, (n, dim))
        heavy = rng.choice(n, size=max(1, round(HEAVY_FRACTION * n)), replace=False)
        grads[heavy] *= 2.0
        w_prev = rng.uniform(-1.0, 1.0, dim)
        rates = aggregation.non_poisoning_rates([aggregation.sq_norm_plain(g) for g in grads])
        w_plain = aggregation.weighted_aggregate_plain(w_prev, grads, rates, ETA)
        return {"r": r, "grads": grads, "w_prev": w_prev, "w_plain": w_plain}

    def _uploads(self, p: dict, tag: bytes, rng, s: Samples) -> dict:
        """Every user encrypts its round update under the common poly of ``tag``."""
        a = he.common_poly(self.params, seed=tag + b"|a")
        enc = {}
        for u, g in zip(self.users, p["grads"]):
            t0 = perf_counter()
            enc[u] = aggregation.encrypt_update(self.keyrings[u], g, a, rng)
            s.encrypt_s.append(perf_counter() - t0)
        return enc

    def spare_uploads(self, r: int, s: Samples) -> None:
        """The users' round-r uploads, timed but never aggregated.

        A client phase lasts about a second, and a shared machine's speed can
        change every few seconds, so the run also times uploads after each
        set-up and after its last round to sample encrypt_s across the run.
        """
        self.spares += 1
        tag = b"perfbench|%d|%d|spare%d" % (self.seed, r, self.spares)
        self._uploads(self.prepare(r), tag, np.random.default_rng([self.seed, r, 2]), s)

    def run(self, p: dict, s: Samples) -> dict:
        rng = np.random.default_rng([self.seed, p["r"], 1])
        tag = b"perfbench|%d|%d" % (self.seed, p["r"])
        krs = self.keyrings
        t0 = perf_counter()
        enc = self._uploads(p, tag, rng, s)
        t1 = perf_counter()
        w_enc = aggregation.secure_aggregate_round(enc, krs, p["w_prev"], ETA, rng, round_tag=tag)
        t2 = perf_counter()
        first = self.users[0]
        return {"w_enc": w_enc, "round_s": t2 - t1, "fl_round_s": t2 - t0,
                "upload": (krs[first], enc[first])}

    def finish(self, p: dict, out: dict) -> tuple[bool, float]:
        return gate(p["w_prev"], out["w_enc"], p["w_plain"])

    def close(self) -> None:
        pass


class DeskLoop:
    """The desk simulation's own rounds: training, key rotation, encrypted
    aggregation and evaluation through ``simulation.run_round``."""

    def __init__(self, w: Workload, seed: int) -> None:
        self.w, self.seed = w, seed
        self.cfg = w.sim_config()
        self.plain_cfg = simulation.SimConfig(**{**self.cfg.__dict__, "mode": "plain"})
        self.ds = simulation.load_experiment_dataset(self.cfg, seed)
        self.users = simulation.build_users(self.ds, self.cfg, seed)
        arch = simulation.Architecture(
            self.cfg.architecture, self.ds.n_features, self.ds.n_classes, self.cfg.hidden_units
        )
        self.state = simulation.ModelState(w=arch.init(seed), arch=arch)
        self.roster_rng = np.random.default_rng([seed, 23])
        self._probes = []
        self._calls: dict[str, list] = {"secure_aggregate_round": [], "encrypt_update": []}
        for name in self._calls:
            self._probe(name)

    def _probe(self, name: str) -> None:
        """Time every call run_round makes to ``aggregation.<name>``."""
        log = self._calls[name]

        def timed(*args, **kwargs):
            t0 = perf_counter()
            out = getattr(aggregation, name)(*args, **kwargs)
            log.append((perf_counter() - t0, args, out))
            return out

        self._probes.append((name, getattr(simulation, name)))
        setattr(simulation, name, timed)

    def close(self) -> None:
        for name, orig in self._probes:
            setattr(simulation, name, orig)
        self._probes.clear()

    def setup(self) -> float:
        roster = sorted(self.users)[: self.cfg.roster_size]
        t0 = perf_counter()
        params = fresh_params(self.cfg.preset)
        multikey.setup_pairwise(params, roster, self.state.epoch, b"fhefl|%d" % self.seed)
        return perf_counter() - t0

    def prepare(self, r: int) -> dict:
        roster = simulation.select_roster(self.users, self.cfg, self.roster_rng)
        plain, _, _ = simulation.run_round(
            self.state, self.users, roster, self.ds, self.plain_cfg, self.seed
        )
        return {"roster": roster, "w_plain": plain.w}

    def run(self, p: dict, s: Samples) -> dict:
        for log in self._calls.values():
            log.clear()
        t0 = perf_counter()
        new_state, _, _ = simulation.run_round(
            self.state, self.users, p["roster"], self.ds, self.cfg, self.seed
        )
        t1 = perf_counter()
        enc = self._calls["encrypt_update"]
        s.encrypt_s.extend(t for t, _, _ in enc)
        (round_s, _, _), = self._calls["secure_aggregate_round"]
        _, args, eu = enc[0]
        return {"w_enc": new_state.w, "state": new_state, "round_s": round_s,
                "fl_round_s": t1 - t0, "upload": (args[0], eu)}

    def spare_uploads(self, r: int, s: Samples) -> None:
        """Uploads happen inside run_round, whose rounds span the run."""

    def finish(self, p: dict, out: dict) -> tuple[bool, float]:
        w_prev = self.state.w
        self.state = out["state"]
        return gate(w_prev, out["w_enc"], p["w_plain"])


def make_loop(w: Workload, seed: int):
    return DeskLoop(w, seed) if w.desk is not None else ServerLoop(w, seed)


def _one_round(loop, r: int, s: Samples, tracer: Tracer | None) -> None:
    """Attempt one round; an exception or an oracle miss counts as a failure."""
    s.attempted += 1
    try:
        p = loop.prepare(r)
        if tracer is not None:
            tracer.round_id = r
            tracer.install()
        try:
            out = loop.run(p, s)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if r == 0:
            kr, eu = out["upload"]
            s.upload_bytes = upload_bytes(kr, eu, kr.params)
        ok, bits = loop.finish(p, out)
    except Exception:  # the run goes on; the round is reported as failed
        traceback.print_exc(file=sys.stderr)
        s.failed += 1
        return
    (s.traced_round_s if tracer is not None else s.round_s).append(out["round_s"])
    if tracer is None:
        s.fl_round_s.append(out["fl_round_s"])
    if math.isfinite(bits):
        s.precision_bits.append(bits)
    if not ok:
        s.failed += 1


def measure(w: Workload, seed: int, seconds: float, traced: bool):
    """Run one workload; returns (samples, tracer or None).

    Untraced: SETUP_REPS set-ups, then rounds back to back.  Traced: one
    traced set-up, one untraced round as the overhead baseline, then traced
    rounds.  A round is not started if, at the pace of the previous one, it
    would end after ``seconds``; at least one round (traced) always runs.
    """
    s = Samples()
    tracer = Tracer() if traced else None
    loop = make_loop(w, seed)
    try:
        for _ in range(1 if traced else SETUP_REPS):
            if tracer is not None:
                tracer.round_id = SETUP_ROUND
                tracer.install()
            try:
                s.setup_s.append(loop.setup())
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if not traced:
                loop.spare_uploads(0, s)
        start = perf_counter()
        r = 0
        while True:
            t0 = perf_counter()
            _one_round(loop, r, s, tracer if traced and r > 0 else None)
            r += 1
            now = perf_counter()
            if (not traced or r >= 2) and now + (now - t0) - start > seconds:
                break
        if not traced:
            loop.spare_uploads(r, s)
    finally:
        loop.close()
    return s, tracer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(s: Samples) -> dict:
    """{metric: (value, unit, sample count)} for an untraced run.

    Round and upload times are means, not medians: on a shared machine whose
    speed changes every few seconds, the median of a few rounds or upload
    bursts follows whichever speed most of them ran at, while the mean
    weighs the speeds by the time spent at each.
    """
    mean, med = statistics.fmean, statistics.median
    return {
        "setup_s": (med(s.setup_s), "s", len(s.setup_s)),
        "round_s": (mean(s.round_s), "s", len(s.round_s)),
        "encrypt_s": (mean(s.encrypt_s), "s", len(s.encrypt_s)),
        "fl_round_s": (mean(s.fl_round_s), "s", len(s.fl_round_s)),
        "upload_bytes_per_user": (s.upload_bytes, "B", 1),
        "precision_bits": (med(s.precision_bits), "bits", len(s.precision_bits)),
        "oracle_pass_rate": ((s.attempted - s.failed) / s.attempted, "ratio", s.attempted),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }


def per_layer(w: Workload, s: Samples, tracer: Tracer) -> dict:
    """{metric: (value, unit, sample count)} for a traced run; appends every
    failed trace check to ``s.problems``."""
    spans = tracer.arrays()
    n = len(s.traced_round_s)
    out = {k: (v, u, n) for k, (v, u) in layer_metrics(spans, tracer.names, w.roster).items()}
    traced = statistics.median(s.traced_round_s)
    out["trace.round_s"] = (traced, "s", n)
    out["trace.overhead"] = (traced / s.round_s[0], "ratio", n)

    expected_zero = () if w.desk is not None else ("simulation.local_train.s", "simulation.eval.s")
    for metric, (value, _, _) in out.items():
        if metric not in expected_zero and value <= 0:
            s.problems.append(f"trace: {metric} reads {value}")
    masks = out["multikey.pair_masks"][0]
    if masks != w.expected_pair_masks():
        s.problems.append(f"trace: {masks} pair masks per round, expected {w.expected_pair_masks()}")
    share = out["aggregation.stage_share"][0]
    if not 0.95 <= share <= 1.0:
        s.problems.append(f"trace: stages cover {share:.4f} of the round, expected >= 0.95")
    return out
