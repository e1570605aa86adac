"""Desk-scale federated learning with label-flipping attackers.

The task is deliberately small: a 10-class Gaussian-mixture classification
problem and either multinomial logistic regression or a one-hidden-layer tanh
MLP, trained by federated SGD.  Everything an experiment needs — sharding,
local training, attacker label flips, roster selection, aggregation (plain or
encrypted), metrics, and the norm-bound check — lives here; the CLI is a thin
wrapper around `run_experiment_suite`.

Determinism contract: every random choice derives from the experiment seed
(per-user training RNGs are seeded by (seed, round, user), so a user's update
does not depend on who else trains that round), and metrics CSVs contain no
wall-clock columns.  Identical (config, seed) therefore reproduce
byte-identical CSVs in both modes; timings are reported separately in the
JSON summary.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .aggregation import (
    AGGREGATORS,
    encrypt_update,
    make_aggregator,
    non_poisoning_rates,
    secure_aggregate_round,
    sq_norm_plain,
    weighted_aggregate_plain,
)
from .errors import ParameterError, TrainingDiverged
from .he import common_poly, get_params
from .multikey import setup_pairwise

# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

_CSV_TEST_FRACTION = 0.2  # share of a CSV dataset's shuffled rows held out


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    n_classes: int

    @property
    def n_features(self) -> int:
        return self.train_x.shape[1]


def make_synthetic(
    n_features: int = 64,
    n_train: int = 5000,
    n_test: int = 1000,
    n_classes: int = 10,
    spread: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Gaussian mixture: class means at distance ~spread, unit within-class noise."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, spread, size=(n_classes, n_features))

    def draw(n):
        y = rng.integers(0, n_classes, size=n)
        x = means[y] + rng.normal(0.0, 1.0, size=(n, n_features))
        return x, y

    train_x, train_y = draw(n_train)
    test_x, test_y = draw(n_test)
    return Dataset(train_x, train_y, test_x, test_y, n_classes)


def load_csv_dataset(path: str, seed: int = 0) -> Dataset:
    """Row-format CSV: float features, last column an integer class label."""
    feats, labels = [], []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                feats.append([float(v) for v in row[:-1]])
                labels.append(int(row[-1]))
            except ValueError as exc:
                raise ParameterError(f"{path}: line {lineno}: {exc}") from exc
    if not feats:
        raise ParameterError(f"{path}: no data rows")
    widths = {len(f) for f in feats}
    if len(widths) != 1:
        raise ParameterError(f"{path}: inconsistent row widths {sorted(widths)}")
    x = np.asarray(feats, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if y.min() < 0:
        raise ParameterError(f"{path}: negative class labels")
    order = np.random.default_rng(seed).permutation(len(y))
    x, y = x[order], y[order]
    n_test = max(1, int(round(_CSV_TEST_FRACTION * len(y))))
    return Dataset(x[n_test:], y[n_test:], x[:n_test], y[:n_test], int(y.max()) + 1)


def shard_iid(x: np.ndarray, y: np.ndarray, n_users: int, seed: int):
    """Even IID split: a seeded shuffle cut into n_users equal shards."""
    if len(y) < n_users:
        raise ParameterError(f"{len(y)} samples cannot cover {n_users} users")
    order = np.random.default_rng(seed).permutation(len(y))
    per = len(y) // n_users
    return [
        (x[order[u * per : (u + 1) * per]], y[order[u * per : (u + 1) * per]])
        for u in range(n_users)
    ]


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------


@dataclass
class AttackConfig:
    source: int = 1
    target: int = 7
    fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise ParameterError("label flip needs distinct source/target classes")
        if not 0.0 <= self.fraction <= 1.0:
            raise ParameterError(f"attacker fraction {self.fraction} outside [0, 1]")


def flip_labels(y: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    """Swap source and target labels (bidirectional, hence an involution)."""
    out = y.copy()
    out[y == cfg.source] = cfg.target
    out[y == cfg.target] = cfg.source
    return out


@dataclass
class UserProfile:
    user_id: int
    x: np.ndarray
    y: np.ndarray
    role: str  # "benign" | "malicious"


# ---------------------------------------------------------------------------
# models: flat parameter vectors, analytic gradients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Architecture:
    """Either multinomial logistic regression or a one-hidden-layer tanh MLP.

    Parameters are packed flat: logreg as [W (F,C), b (C)]; the MLP as
    [W1 (F,H), b1 (H), W2 (H,C), b2 (C)].
    """

    name: str
    n_features: int
    n_classes: int
    hidden: int = 32

    def __post_init__(self) -> None:
        if self.name not in ("logreg", "mlp"):
            raise ParameterError(f"unknown architecture {self.name!r}")

    @property
    def dim(self) -> int:
        f, c, h = self.n_features, self.n_classes, self.hidden
        if self.name == "logreg":
            return (f + 1) * c
        return (f + 1) * h + (h + 1) * c

    def init(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.normal(0.0, 0.01, size=self.dim)

    def unpack(self, w: np.ndarray):
        f, c, h = self.n_features, self.n_classes, self.hidden
        if self.name == "logreg":
            return w[: f * c].reshape(f, c), w[f * c :]
        o = 0
        w1 = w[o : o + f * h].reshape(f, h)
        o += f * h
        b1 = w[o : o + h]
        o += h
        w2 = w[o : o + h * c].reshape(h, c)
        o += h * c
        return w1, b1, w2, w[o:]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def predict_logits(arch: Architecture, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    if arch.name == "logreg":
        wm, b = arch.unpack(w)
        return x @ wm + b
    w1, b1, w2, b2 = arch.unpack(w)
    return np.tanh(x @ w1 + b1) @ w2 + b2


def loss_and_grad(arch: Architecture, w: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and its analytic gradient, packed flat."""
    n = len(y)
    onehot = np.zeros((n, arch.n_classes))
    onehot[np.arange(n), y] = 1.0
    if arch.name == "logreg":
        wm, b = arch.unpack(w)
        p = _softmax(x @ wm + b)
        delta = (p - onehot) / n
        grad = np.concatenate([(x.T @ delta).ravel(), delta.sum(axis=0)])
    else:
        w1, b1, w2, b2 = arch.unpack(w)
        h = np.tanh(x @ w1 + b1)
        p = _softmax(h @ w2 + b2)
        delta = (p - onehot) / n
        dh = (delta @ w2.T) * (1.0 - h * h)
        grad = np.concatenate(
            [
                (x.T @ dh).ravel(),
                dh.sum(axis=0),
                (h.T @ delta).ravel(),
                delta.sum(axis=0),
            ]
        )
    logp = np.log(np.maximum(p[np.arange(n), y], 1e-300))
    return -float(logp.mean()), grad


def predict(arch: Architecture, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    return predict_logits(arch, w, x).argmax(axis=1)


def accuracy(arch: Architecture, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    return float((predict(arch, w, x) == y).mean())


def per_class_accuracy(arch, w, x, y, n_classes: int) -> np.ndarray:
    preds = predict(arch, w, x)
    out = np.zeros(n_classes)
    for c in range(n_classes):
        mask = y == c
        out[c] = float((preds[mask] == c).mean()) if mask.any() else 0.0
    return out


def attack_success_rate(arch, w, x, y, cfg: AttackConfig) -> float:
    """Fraction of true-source test samples the model assigns to the target."""
    mask = y == cfg.source
    if not mask.any():
        raise ParameterError(f"no test samples with source label {cfg.source}")
    preds = predict(arch, w, x[mask])
    return float((preds == cfg.target).mean())


def local_train(
    arch: Architecture,
    w: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    eta: float,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mini-batch SGD; returns the effective gradient (w_start - w_end)/eta.

    The effective-gradient convention keeps the server update rule
    w - eta * aggregate(..) exact regardless of how many local steps (or
    local epochs, for attackers) each user ran.
    """
    if eta == 0.0:
        return np.zeros_like(w)
    cur = w.copy()
    for epoch in range(epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), batch_size):
            idx = order[start : start + batch_size]
            _, g = loss_and_grad(arch, cur, x[idx], y[idx])
            cur -= eta * g
        if not np.isfinite(cur).all():
            raise TrainingDiverged(
                f"non-finite parameters after local epoch {epoch + 1} (eta={eta})"
            )
    return (w - cur) / eta


# ---------------------------------------------------------------------------
# convergence-bound check
# ---------------------------------------------------------------------------


@dataclass
class BoundReport:
    n_benign: int
    n_malicious: int
    g_sq: float
    z_sq: float
    threshold: float
    satisfied: bool


def corollary_threshold(n_benign: int, n_malicious: int, g_sq: float) -> float:
    """Largest benign/malicious norm-gap Z^2 the weighting provably tolerates:
    (B-M)(B+M-1) G^2 / (BM - M^2 + M)."""
    b, m = n_benign, n_malicious
    if m < 1:
        raise ParameterError("threshold undefined without malicious users (M >= 1)")
    if b < m:
        raise ParameterError(f"threat model needs B >= M, got B={b}, M={m}")
    if not 0 <= g_sq < math.inf:  # NaN fails both comparisons
        raise ParameterError(f"G^2 must be finite and non-negative, not {g_sq}")
    return (b - m) * (b + m - 1) * g_sq / (b * m - m * m + m)


def bound_report(n_benign: int, n_malicious: int, g_sq: float, z_sq: float) -> BoundReport:
    """The threshold for (B, M, G^2), and whether the gap Z^2 lies strictly
    inside the provable-downweighting region (Z^2 < threshold)."""
    if not 0 <= z_sq < math.inf:
        raise ParameterError(f"Z^2 must be finite and non-negative, not {z_sq}")
    threshold = corollary_threshold(n_benign, n_malicious, g_sq)
    if not math.isfinite(threshold):
        raise ParameterError(f"threshold overflows a float for B={n_benign}, "
                             f"M={n_malicious}, G^2={g_sq}")
    return BoundReport(
        n_benign=n_benign,
        n_malicious=n_malicious,
        g_sq=g_sq,
        z_sq=z_sq,
        threshold=threshold,
        satisfied=bool(z_sq < threshold),
    )


def corollary4_check(norm_history: dict[int, list], roles: dict[int, str]) -> BoundReport:
    """Evaluate the norm-gap bound from observed per-round squared norms.

    G^2 is the largest benign per-user mean; Z^2 the malicious excess over it.
    satisfied means the observed gap lies inside the provable-downweighting
    region (Z^2 < threshold).
    """
    benign = [np.mean(norm_history[u]) for u, r in roles.items() if r == "benign" and u in norm_history]
    malicious = [np.mean(norm_history[u]) for u, r in roles.items() if r == "malicious" and u in norm_history]
    if not benign or not malicious:
        raise ParameterError("bound check needs at least one user of each role")
    g_sq = float(max(benign))
    z_sq = max(float(max(malicious)) - g_sq, 0.0)
    return bound_report(len(benign), len(malicious), g_sq, z_sq)


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


_JSON_TYPES = {"int": int, "int | None": (int, type(None)), "float": (int, float), "str": str}


def _fits(kind: str, value) -> bool:
    """Whether a JSON value fits a `SimConfig` field annotated ``kind``: a
    bool is no int, an int is a float, and a tuple is a list of ints."""
    if kind == "tuple":
        return isinstance(value, list) and all(_fits("int", v) for v in value)
    if isinstance(value, bool) or kind == "bool":
        return isinstance(value, bool) and kind == "bool"
    return isinstance(value, _JSON_TYPES[kind])


@dataclass
class SimConfig:
    dataset: str = "synthetic"
    n_features: int = 64
    n_train: int = 5000
    n_test: int = 1000
    n_classes: int = 10
    spread: float = 1.0
    architecture: str = "logreg"
    hidden_units: int = 32
    n_users: int = 100
    roster_size: int = 10
    attacker_fraction: float = 0.2
    attack_source: int = 1
    attack_target: int = 7
    attacker_epochs: int | None = None  # None: same budget as benign users
    aggregator: str = "fhefl"
    mode: str = "plain"
    preset: str = "test-1024"
    eta: float = 0.5
    local_epochs: int = 5
    batch_size: int = 32
    rounds: int = 100
    seeds: tuple = (0,)
    epsilon: float = 0.0
    pinned_roster: bool = True

    def validate(self, override_attacker_cap: bool = False) -> None:
        from .he import preset_names

        if self.mode not in ("plain", "encrypted"):
            raise ParameterError(f"unknown mode {self.mode!r}")
        if self.aggregator not in ("fhefl", *AGGREGATORS):
            raise ParameterError(f"unknown aggregator {self.aggregator!r}")
        if self.preset not in preset_names():
            raise ParameterError(f"unknown preset {self.preset!r}")
        if not 1 <= self.roster_size <= self.n_users:
            raise ParameterError("roster size must be between 1 and the user count")
        if self.mode == "encrypted" and (self.aggregator != "fhefl" or self.roster_size < 2):
            raise ParameterError(
                "encrypted mode runs the fhefl aggregator on a roster of at least 2"
            )
        if self.attacker_fraction > 0.2 and not override_attacker_cap:
            raise ParameterError(
                f"attacker fraction {self.attacker_fraction} exceeds the 20% threat "
                "model; pass the explicit override to exceed it"
            )
        if self.rounds < 1 or not self.seeds:
            raise ParameterError("need at least one round and one seed")
        for key in ("batch_size", "local_epochs", "attacker_epochs", "n_train", "n_test",
                    "n_features", "n_classes", "hidden_units"):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ParameterError(f"{key} must be at least 1, not {value}")
        for key in ("eta", "epsilon", "spread"):
            value = getattr(self, key)
            if not 0 <= value < math.inf:  # NaN fails both comparisons
                raise ParameterError(f"{key} must be finite and not negative, not {value}")
        Architecture(self.architecture, self.n_features, self.n_classes, self.hidden_units)
        AttackConfig(self.attack_source, self.attack_target, self.attacker_fraction)

    @classmethod
    def from_json(cls, path: str) -> "SimConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ParameterError(f"{path}: a config is a JSON object, not {type(raw).__name__}")
        fields = cls.__dataclass_fields__
        unknown = set(raw) - set(fields)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            if not _fits(fields[key].type, value):
                raise ParameterError(f"config key {key!r} takes {fields[key].type}, not {value!r}")
        if "seeds" in raw:
            raw["seeds"] = tuple(raw["seeds"])
        return cls(**raw)

    @property
    def attack(self) -> AttackConfig:
        return AttackConfig(self.attack_source, self.attack_target, self.attacker_fraction)


# ---------------------------------------------------------------------------
# round orchestration
# ---------------------------------------------------------------------------


@dataclass
class ModelState:
    w: np.ndarray
    arch: Architecture
    epoch: int = 0


@dataclass
class RoundMetrics:
    epoch: int
    accuracy: float
    aasr: float
    class_accuracy: np.ndarray
    roster: list
    roles: list
    rates: np.ndarray
    dists: np.ndarray
    timings: dict = field(default_factory=dict)


def build_users(ds: Dataset, cfg: SimConfig, seed: int) -> dict[int, UserProfile]:
    """Shard the training data and flip labels on the attacker shards."""
    for c in (cfg.attack_source, cfg.attack_target):
        if not 0 <= c < ds.n_classes:
            raise ParameterError(f"attack class {c} outside the {ds.n_classes} dataset classes")
    shards = shard_iid(ds.train_x, ds.train_y, cfg.n_users, seed)
    n_att = int(round(cfg.attacker_fraction * cfg.n_users))
    rng = np.random.default_rng([seed, 17])
    attackers = set(rng.choice(cfg.n_users, size=n_att, replace=False).tolist()) if n_att else set()
    users = {}
    attack = cfg.attack
    for u, (x, y) in enumerate(shards):
        if u in attackers:
            users[u] = UserProfile(u, x, flip_labels(y, attack), "malicious")
        else:
            users[u] = UserProfile(u, x, y, "benign")
    return users


def select_roster(users: dict[int, UserProfile], cfg: SimConfig, rng) -> list[int]:
    """Sample the round's participants; pinned mode fixes the attacker count."""
    if not cfg.pinned_roster:
        return sorted(rng.choice(sorted(users), size=cfg.roster_size, replace=False).tolist())
    attackers = sorted(u for u, p in users.items() if p.role == "malicious")
    benign = sorted(u for u, p in users.items() if p.role == "benign")
    n_att = min(int(round(cfg.attacker_fraction * cfg.roster_size)), len(attackers))
    picked = []
    if n_att:
        picked += rng.choice(attackers, size=n_att, replace=False).tolist()
    picked += rng.choice(benign, size=cfg.roster_size - n_att, replace=False).tolist()
    return sorted(picked)


def _train_roster(state, users, roster, cfg, seed):
    def epochs(profile):
        if profile.role == "malicious" and cfg.attacker_epochs is not None:
            return cfg.attacker_epochs
        return cfg.local_epochs

    return np.stack([
        local_train(
            state.arch, state.w, users[u].x, users[u].y, cfg.eta, epochs(users[u]),
            cfg.batch_size, np.random.default_rng([seed, state.epoch, u]),
        )
        for u in roster
    ])


def _aggregate_fhefl_encrypted(state, grads, roster, cfg, seed):
    """The encrypted round on the whole model."""
    params = get_params(cfg.preset)
    master = b"fhefl|%d" % seed
    keyrings = setup_pairwise(params, roster, state.epoch, master)
    rng = np.random.default_rng([seed, state.epoch, 999983])
    a = common_poly(params, seed=b"a|%d|%d" % (seed, state.epoch))
    enc = {
        u: encrypt_update(keyrings[u], grads[i], a, rng) for i, u in enumerate(roster)
    }
    tag = b"r|%d|%d" % (seed, state.epoch)
    return secure_aggregate_round(enc, keyrings, state.w, cfg.eta, rng, round_tag=tag)


def run_round(
    state: ModelState,
    users: dict[int, UserProfile],
    roster: list,
    ds: Dataset,
    cfg: SimConfig,
    seed: int,
):
    """One synchronization round: local training, aggregation, evaluation."""
    t0 = time.perf_counter()
    grads = _train_roster(state, users, roster, cfg, seed)
    t1 = time.perf_counter()

    # god view of the distances and rates: the plain fhefl rule's weights, and
    # for every other path a metric only (nothing here is decrypted)
    dists = np.array([sq_norm_plain(g) for g in grads])
    rates = non_poisoning_rates(dists)
    if cfg.aggregator != "fhefl":
        # krum assumes the configured attacker share of the roster
        f_assume = max(1, int(round(cfg.attacker_fraction * cfg.roster_size)))
        agg = make_aggregator(cfg.aggregator, f=f_assume)
        w_next = state.w - cfg.eta * agg(grads)
    elif cfg.mode == "encrypted":
        w_next = _aggregate_fhefl_encrypted(state, grads, roster, cfg, seed)
    else:
        w_next = weighted_aggregate_plain(state.w, grads, rates, cfg.eta)
    t2 = time.perf_counter()

    acc = accuracy(state.arch, w_next, ds.test_x, ds.test_y)
    aasr = attack_success_rate(state.arch, w_next, ds.test_x, ds.test_y, cfg.attack)
    cls_acc = per_class_accuracy(state.arch, w_next, ds.test_x, ds.test_y, ds.n_classes)
    t3 = time.perf_counter()

    metrics = RoundMetrics(
        epoch=state.epoch,
        accuracy=acc,
        aasr=aasr,
        class_accuracy=cls_acc,
        roster=list(roster),
        roles=[users[u].role for u in roster],
        rates=rates,
        dists=dists,
        timings={"train_s": t1 - t0, "aggregate_s": t2 - t1, "eval_s": t3 - t2},
    )
    new_state = ModelState(w=w_next, arch=state.arch, epoch=state.epoch + 1)
    stopped = bool(np.linalg.norm(w_next - state.w) <= cfg.epsilon)
    return new_state, metrics, stopped


# ---------------------------------------------------------------------------
# experiment driver and artifacts
# ---------------------------------------------------------------------------


def metrics_csv_text(history: list, n_classes: int) -> str:
    buf = io.StringIO()
    cols = ["epoch", "accuracy", "aasr"]
    cols += [f"acc_class_{c}" for c in range(n_classes)]
    cols += ["roster", "roles", "rates", "dists"]
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for m in history:
        row = [m.epoch, f"{m.accuracy:.10g}", f"{m.aasr:.10g}"]
        row += [f"{v:.10g}" for v in m.class_accuracy]
        row += [
            ";".join(str(u) for u in m.roster),
            ";".join(r[0] for r in m.roles),  # b / m
            ";".join(f"{v:.10g}" for v in m.rates),
            ";".join(f"{v:.10g}" for v in m.dists),
        ]
        writer.writerow(row)
    return buf.getvalue()


def atomic_write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def load_experiment_dataset(cfg: SimConfig, seed: int) -> Dataset:
    if cfg.dataset == "synthetic":
        return make_synthetic(
            cfg.n_features, cfg.n_train, cfg.n_test, cfg.n_classes, cfg.spread, seed
        )
    return load_csv_dataset(cfg.dataset, seed)


def run_experiment(cfg: SimConfig, seed: int, progress=None):
    """One seed's full trajectory, from a config that ``validate`` passes
    without the CLI's 20% attacker cap. Returns (history, summary_dict)."""
    cfg.validate(override_attacker_cap=True)
    t_start = time.perf_counter()
    ds = load_experiment_dataset(cfg, seed)
    users = build_users(ds, cfg, seed)
    arch = Architecture(cfg.architecture, ds.n_features, ds.n_classes, cfg.hidden_units)
    state = ModelState(w=arch.init(seed), arch=arch)
    roster_rng = np.random.default_rng([seed, 23])
    history: list[RoundMetrics] = []
    norm_history: dict[int, list] = {}
    for _ in range(cfg.rounds):
        roster = select_roster(users, cfg, roster_rng)
        state, metrics, stopped = run_round(state, users, roster, ds, cfg, seed)
        history.append(metrics)
        for u, d in zip(roster, metrics.dists):
            norm_history.setdefault(u, []).append(float(d))
        if progress is not None:
            progress(
                f"round {metrics.epoch:3d}  acc={metrics.accuracy:.4f}  "
                f"aasr={metrics.aasr:.4f}"
            )
        if stopped and cfg.epsilon > 0:
            break

    roles = {u: p.role for u, p in users.items()}
    tail = history[-min(10, len(history)) :]
    summary = {
        "seed": seed,
        "rounds_run": len(history),
        "final_accuracy": history[-1].accuracy,
        "final_aasr": history[-1].aasr,
        "mean_accuracy_last10": float(np.mean([m.accuracy for m in tail])),
        "mean_aasr_last10": float(np.mean([m.aasr for m in tail])),
        "timings_s": {
            k: float(np.mean([m.timings[k] for m in history]))
            for k in ("train_s", "aggregate_s", "eval_s")
        },
        "total_s": time.perf_counter() - t_start,
    }
    try:
        summary["bound"] = asdict(corollary4_check(norm_history, roles))
    except ParameterError:  # a role absent from every roster, or B < M
        summary["bound"] = None
    return history, summary


def run_experiment_suite(cfg: SimConfig, out_dir: str, progress=None) -> dict:
    """All configured seeds; writes per-seed CSVs and one summary.json."""
    os.makedirs(out_dir, exist_ok=True)
    per_seed = []
    for seed in cfg.seeds:
        history, summary = run_experiment(cfg, seed, progress)
        csv_path = os.path.join(out_dir, f"metrics_seed{seed}.csv")
        atomic_write_text(csv_path, metrics_csv_text(history, cfg.n_classes))
        summary["csv"] = os.path.basename(csv_path)
        per_seed.append(summary)
        if progress is not None:
            progress(f"seed {seed}: wrote {csv_path}")
    out = {
        "config": {**asdict(cfg), "seeds": list(cfg.seeds)},
        "per_seed": per_seed,
        "aggregate": {
            "mean_final_accuracy": float(np.mean([s["final_accuracy"] for s in per_seed])),
            "mean_aasr_last10": float(np.mean([s["mean_aasr_last10"] for s in per_seed])),
        },
    }
    atomic_write_text(
        os.path.join(out_dir, "summary.json"), json.dumps(out, indent=2) + "\n"
    )
    return out
