"""Tests for the federated training harness.

Gradient correctness is checked against central finite differences, the
attack-rate metric against hand-built models, the norm-gap bound against a
worked example, and the encrypted round against its plain counterpart.
"""

import json
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhefl.aggregation import AGGREGATORS
from fhefl.errors import ParameterError, TrainingDiverged
from fhefl.simulation import (
    Architecture,
    AttackConfig,
    BoundReport,
    Dataset,
    ModelState,
    SimConfig,
    UserProfile,
    accuracy,
    attack_success_rate,
    build_users,
    corollary4_check,
    corollary_threshold,
    flip_labels,
    load_csv_dataset,
    local_train,
    loss_and_grad,
    make_synthetic,
    metrics_csv_text,
    per_class_accuracy,
    predict,
    run_experiment,
    run_experiment_suite,
    run_round,
    select_roster,
    shard_iid,
)

# ---------------------------------------------------------------------------
# data plumbing
# ---------------------------------------------------------------------------


def test_synthetic_dataset_shapes_and_determinism():
    ds = make_synthetic(n_features=16, n_train=200, n_test=50, n_classes=4, seed=3)
    assert ds.train_x.shape == (200, 16)
    assert ds.test_x.shape == (50, 16)
    assert ds.n_features == 16
    assert set(np.unique(ds.train_y)) <= set(range(4))
    again = make_synthetic(n_features=16, n_train=200, n_test=50, n_classes=4, seed=3)
    assert np.array_equal(ds.train_x, again.train_x)
    assert np.array_equal(ds.test_y, again.test_y)
    other = make_synthetic(n_features=16, n_train=200, n_test=50, n_classes=4, seed=4)
    assert not np.array_equal(ds.train_x, other.train_x)


def test_synthetic_classes_roughly_balanced():
    ds = make_synthetic(n_train=5000, n_test=1000, n_classes=10, seed=0)
    counts = np.bincount(ds.train_y, minlength=10)
    # [TRIVIAL] uniform draws over 10 classes: each within a wide band of 500
    assert counts.min() > 350 and counts.max() < 650


def test_synthetic_is_learnable_at_default_spread():
    ds = make_synthetic(n_train=1000, n_test=400, seed=1)
    arch = Architecture("logreg", ds.n_features, ds.n_classes)
    w = arch.init(1)
    rng = np.random.default_rng(0)
    w = w - 0.5 * sum(
        loss_and_grad(arch, w, ds.train_x, ds.train_y)[1] for _ in range(1)
    )
    for _ in range(30):
        _, g = loss_and_grad(arch, w, ds.train_x, ds.train_y)
        w -= 0.5 * g
    assert accuracy(arch, w, ds.test_x, ds.test_y) > 0.9


def test_load_csv_roundtrip(tmp_path):
    path = tmp_path / "toy.csv"
    rows = ["1.0,2.0,0", "3.5,-1.0,1", "0.5,0.5,2", "2.0,2.0,1", "9,9,0"]
    path.write_text("\n".join(rows) + "\n")
    ds = load_csv_dataset(str(path), seed=0)
    assert ds.n_classes == 3
    assert len(ds.train_y) + len(ds.test_y) == 5
    assert ds.train_x.shape[1] == 2
    again = load_csv_dataset(str(path), seed=0)
    assert np.array_equal(ds.train_x, again.train_x)


def test_load_csv_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,0\n2.0,3.0,1\n1.0,oops,0\n")
    with pytest.raises(ParameterError, match="line 3"):
        load_csv_dataset(str(path))


def test_load_csv_rejects_ragged_and_empty(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0,0\n1.0,2.0,3.0,1\n")
    with pytest.raises(ParameterError, match="widths"):
        load_csv_dataset(str(ragged))
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(ParameterError, match="no data"):
        load_csv_dataset(str(empty))


def test_shard_iid_partitions_evenly():
    x = np.arange(103, dtype=float).reshape(-1, 1)
    y = np.arange(103) % 5
    shards = shard_iid(x, y, 10, seed=0)
    assert len(shards) == 10
    assert all(len(sy) == 10 for _, sy in shards)
    seen = np.concatenate([sx.ravel() for sx, _ in shards])
    assert len(np.unique(seen)) == 100  # disjoint shards
    again = shard_iid(x, y, 10, seed=0)
    assert all(np.array_equal(a[0], b[0]) for a, b in zip(shards, again))


def test_shard_iid_too_few_samples():
    with pytest.raises(ParameterError, match="cannot cover"):
        shard_iid(np.zeros((3, 2)), np.zeros(3, dtype=int), 5, seed=0)


# ---------------------------------------------------------------------------
# label flipping
# ---------------------------------------------------------------------------


def test_flip_labels_swaps_both_directions():
    cfg = AttackConfig(source=1, target=7)
    y = np.array([1, 7, 3, 1, 0, 7])
    flipped = flip_labels(y, cfg)
    assert flipped.tolist() == [7, 1, 3, 7, 0, 1]


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=60))
def test_flip_labels_is_an_involution(labels):
    cfg = AttackConfig(source=1, target=7)
    y = np.array(labels)
    twice = flip_labels(flip_labels(y, cfg), cfg)
    assert np.array_equal(twice, y)
    # the flip swaps the two class counts and leaves every other class alone
    flipped = flip_labels(y, cfg)
    assert (flipped == 1).sum() == (y == 7).sum()
    assert (flipped == 7).sum() == (y == 1).sum()
    others = ~np.isin(y, (1, 7))
    assert np.array_equal(flipped[others], y[others])


def test_attack_config_validation():
    with pytest.raises(ParameterError, match="distinct"):
        AttackConfig(source=3, target=3)
    with pytest.raises(ParameterError, match="fraction"):
        AttackConfig(fraction=1.5)


# ---------------------------------------------------------------------------
# models and gradients
# ---------------------------------------------------------------------------


def test_architecture_dims():
    lr = Architecture("logreg", n_features=8, n_classes=5)
    assert lr.dim == 9 * 5
    mlp = Architecture("mlp", n_features=8, n_classes=5, hidden=6)
    assert mlp.dim == 9 * 6 + 7 * 5
    with pytest.raises(ParameterError, match="architecture"):
        Architecture("transformer", 8, 5)


def _fd_gradient(arch, w, x, y, h=1e-5):
    fd = np.zeros_like(w)
    for i in range(len(w)):
        wp = w.copy()
        wp[i] += h
        wm = w.copy()
        wm[i] -= h
        fd[i] = (loss_and_grad(arch, wp, x, y)[0] - loss_and_grad(arch, wm, x, y)[0]) / (
            2 * h
        )
    return fd


@pytest.mark.parametrize("name", ["logreg", "mlp"])
def test_gradient_matches_central_differences(name):
    # [DERIVED] oracle: central finite differences of the scalar loss
    rng = np.random.default_rng(42)
    for _ in range(5):
        arch = Architecture(name, n_features=5, n_classes=3, hidden=4)
        w = rng.normal(0, 0.6, arch.dim)
        x = rng.normal(0, 1, (9, 5))
        y = rng.integers(0, 3, 9)
        _, g = loss_and_grad(arch, w, x, y)
        fd = _fd_gradient(arch, w, x, y)
        assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-4


def test_gradient_step_reduces_loss():
    rng = np.random.default_rng(7)
    arch = Architecture("mlp", 6, 4, hidden=5)
    w = rng.normal(0, 0.3, arch.dim)
    x = rng.normal(0, 1, (40, 6))
    y = rng.integers(0, 4, 40)
    loss0, g = loss_and_grad(arch, w, x, y)
    loss1, _ = loss_and_grad(arch, w - 0.1 * g, x, y)
    assert loss1 < loss0


def test_local_train_zero_lr_returns_zero_gradient():
    arch = Architecture("logreg", 4, 3)
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (20, 4))
    y = rng.integers(0, 3, 20)
    g = local_train(arch, arch.init(0), x, y, eta=0.0, epochs=3, batch_size=8, rng=rng)
    assert np.array_equal(g, np.zeros(arch.dim))


def test_local_train_single_full_batch_matches_analytic_gradient():
    # one epoch, one full batch: (w0 - (w0 - eta*g))/eta recovers g
    arch = Architecture("logreg", 4, 3)
    rng = np.random.default_rng(5)
    w0 = rng.normal(0, 0.2, arch.dim)
    x = rng.normal(0, 1, (16, 4))
    y = rng.integers(0, 3, 16)
    eff = local_train(arch, w0, x, y, eta=0.25, epochs=1, batch_size=100,
                      rng=np.random.default_rng(1))
    _, g = loss_and_grad(arch, w0, x, y)
    assert np.allclose(eff, g, rtol=1e-9, atol=1e-12)


def test_local_train_divergence_raises():
    arch = Architecture("logreg", 4, 3)
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (20, 4))
    y = rng.integers(0, 3, 20)
    # a step size near float max overflows the weights within a few batches
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match="non-finite"):
            local_train(arch, arch.init(0), x, y, eta=1e308, epochs=4,
                        batch_size=8, rng=np.random.default_rng(2))


def test_effective_gradient_recovers_weight_average():
    """Server step w - eta*sum(p_u g_u) with effective gradients equals the
    rate-weighted average of the users' end-of-round weights."""
    arch = Architecture("logreg", 4, 3)
    rng = np.random.default_rng(9)
    w0 = arch.init(3)
    ends, effs = [], []
    for u in range(3):
        x = rng.normal(0, 1, (12, 4))
        y = rng.integers(0, 3, 12)
        eff = local_train(arch, w0, x, y, eta=0.2, epochs=2, batch_size=4,
                          rng=np.random.default_rng(u))
        effs.append(eff)
        ends.append(w0 - 0.2 * eff)
    rates = np.array([0.5, 0.3, 0.2])
    served = w0 - 0.2 * (rates @ np.stack(effs))
    averaged = rates @ np.stack(ends)
    assert np.allclose(served, averaged, atol=1e-12)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _constant_class_model(arch, cls):
    """Weights that always predict `cls` (zero features, one-hot bias)."""
    w = np.zeros(arch.dim)
    wm, b = arch.unpack(w)
    b[cls] = 10.0
    return w


def test_accuracy_and_per_class_with_constant_model():
    arch = Architecture("logreg", 3, 4)
    x = np.zeros((8, 3))
    y = np.array([2, 2, 2, 2, 0, 1, 3, 3])
    w = _constant_class_model(arch, 2)
    assert accuracy(arch, w, x, y) == 0.5
    pca = per_class_accuracy(arch, w, x, y, 4)
    assert pca.tolist() == [0.0, 0.0, 1.0, 0.0]


def test_aasr_constant_target_model_is_one():
    arch = Architecture("logreg", 3, 10)
    cfg = AttackConfig(source=1, target=7)
    x = np.random.default_rng(0).normal(0, 1, (50, 3))
    y = np.array([1] * 25 + [3] * 25)
    assert attack_success_rate(arch, _constant_class_model(arch, 7), x, y, cfg) == 1.0
    assert attack_success_rate(arch, _constant_class_model(arch, 1), x, y, cfg) == 0.0


def test_aasr_chance_level_for_random_models():
    # [DERIVED] featureless task, random weights: P(predict target) ~= 1/C
    arch = Architecture("logreg", 8, 10)
    cfg = AttackConfig(source=1, target=7)
    rng = np.random.default_rng(11)
    x = rng.normal(0, 1, (120, 8))
    y = np.full(120, 1)
    vals = [
        attack_success_rate(arch, rng.normal(0, 1, arch.dim), x, y, cfg)
        for _ in range(300)
    ]
    assert abs(np.mean(vals) - 0.1) < 0.03


def test_aasr_requires_source_samples():
    arch = Architecture("logreg", 3, 10)
    cfg = AttackConfig(source=1, target=7)
    with pytest.raises(ParameterError, match="source"):
        attack_success_rate(arch, np.zeros(arch.dim), np.zeros((4, 3)),
                            np.array([0, 2, 3, 4]), cfg)


# ---------------------------------------------------------------------------
# norm-gap bound
# ---------------------------------------------------------------------------


def test_corollary_threshold_worked_example():
    # [PAPER] B=8, M=2, G^2=1: (8-2)(8+2-1)/(16-4+2) = 54/14
    assert corollary_threshold(8, 2, 1.0) == pytest.approx(54 / 14)
    # equal cohorts leave no slack at all
    assert corollary_threshold(3, 3, 5.0) == 0.0
    # threshold scales linearly in G^2
    assert corollary_threshold(8, 2, 2.5) == pytest.approx(2.5 * 54 / 14)


def test_corollary_threshold_rejects_degenerate_inputs():
    with pytest.raises(ParameterError, match="malicious"):
        corollary_threshold(5, 0, 1.0)
    with pytest.raises(ParameterError, match="B >= M"):
        corollary_threshold(2, 3, 1.0)
    with pytest.raises(ParameterError, match="non-negative"):
        corollary_threshold(5, 1, -0.5)


def test_corollary4_check_worked_example():
    # [DERIVED] B=5, M=2, benign means max to 1.0, malicious max 2.0:
    # Z^2 = 1.0, threshold = (3)(6)(1)/(10-4+2) = 2.25 -> satisfied
    history = {u: [1.0, 1.0] for u in range(5)}
    history[5] = [2.0, 2.0]
    history[6] = [1.5]
    roles = {u: "benign" for u in range(5)}
    roles[5] = roles[6] = "malicious"
    rep = corollary4_check(history, roles)
    assert isinstance(rep, BoundReport)
    assert rep.n_benign == 5 and rep.n_malicious == 2
    assert rep.g_sq == pytest.approx(1.0)
    assert rep.z_sq == pytest.approx(1.0)
    assert rep.threshold == pytest.approx(2.25)
    assert rep.satisfied

    history[5] = [5.0, 5.0]  # push the gap past the threshold
    rep2 = corollary4_check(history, roles)
    assert rep2.z_sq == pytest.approx(4.0)
    assert not rep2.satisfied


def test_corollary4_check_needs_both_roles():
    with pytest.raises(ParameterError, match="each role"):
        corollary4_check({0: [1.0]}, {0: "benign"})


def test_corollary4_check_floors_negative_gap():
    history = {0: [2.0], 1: [2.0], 2: [0.5]}
    roles = {0: "benign", 1: "benign", 2: "malicious"}
    rep = corollary4_check(history, roles)
    assert rep.z_sq == 0.0 and rep.satisfied


# ---------------------------------------------------------------------------
# rosters and rounds
# ---------------------------------------------------------------------------


def _tiny_cfg(**kw):
    base = dict(
        n_features=6, n_train=240, n_test=120, n_classes=3, spread=1.5,
        n_users=8, roster_size=4, attacker_fraction=0.25, attack_source=0,
        attack_target=2, eta=0.2, local_epochs=1, batch_size=16, rounds=3,
        seeds=(0,),
    )
    base.update(kw)
    return SimConfig(**base)


def test_build_users_roles_and_flips():
    cfg = _tiny_cfg()
    ds = make_synthetic(cfg.n_features, cfg.n_train, cfg.n_test, cfg.n_classes,
                        cfg.spread, seed=0)
    users = build_users(ds, cfg, seed=0)
    roles = [p.role for p in users.values()]
    assert roles.count("malicious") == 2  # round(0.25 * 8)
    assert len(users) == 8
    # attacker shards contain no source labels: all flipped to target
    for p in users.values():
        if p.role == "malicious":
            shards = shard_iid(ds.train_x, ds.train_y, cfg.n_users, 0)
            orig_y = shards[p.user_id][1]
            assert np.array_equal(p.y, flip_labels(orig_y, cfg.attack))


@pytest.mark.parametrize("kw", [{"attack_source": 12}, {"attack_target": 3},
                                {"attack_source": -1}], ids=["12", "3", "-1"])
def test_build_users_refuses_an_attack_class_outside_the_dataset(kw):
    # a flip onto class 12 of 3 would index past the one-hot columns, and
    # class -1 would silently wrap onto the last class
    cfg = _tiny_cfg(**kw)
    ds = make_synthetic(cfg.n_features, cfg.n_train, cfg.n_test, cfg.n_classes,
                        cfg.spread, seed=0)
    with pytest.raises(ParameterError, match="attack class"):
        build_users(ds, cfg, seed=0)


def test_select_roster_pinned_attacker_count():
    cfg = _tiny_cfg(n_users=20, roster_size=8, attacker_fraction=0.25)
    ds = make_synthetic(cfg.n_features, 400, 100, cfg.n_classes, cfg.spread, 0)
    users = build_users(ds, cfg, seed=0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        roster = select_roster(users, cfg, rng)
        assert len(roster) == 8 and len(set(roster)) == 8
        n_att = sum(users[u].role == "malicious" for u in roster)
        assert n_att == 2  # round(0.25 * 8), pinned every round


def test_select_roster_random_mode_varies_attacker_count():
    cfg = _tiny_cfg(n_users=20, roster_size=8, attacker_fraction=0.25,
                    pinned_roster=False)
    ds = make_synthetic(cfg.n_features, 400, 100, cfg.n_classes, cfg.spread, 0)
    users = build_users(ds, cfg, seed=0)
    rng = np.random.default_rng(3)
    counts = set()
    for _ in range(40):
        roster = select_roster(users, cfg, rng)
        assert len(roster) == 8
        counts.add(sum(users[u].role == "malicious" for u in roster))
    assert len(counts) > 1  # the attacker count actually fluctuates


def _single_round(cfg, seed=0):
    ds = make_synthetic(cfg.n_features, cfg.n_train, cfg.n_test, cfg.n_classes,
                        cfg.spread, seed)
    users = build_users(ds, cfg, seed)
    arch = Architecture(cfg.architecture, ds.n_features, ds.n_classes,
                        cfg.hidden_units)
    state = ModelState(w=arch.init(seed), arch=arch)
    roster = select_roster(users, cfg, np.random.default_rng([seed, 23]))
    return run_round(state, users, roster, ds, cfg, seed)


def test_run_round_is_deterministic():
    cfg = _tiny_cfg()
    s1, m1, _ = _single_round(cfg)
    s2, m2, _ = _single_round(cfg)
    assert np.array_equal(s1.w, s2.w)
    assert m1.accuracy == m2.accuracy and m1.roster == m2.roster


def test_run_round_fhefl_equals_fedavg_on_identical_shards():
    """Full-batch training on byte-identical shards makes every gradient (and
    norm) tie, rates collapse to exactly uniform, and the weighted aggregate
    reduces to the plain average bit-for-bit."""
    ds = make_synthetic(6, 200, 80, 3, 1.5, 0)
    x, y = ds.train_x[:40], ds.train_y[:40]
    users = {u: UserProfile(u, x, y, "benign") for u in range(4)}
    arch = Architecture("logreg", ds.n_features, ds.n_classes)
    w0 = arch.init(0)

    outs = {}
    for agg in ("fhefl", "fedavg"):
        state = ModelState(w=w0.copy(), arch=arch)
        cfg_a = _tiny_cfg(attacker_fraction=0.0, n_users=4, roster_size=4,
                          aggregator=agg, local_epochs=1, batch_size=1000)
        new_state, _, _ = run_round(state, users, [0, 1, 2, 3], ds, cfg_a, seed=0)
        outs[agg] = new_state.w
    assert np.array_equal(outs["fhefl"], outs["fedavg"])


def test_run_round_encrypted_matches_plain():
    cfg_plain = _tiny_cfg(n_users=4, roster_size=4, attacker_fraction=0.25,
                          mode="plain")
    cfg_enc = _tiny_cfg(n_users=4, roster_size=4, attacker_fraction=0.25,
                        mode="encrypted", preset="test-1024")
    (sp, mp, _), (se, me, _) = _single_round(cfg_plain), _single_round(cfg_enc)
    assert mp.roster == me.roster
    rel = np.linalg.norm(se.w - sp.w) / np.linalg.norm(sp.w)
    assert rel < 1e-2
    assert np.allclose(me.rates, mp.rates, atol=1e-6)


def test_run_round_encrypted_mlp():
    # the encrypted round carries every MLP weight, both layers
    kw = dict(architecture="mlp", hidden_units=4, n_users=4, roster_size=4,
              attacker_fraction=0.25)
    cfg_plain = _tiny_cfg(mode="plain", **kw)
    cfg_enc = _tiny_cfg(mode="encrypted", preset="test-1024", **kw)
    (sp, mp, _), (se, me, _) = _single_round(cfg_plain), _single_round(cfg_enc)
    rel = np.linalg.norm(se.w - sp.w) / np.linalg.norm(sp.w)
    assert rel < 1e-2
    assert np.allclose(me.dists, mp.dists, rtol=1e-9)


def test_malicious_rates_fall_below_uniform():
    """After a few warm-up rounds every malicious user is weighted below the
    uniform 1/roster share."""
    cfg = _tiny_cfg(n_users=30, roster_size=10, attacker_fraction=0.2,
                    attacker_epochs=8, rounds=12, n_train=900, spread=0.5,
                    eta=0.1)
    history, _ = run_experiment(cfg, seed=0)
    mal_rates = [
        rate
        for m in history[5:]
        for role, rate in zip(m.roles, m.rates)
        if role == "malicious"
    ]
    assert mal_rates, "attack rounds must actually contain attackers"
    assert max(mal_rates) < 1.0 / cfg.roster_size


def test_run_experiment_validates_its_config():
    # a config the CLI refuses is refused by the library too, before any
    # data is loaded: an encrypted baseline would run in the clear, a zero
    # batch size would die in the training loop and zero rounds on reading
    # the last round; only the 20% attacker cap is lifted
    for bad in (
        _tiny_cfg(mode="encrypted", aggregator="krum", rounds=2),
        _tiny_cfg(batch_size=0),
        _tiny_cfg(rounds=0),
    ):
        with pytest.raises(ParameterError):
            run_experiment(bad, seed=0)
    history, _ = run_experiment(_tiny_cfg(attacker_fraction=0.5, rounds=1), seed=0)
    assert len(history) == 1


def test_epsilon_stop_rule():
    cfg = _tiny_cfg(rounds=6, eta=0.0, epsilon=1e-9)
    history, summary = run_experiment(cfg, seed=0)
    # zero learning rate freezes the model, so the stop rule fires immediately
    assert summary["rounds_run"] == 1
    cfg_off = _tiny_cfg(rounds=6, eta=0.0, epsilon=0.0)
    history_off, _ = run_experiment(cfg_off, seed=0)
    assert len(history_off) == 6  # epsilon=0 keeps the fixed round count


# ---------------------------------------------------------------------------
# experiment artifacts
# ---------------------------------------------------------------------------


def test_metrics_csv_layout_and_determinism():
    cfg = _tiny_cfg(rounds=4)
    history, _ = run_experiment(cfg, seed=1)
    text = metrics_csv_text(history, cfg.n_classes)
    lines = text.strip().split("\n")
    assert lines[0].startswith("epoch,accuracy,aasr,")
    assert "acc_class_0" in lines[0] and "rates" in lines[0]
    assert len(lines) == 1 + 4
    assert "train_s" not in lines[0]  # wall-clock stays out of the CSV
    history2, _ = run_experiment(cfg, seed=1)
    assert metrics_csv_text(history2, cfg.n_classes) == text


def test_run_experiment_suite_writes_artifacts(tmp_path):
    cfg = _tiny_cfg(rounds=3, seeds=(0, 1))
    out = run_experiment_suite(cfg, str(tmp_path))
    assert (tmp_path / "metrics_seed0.csv").exists()
    assert (tmp_path / "metrics_seed1.csv").exists()
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert summary == out
    assert len(summary["per_seed"]) == 2
    assert 0.0 <= summary["aggregate"]["mean_final_accuracy"] <= 1.0
    assert "mean_aasr_last10" in summary["aggregate"]
    assert summary["per_seed"][0]["timings_s"]["train_s"] >= 0.0
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


def test_simconfig_validation_and_loading(tmp_path):
    with pytest.raises(ParameterError, match="aggregator"):
        SimConfig(aggregator="mean").validate()
    with pytest.raises(ParameterError, match="mode"):
        SimConfig(mode="hybrid").validate()
    with pytest.raises(ParameterError, match="preset"):
        SimConfig(preset="toy").validate()
    with pytest.raises(ParameterError, match="roster"):
        SimConfig(n_users=4, roster_size=9).validate()
    with pytest.raises(ParameterError, match="threat"):
        SimConfig(attacker_fraction=0.4).validate()
    SimConfig(attacker_fraction=0.4).validate(override_attacker_cap=True)

    good = tmp_path / "cfg.json"
    good.write_text(json.dumps({"rounds": 7, "seeds": [3, 4], "eta": 0.05}))
    cfg = SimConfig.from_json(str(good))
    assert cfg.rounds == 7 and cfg.seeds == (3, 4) and cfg.eta == 0.05

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"learning_rate": 0.1}))
    with pytest.raises(ParameterError, match="unknown config keys"):
        SimConfig.from_json(str(bad))
    # encrypt_layers is no option: a config that sets it is refused
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"mode": "encrypted", "encrypt_layers": "all"}))
    with pytest.raises(ParameterError, match="unknown config keys"):
        SimConfig.from_json(str(old))

    # an int is a float, and attacker_epochs alone takes null
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps({"eta": 1, "spread": 2, "attacker_epochs": None}))
    cfg = SimConfig.from_json(str(loose))
    assert (cfg.eta, cfg.spread, cfg.attacker_epochs) == (1, 2, None)
    # every field's default, written as JSON, reads back
    defaults = tmp_path / "defaults.json"
    defaults.write_text(json.dumps(asdict(SimConfig(attacker_epochs=3))))
    assert SimConfig.from_json(str(defaults)) == SimConfig(attacker_epochs=3)


@pytest.mark.parametrize("kw", [{"aggregator": a} for a in AGGREGATORS]
                         + [{"roster_size": 1}], ids=[*AGGREGATORS, "roster_size=1"])
def test_encrypted_mode_is_the_fhefl_round_on_a_roster_of_two_or_more(kw):
    # the baselines run in plain mode only, and one user has no one to mask with
    SimConfig(mode="plain", **kw).validate()
    with pytest.raises(ParameterError, match="encrypted mode"):
        SimConfig(mode="encrypted", **kw).validate()
    SimConfig(mode="encrypted", roster_size=2).validate()


@settings(deadline=None, max_examples=15)
@given(
    b=st.integers(min_value=1, max_value=40),
    m=st.integers(min_value=1, max_value=40),
    g=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
def test_corollary_threshold_nonnegative_property(b, m, g):
    if b < m:
        with pytest.raises(ParameterError):
            corollary_threshold(b, m, g)
    else:
        assert corollary_threshold(b, m, g) >= 0.0
