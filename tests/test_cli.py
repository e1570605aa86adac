"""CLI behaviour: output contracts, exit codes, artifact writing."""

import json

import pytest

from fhefl.cli import main
from fhefl.simulation import SimConfig


def test_params_prints_layout(capsys):
    assert main(["params", "--preset", "test-1024"]) == 0
    out = capsys.readouterr().out
    assert "1024" in out
    assert "slot capacity" in out and "512" in out
    assert "toy" in out  # test presets carry no security claim


def test_params_production_logq(capsys):
    assert main(["params", "--preset", "fhefl-8192"]) == 0
    out = capsys.readouterr().out
    assert "8192" in out and "218" in out and "128-bit" in out

    assert main(["params", "--preset", "fhefl-16384"]) == 0
    out = capsys.readouterr().out
    assert "16384" in out and "438" in out


def test_params_rejects_unknown_preset():
    with pytest.raises(SystemExit) as exc:
        main(["params", "--preset", "huge"])
    assert exc.value.code == 2


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bench_is_an_unknown_subcommand(capsys):
    # perfbench/run.py is the one timing path; the CLI keeps no second one
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def _write_tiny_config(path, **extra):
    cfg = {
        "n_features": 6,
        "n_train": 240,
        "n_test": 120,
        "n_classes": 3,
        "spread": 1.5,
        "n_users": 8,
        "roster_size": 4,
        "attacker_fraction": 0.0,
        "attack_source": 0,
        "attack_target": 2,
        "eta": 0.2,
        "local_epochs": 1,
        "batch_size": 16,
        "rounds": 2,
        "seeds": [0, 1],
    }
    cfg.update(extra)
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_writes_artifacts(tmp_path, capsys):
    cfg = _write_tiny_config(tmp_path / "cfg.json")
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "metrics_seed0.csv").exists()
    assert (out / "metrics_seed1.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["per_seed"]) == 2
    stdout = capsys.readouterr().out
    assert "mean final accuracy" in stdout
    assert "round   0" in stdout  # per-round progress lines by default


def test_simulate_quiet_suppresses_progress(tmp_path, capsys):
    cfg = _write_tiny_config(tmp_path / "cfg.json")
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert "round   0" not in capsys.readouterr().out


def test_simulate_missing_config_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_simulate_seed_and_aggregator_overrides(tmp_path):
    cfg = _write_tiny_config(tmp_path / "cfg.json")
    out = tmp_path / "runs"
    rc = main(
        ["simulate", "--config", str(cfg), "--seed", "7",
         "--aggregator", "median", "--out", str(out)]
    )
    assert rc == 0
    assert (out / "metrics_seed7.csv").exists()
    assert not (out / "metrics_seed0.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["aggregator"] == "median"
    assert summary["config"]["seeds"] == [7]


def test_simulate_attacker_cap_enforced(tmp_path, capsys):
    cfg = _write_tiny_config(
        tmp_path / "cfg.json", attacker_fraction=0.5, attack_source=0
    )
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "threat" in capsys.readouterr().err
    rc = main(
        ["simulate", "--config", str(cfg), "--out", str(out),
         "--override-attacker-cap"]
    )
    assert rc == 0


def test_simulate_bad_config_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"learning_rate": 0.1}))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "r")]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw, what",
    [
        ([1, 2], "JSON object"),
        ("rounds", "JSON object"),
        ({"rounds": "3"}, "'rounds'"),
        ({"rounds": True}, "'rounds'"),
        ({"rounds": None}, "'rounds'"),
        ({"seeds": 3}, "'seeds'"),
        ({"seeds": [0, "1"]}, "'seeds'"),
        ({"seeds": [0, False]}, "'seeds'"),
        ({"eta": "0.5"}, "'eta'"),
        ({"preset": 1024}, "'preset'"),
        ({"pinned_roster": 1}, "'pinned_roster'"),
    ],
)
def test_simulate_refuses_config_values_of_the_wrong_type(tmp_path, capsys, raw, what):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and what in err[0]


@pytest.mark.parametrize(
    "key, value",
    [
        ("batch_size", 0),
        ("local_epochs", 0),
        ("local_epochs", -2),
        ("attacker_epochs", 0),
        ("n_train", 0),
        ("n_test", 0),
        ("n_features", 0),
        ("n_classes", 0),
        ("hidden_units", 0),
        ("eta", -0.1),
        ("eta", float("nan")),
        ("eta", float("inf")),
        ("epsilon", -1e-9),
        ("epsilon", float("nan")),
        ("spread", -0.5),
        ("spread", float("inf")),
    ],
)
def test_simulate_refuses_training_values_it_cannot_run(tmp_path, capsys, key, value):
    # json writes NaN and Infinity, and Python's reader takes them back
    cfg = _write_tiny_config(tmp_path / "cfg.json", **{key: value})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
    assert not (tmp_path / "r").exists()


def test_zero_step_and_zero_stop_threshold_stay_valid():
    SimConfig(eta=0.0, epsilon=0.0, attacker_epochs=1).validate()


def test_simulate_encrypted_tiny(tmp_path):
    cfg = _write_tiny_config(
        tmp_path / "cfg.json",
        rounds=1,
        seeds=[0],
        mode="encrypted",
        preset="test-1024",
        attacker_fraction=0.2,
    )
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["mode"] == "encrypted"
    assert 0.0 <= summary["per_seed"][0]["final_accuracy"] <= 1.0


def test_simulate_refuses_a_baseline_aggregator_in_encrypted_mode(tmp_path, capsys):
    cfg = _write_tiny_config(tmp_path / "cfg.json")
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "r"),
            "--mode", "encrypted", "--aggregator", "krum"]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "encrypted mode" in err[0]
    assert not (tmp_path / "r").exists()


def test_simulate_refuses_an_attack_class_outside_the_dataset(tmp_path, capsys):
    cfg = _write_tiny_config(tmp_path / "cfg.json", attack_source=12, attacker_fraction=0.2)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "attack class 12" in err[0]


def test_mult_relin_cost_grows_with_ring_size():
    import time

    import numpy as np

    from fhefl.he import (EvalKey, SecretKey, common_poly, encrypt, get_params,
                          he_mult_relin)

    means = {}
    for preset in ("test-1024", "fhefl-16384"):
        params = get_params(preset)
        rng = np.random.default_rng(0)
        sk = SecretKey.generate(params, seed=b"t")
        evk = EvalKey.generate(params, sk, rng)
        a = common_poly(params, seed=b"a")
        ct = encrypt(params, [1.0, 2.0], sk, a, rng)
        t0 = time.perf_counter()
        for _ in range(3):
            he_mult_relin(ct, ct, evk)
        means[preset] = (time.perf_counter() - t0) / 3
    assert means["test-1024"] < means["fhefl-16384"]


def test_check_bound_json(capsys):
    rc = main(
        ["check-bound", "--benign", "8", "--malicious", "2",
         "--g-sq", "1.0", "--z-sq", "2.0"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["threshold"] == pytest.approx(54 / 14)
    assert report["satisfied"] is True

    rc = main(
        ["check-bound", "--benign", "8", "--malicious", "2",
         "--g-sq", "1.0", "--z-sq", "4.0"]
    )
    report = json.loads(capsys.readouterr().out)
    assert report["satisfied"] is False


def test_check_bound_degenerate_exits_2(capsys):
    rc = main(["check-bound", "--benign", "8", "--malicious", "0", "--g-sq", "1.0"])
    assert rc == 2
    assert "malicious" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--g-sq", "nan"), ("--g-sq", "inf"), ("--z-sq", "nan"), ("--z-sq", "inf"),
     ("--z-sq", "-5"), ("--g-sq", "1e308")],
)
def test_check_bound_refuses_values_it_cannot_use(flag, value, capsys):
    # Z^2 is a squared gap and G^2 a squared norm: neither is negative or
    # infinite, and a threshold that overflows is no JSON number either
    argv = ["check-bound", "--benign", "100", "--malicious", "2", "--g-sq", "1.0"]
    argv += [flag, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
