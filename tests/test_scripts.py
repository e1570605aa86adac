"""Smoke runs of the scripts under scripts/, so a rename in ``fhefl`` that
breaks one of them fails here."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize(
    "name, argv",
    [
        ("encrypted_round_demo", ["--preset", "test-16", "--dim", "4", "--users", "3"]),
        (
            "attack_sweep",
            ["--rounds", "1", "--seeds", "0", "--fractions", "0.2",
             "--aggregators", "fhefl", "fedavg"],
        ),
    ],
)
def test_script_runs(name, argv, capsys):
    assert _main(name)(argv) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, what",
    [
        (["--fractions", "0.3", "--aggregators", "fedavg"], "20% threat model"),
        (["--fractions", "0.0", "0.2", "--aggregators", "fedavg", "nope"], "unknown aggregator"),
    ],
)
def test_attack_sweep_refuses_a_bad_cell_before_running_any(argv, what, capsys):
    assert _main("attack_sweep")(["--rounds", "1", "--seeds", "0", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and what in captured.err
