"""The names the benchmark harness under perfbench/ reaches into.

The traced run wraps every ``perfbench/tracer.py`` TARGETS entry, replaces
``aggregation._stage`` to time the pipeline stages, and rebuilds presets by
dropping their ``he._PRESET_CACHE`` entry.  A refactor that renames or drops
any of them breaks the benchmark, so this checks that each one resolves and
that the tracer installs and uninstalls cleanly.  Only files under
perfbench/ are read; nothing there is run beyond importing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fhefl import aggregation, he

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves(tracer):
    assert tracer.TARGETS
    for owner_path, attr, _, _ in tracer.TARGETS:
        mod_name, _, cls_name = owner_path.partition(":")
        owner = importlib.import_module(mod_name)
        if cls_name:
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), f"{owner_path}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr}"


def test_private_hooks_resolve():
    with aggregation._stage("norm"):
        pass
    assert isinstance(he._PRESET_CACHE, dict)
    he.get_params("test-16")
    assert "test-16" in he._PRESET_CACHE


def test_tracer_installs_and_uninstalls(tracer):
    originals = {
        (mod.__name__, attr): getattr(mod, attr)
        for mod, attr in (
            (aggregation, "masked_partial_decrypt"),
            (aggregation, "combine_partials"),
            (aggregation, "_stage"),
        )
    }
    t = tracer.Tracer()
    try:
        t.install()
        for (mod_name, attr), orig in originals.items():
            assert getattr(importlib.import_module(mod_name), attr) is not orig
    finally:
        t.uninstall()
    for (mod_name, attr), orig in originals.items():
        assert getattr(importlib.import_module(mod_name), attr) is orig
