"""The names the benchmark harness under perfbench/ reaches into.

The traced run wraps every ``perfbench/tracer.py`` TARGETS entry, replaces
``aggregation._stage`` to time the pipeline stages, and rebuilds presets by
dropping their ``he._PRESET_CACHE`` entry.  A refactor that renames or drops
any of them breaks the benchmark, so this checks that each one resolves and
that the tracer installs and uninstalls cleanly and records the wire size of
each key share, that a preset rebuilt during set-up leaves the round's
per-layer call counts alone, and that the upload size the benchmark reports
counts each ciphertext of an upload once.  Only files under perfbench/ are
read; nothing there is run beyond importing the tracer and the workloads and
calling ``workloads.upload_bytes``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from fhefl import aggregation, he, multikey

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


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


def test_tracer_records_the_wire_size_of_each_key_share(tracer):
    # multikey.*_bytes_per_user are these sizes: each share's whole record,
    # header included, as its reader takes it
    params = he.get_params("test-16")
    rings = multikey.setup_pairwise(params, [0, 1], 0, b"hooks")
    a = he.common_poly(params, b"hooks-a", level=1)
    t = tracer.Tracer()
    try:
        t.install()
        mk = multikey.mask_key(rings[0], [0, 1])
        pd = multikey.masked_partial_decrypt(rings[0], a, b"t", [0, 1], np.random.default_rng(0))
    finally:
        t.uninstall()
    spans = t.arrays()
    sizes = {t.names[i]: int(size) for i, size in zip(spans["name"], spans["size"])}
    assert sizes["multikey.mask_key"] == len(mk.to_bytes())
    assert sizes["multikey.masked_partial_decrypt"] == len(pd.to_bytes())
    assert multikey.MaskedKey.from_bytes(mk.to_bytes(), params) == mk
    assert multikey.PartialDecryption.from_bytes(pd.to_bytes(), params) == pd


def _traced_round(tracer, rebuild: bool, dim: int = 4):
    """Spans of one 2-user test-16 round of a dim-long model (round id 0),
    after a set-up (round id SETUP_ROUND) that provisions keys and, with
    ``rebuild``, first builds the preset from scratch as
    ``perfbench/workloads.fresh_params`` does.  Returns the tracer and the
    span range of the rebuild."""
    cached = he.get_params("test-16")
    t = tracer.Tracer()
    rng = np.random.default_rng(7)
    grads, w_prev = rng.uniform(-1.0, 1.0, (2, dim)), rng.uniform(-1.0, 1.0, dim)
    try:
        t.install()
        t.round_id = tracer.SETUP_ROUND
        start = len(t.start)
        if rebuild:
            he._PRESET_CACHE.pop("test-16", None)
            assert he.get_params("test-16") is not cached
        stop = len(t.start)
        params = he.get_params("test-16")
        rings = multikey.setup_pairwise(params, [0, 1], 0, b"hooks-round")
        t.round_id = 0
        a = he.common_poly(params, seed=b"hooks-round|a")
        enc = {u: aggregation.encrypt_update(rings[u], g, a, rng) for u, g in enumerate(grads)}
        aggregation.secure_aggregate_round(enc, rings, w_prev, 0.1, rng, round_tag=b"hooks-round")
    finally:
        t.uninstall()
        he._PRESET_CACHE["test-16"] = cached
    return t, slice(start, stop)


def test_preset_rebuild_stays_out_of_the_traced_round(tracer):
    # building a preset's tables runs the traced ntt.mont_mul; those spans
    # belong to set-up, and the round's call counts do not see them
    rebuilt, span = _traced_round(tracer, rebuild=True)
    plain, _ = _traced_round(tracer, rebuild=False)
    spans = rebuilt.arrays()
    mont = spans["name"][span] == rebuilt.names.index("ntt.mont_mul")
    assert mont.any()
    assert set(spans["round"][span][mont]) == {tracer.SETUP_ROUND}
    got = tracer.layer_metrics(spans, rebuilt.names, 2)
    want = tracer.layer_metrics(plain.arrays(), plain.names, 2)
    for base in tracer.CALL_METRICS:
        assert got[base + ".calls"] == want[base + ".calls"], base
    assert got["ntt.mont_mul.calls"][0] > 0


def test_every_reported_layer_runs_in_a_traced_round(tracer):
    # the benchmark's traced run of a server workload fails on any reported
    # metric that reads zero, bar the two simulation timers, and on a pair-mask
    # count other than U * (U - 1) * (2 + chunks), here at one chunk (dim 4)
    # and two (dim 12, of capacity 8); an upload is one batched he.encrypt
    # call, so each user's upload counts once
    idle = {"simulation.local_train.s", "simulation.eval.s"}
    for dim, chunks in ((4, 1), (12, 2)):
        t, _ = _traced_round(tracer, rebuild=False, dim=dim)
        got = tracer.layer_metrics(t.arrays(), t.names, 2)
        assert idle < set(got)
        for metric, (value, _) in got.items():
            assert metric in idle or value > 0, (dim, metric)
        assert got["multikey.pair_masks"][0] == 2 * 1 * (2 + chunks), dim
        assert got["he.encrypt.calls"][0] == 2, dim


def test_upload_bytes_reads_each_ciphertext_once(tracer, monkeypatch):
    # upload_bytes_per_user is workloads.upload_bytes of one real upload:
    # every ciphertext the upload holds is written once, and the total is
    # their records' size (the desk shape: two chunks at test-1024)
    monkeypatch.setitem(sys.modules, "tracer", tracer)  # workloads imports it by name
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    params = he.get_params("test-1024")
    rings = multikey.setup_pairwise(params, [0, 1], 0, b"hooks-upload")
    a = he.common_poly(params, seed=b"hooks-upload|a")
    rng = np.random.default_rng(5)
    eu = aggregation.encrypt_update(rings[0], rng.uniform(-1.0, 1.0, 650), a, rng)
    written, real = [], he.ciphertext_to_bytes

    def counting(ct):
        written.append(ct)
        return real(ct)

    monkeypatch.setattr(he, "ciphertext_to_bytes", counting)
    total = workloads.upload_bytes(rings[0], eu, params)
    assert len(written) == len(eu.chunks) == 2
    assert all(x is y for x, y in zip(written, eu.chunks))
    assert total == sum(len(real(ct)) for ct in eu.chunks)
