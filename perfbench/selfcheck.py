"""Fast self-check of the benchmark harness at the test-16 preset.

    python3 perfbench/selfcheck.py

Runs one round of each workload's shape, untraced and traced, and checks
that every metric BENCHMARK.json names is emitted with its unit, that every
round passes the oracle and every trace check holds, and that the oracle
gate fires when an opened value is corrupted.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

from run import ROOT, import_fhefl, thread_settings

SHAPES = {
    "prod-16384": {"roster": 10, "dim": 8},
    "desk-1024": {
        "roster": 4,
        "desk_overrides": {
            "n_features": 5, "n_classes": 3, "attack_target": 2,
            "n_users": 20, "n_train": 400, "n_test": 100,
        },
    },
    "roster-64": {"roster": 16, "dim": 8},
}


def small(workloads, name):
    """The workload's shape at test-16: same code path, tiny sizes."""
    w = workloads.WORKLOADS[name]
    shape = dict(SHAPES[name])
    overrides = shape.pop("desk_overrides", None)
    if overrides is not None:
        shape["desk"] = {**w.desk, **overrides}
    return replace(w, preset="test-16", **shape)


def main() -> int:
    thread_settings(len(os.sched_getaffinity(0)))
    import_fhefl()
    import workloads
    from fhefl import aggregation

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    for name in [w["name"] for w in spec["workloads"]]:
        w = small(workloads, name)
        for traced in (False, True):
            s, tracer = workloads.measure(w, seed=0, seconds=1e-9, traced=traced)
            if traced:
                got = workloads.per_layer(w, s, tracer)
            else:
                got = workloads.end_to_end(s)
            units = {k: u for k, (_, u, _) in got.items()}
            label = f"{name} trace={int(traced)}"
            if units != want[traced]:
                diff = sorted(set(units.items()) ^ set(want[traced].items()))
                errors.append(f"{label}: metrics or units differ from BENCHMARK.json: {diff}")
            if s.failed or s.problems:
                errors.append(f"{label}: {s.failed}/{s.attempted} rounds failed; {s.problems}")
            print(f"{label}: {s.attempted} rounds, {len(got)} metrics")

    original = aggregation.combine_partials

    def corrupted(*args, **kwargs):
        return original(*args, **kwargs) + 1.0

    aggregation.combine_partials = corrupted
    try:
        s, _ = workloads.measure(small(workloads, "prod-16384"), seed=0, seconds=1e-9, traced=False)
    finally:
        aggregation.combine_partials = original
    if s.failed != s.attempted:
        errors.append(f"oracle gate missed a corrupted opened value ({s.failed}/{s.attempted} failed)")
    print(f"corrupted opening: {s.failed}/{s.attempted} rounds failed the gate")

    for e in errors:
        print("FAIL", e, file=sys.stderr)
    print("selfcheck", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
