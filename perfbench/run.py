"""fhefl benchmark: one encrypted norm-weighted round, end to end and per layer.

    python3 perfbench/run.py --workload prod-16384 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``.  ``--trace 0`` reports the end-to-end metrics with tracing off,
``--trace 1`` the per-layer metrics from a traced run (spans are written to
``perfbench/traces/``).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the environment stamp and each metric's sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("prod-16384", "desk-1024", "roster-64")
# Worker-thread settings of fhefl and of the BLAS/OpenMP runtimes.  Workloads
# run in one process with one worker, so each defaults to 1.
THREAD_VARS = (
    "FHEFL_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def fail(msg: str, code: int = 2) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def thread_settings(nproc: int) -> dict:
    """Default every thread setting to 1; refuse more threads than cores."""
    settings = {}
    for var in THREAD_VARS:
        raw = os.environ.setdefault(var, "1")
        try:
            value = int(raw)
        except ValueError:
            raise SystemExit(fail(f"{var}={raw!r} is not a thread count"))
        if not 1 <= value <= nproc:
            raise SystemExit(fail(f"{var}={value} outside 1..nproc ({nproc})"))
        settings[var] = value
    if settings["FHEFL_THREADS"] != 1:
        raise SystemExit(fail("the workloads are defined with FHEFL_THREADS=1"))
    return settings


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_fhefl():
    """Import fhefl from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import fhefl
    except ImportError as exc:
        raise SystemExit(fail(f"cannot import fhefl from {ROOT / 'src'}: {exc}", 1))
    where = Path(fhefl.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise SystemExit(fail(f"fhefl imported from {where}, not from this checkout", 1))
    return fhefl


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    nproc = len(os.sched_getaffinity(0))
    threads = thread_settings(nproc)
    fhefl = import_fhefl()
    import numpy as np

    import workloads

    env = {
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "fhefl": fhefl.__version__,
        "git_sha": git_sha(),
        "threads": threads,
    }
    print(json.dumps({"env": env}))

    w = workloads.WORKLOADS[args.workload]
    samples, tracer = workloads.measure(w, args.seed, args.seconds, bool(args.trace))
    if samples.attempted == samples.failed:
        return fail(f"all {samples.attempted} rounds failed", 1)
    if tracer is not None:
        if not samples.round_s or not samples.traced_round_s:
            return fail("no untraced baseline round or no traced round completed", 1)
        metrics = workloads.per_layer(w, samples, tracer)
        (HERE / "traces").mkdir(exist_ok=True)
        tracer.save(HERE / "traces" / f"{args.workload}-seed{args.seed}.npz")
    else:
        metrics = workloads.end_to_end(samples)
        rounds = samples.round_s
        if len(rounds) >= 3:
            later = sorted(rounds[1:])[len(rounds[1:]) // 2]
            print(f"# first round_s / median of later rounds = {rounds[0] / later:.3f}")
    for name, (value, unit, n) in metrics.items():
        print(f"# {name:<42} {value:>16.6g} {unit:<6} n={n}")
    for problem in samples.problems:
        print(f"# FAILED {problem}")
    print(f"# error_rate = {samples.failed}/{samples.attempted}")
    print(
        json.dumps(
            {
                "correct": samples.failed == 0 and not samples.problems,
                "attempted": samples.attempted,
                "failed": samples.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
