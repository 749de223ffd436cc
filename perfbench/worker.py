"""One benchmark process: a fresh interpreter that imports freqwalk,
builds one workload's inputs, and (unless --setup-only) runs timed passes
for --seconds, checks every output and prints one JSON result line.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS/OpenMP thread counts pinned to 1.  --t0 is run.py's time.monotonic()
just before the start, so setup_s counts interpreter start-up too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(HERE, ".work")
# A pass is timed in stretches of at least this many seconds of work, each
# scaled by the machine-speed calibrations at its ends (calibrate.py).
STRETCH_S = 0.05


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(workload, seed: int) -> dict:
    import numpy as np

    from run import THREAD_PINS

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload.name,
        "seed": seed,
        "params": workload.params,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "commit": git_commit(),
    }


def measure(workload, inputs: dict, seconds: float, trace: bool) -> dict:
    from calibrate import Calibrated
    from workloads import load_reference

    reference = load_reference(workload.name)
    counts = {"attempted": 0, "failed": 0}
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()

    def one_pass(traced: bool) -> tuple | None:
        """(raw, calibrated) seconds of one pass, None if it raised."""
        clock = Calibrated()
        outputs = {}
        if traced:
            tracer.install()
        try:
            for key, fn, args in inputs["tasks"]:
                start = time.perf_counter()
                outputs[key] = fn(*args)
                clock.add(time.perf_counter() - start)
                if clock.pending_s >= STRETCH_S:
                    clock.mark()
            clock.mark()
            elapsed = clock.raw_s, clock.scaled_s
        except Exception:
            traceback.print_exc()
            elapsed = None
        finally:
            if traced:
                tracer.uninstall()
        for key, _, _ in inputs["tasks"]:
            counts["attempted"] += 1
            try:
                ok = key in outputs and workload.check(key, outputs[key], reference[key])
            except Exception:
                traceback.print_exc()
                ok = False
            counts["failed"] += not ok
        return elapsed

    one_pass(False)  # warm-up: lazy imports and FFT plans, checked but not timed
    plain, traced = [], []
    turns = 0
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced passes
        turn_traced = trace and turns % 2 == 1
        elapsed = one_pass(turn_traced)
        if elapsed is not None:
            (traced if turn_traced else plain).append(elapsed)
        turns += 1
        if time.perf_counter() - start >= seconds and turns >= 1 + trace:
            break

    result = dict(counts, wall_samples=plain)
    if trace:
        from spans import layer_metrics

        passes = max(len(traced), 1)
        overhead = (statistics.median(s for _, s in traced)
                    - statistics.median(s for _, s in plain)
                    if traced and plain else 0.0)
        result["per_layer"] = layer_metrics(tracer, passes, overhead)
        result["traced_wall_samples"] = traced
        os.makedirs(WORK_DIR, exist_ok=True)
        tracer.write(os.path.join(WORK_DIR, f"spans-{workload.name}.json"))
    else:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    try:
        inputs = workload.setup(args.seed, workdir)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            result = measure(workload, inputs, args.seconds, bool(args.trace))
            result["setup_s"] = setup_s
            result["provenance"] = provenance(workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
