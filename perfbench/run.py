"""freqwalk benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py            # every workload, untraced then traced

Runs from the root of a checkout and imports freqwalk from its src/.
Each workload runs in fresh interpreters (worker.py) with BLAS/OpenMP
threads pinned to 1:

* setup_s: median over SETUP_SAMPLES fresh interpreters of the time from
  process start to freqwalk imported and the workload's inputs built;
* wall_s: median time of one pass, over the passes that fit in --seconds
  (after one untimed warm-up pass);
* both times are calibrated to a reference machine speed (setup_s by the
  start-up time of a bare interpreter, wall_s by calibrate.py); the raw
  medians are printed next to them;
* peak_rss_mb: peak resident memory of the process that ran the passes;
* every output of every pass is checked against reference/; the result's
  `failed` / `attempted` is the workload's fail_frac.

With --trace 1 the passes alternate untraced and traced, and the result
holds the per-layer metrics of spans.py instead.  Human-readable lines
come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("walk-spectral", "walk-direct", "gates", "readme")
SETUP_SAMPLES = 7
# bare_start() on an unloaded 2-CPU x86_64 machine (python 3.11, numpy
# 2.4), where the benchmark was defined: setup_s is in seconds at that speed
BARE_START_S = 0.095
# A run must end within 180 s: --seconds bounds the passes, and every
# child process is killed when the run's deadline passes.
DEADLINE_S = 170
RAW, CALIBRATED = 0, 1  # columns of a (raw, calibrated) timing sample
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def child(argv: list[str], deadline: float) -> str:
    """Stdout of a child interpreter that must finish before `deadline`."""
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[:3]} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[:3]} exited with {proc.returncode}")
    return proc.stdout


def spawn(args: list[str], deadline: float) -> dict:
    t0 = time.monotonic()
    out = child([WORKER, *args, "--t0", repr(t0)], deadline)
    return json.loads(out.strip().splitlines()[-1])


def bare_start(deadline: float) -> float:
    """Seconds from starting a fresh interpreter to numpy imported."""
    t0 = time.monotonic()
    return float(child(["-c", "import time, numpy; print(time.monotonic())"],
                       deadline)) - t0


def setup_samples(common: list[str], deadline: float) -> list[tuple[float, float]]:
    """(raw, calibrated) set-up seconds of SETUP_SAMPLES fresh interpreters.

    Process start-up and imports slow down on a loaded machine by more
    than the compute kernel of calibrate.py shows, so each sample is
    scaled by bare_start() measured just before and just after it.
    """
    bare = [bare_start(deadline)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        raw = spawn(common + ["--setup-only"], deadline)["setup_s"]
        bare.append(bare_start(deadline))
        samples.append((raw, raw * BARE_START_S / (0.5 * (bare[-2] + bare[-1]))))
    return samples


def median(samples: list, column: int) -> float:
    return statistics.median(s[column] for s in samples)


def tail(samples: list[float]) -> str:
    """The highest percentile with at least 10 samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"n={n}, too few samples for a tail with 10 beyond it"
    k = n - 10
    return f"p{100 * k / n:.0f} {sorted(samples)[k - 1]:.4f} s (n={n}, 10 beyond)"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    setup = [] if trace else setup_samples(common, deadline)
    result = spawn(common + ["--seconds", str(seconds), "--trace", str(trace)],
                   deadline)
    if not result["wall_samples"]:
        raise BenchError(f"every pass of {workload} raised")
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": median(setup, CALIBRATED), "unit": "s"},
            "wall_s": {"value": median(result["wall_samples"], CALIBRATED), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    result["metrics"] = metrics
    result["setup_samples"] = setup
    return result


def print_run(workload: str, seed: int, trace: int, result: dict) -> None:
    print(f"workload {workload}  seed {seed}  trace {trace}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    walls = result["wall_samples"]
    if walls:
        print(f"  wall_s tail: {tail([s for _, s in walls])}; raw median"
              f" {median(walls, RAW):.4f} s")
    traced = result.get("traced_wall_samples")
    if traced:
        print(f"  traced wall_s median {median(traced, CALIBRATED):.4f} s"
              f" over {len(traced)} traced passes")
    if result["setup_samples"]:
        print(f"  setup_s over {len(result['setup_samples'])} fresh interpreters;"
              f" raw median {median(result['setup_samples'], RAW):.4f} s")
    print(f"  fail_frac {result['failed'] / result['attempted']:.6g}"
          f" ({result['failed']} of {result['attempted']} checked outputs failed)")
    print("  provenance " + json.dumps(result["provenance"], sort_keys=True))


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def print_shares(workload: str, untraced: dict, traced: dict) -> None:
    """Traced self time per layer as a share of the mean traced pass, next
    to whether the notes predict the layer moves wall_s on this workload."""
    from spans import TARGETS

    walls = traced["traced_wall_samples"]
    wall = statistics.fmean(s[RAW] for s in walls)  # self_s is a raw mean too
    print(f"layer shares on {workload} (mean raw traced pass {wall:.4f} s)")
    print(f"  {'span':28s} {'self_s/pass':>12s} {'share':>7s}  predicted to move wall_s")
    rows = []
    for t in TARGETS:
        self_s = traced["per_layer"].get(f"{t.span}.self_s", {}).get("value")
        if self_s:
            rows.append((self_s, t.span, workload in t.moves))
    for self_s, span, predicted in sorted(rows, reverse=True):
        print(f"  {span:28s} {self_s:12.6f} {self_s / wall:7.1%}  "
              f"{'yes' if predicted else 'no'}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="ignored with --workload all, which runs both")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "freqwalk", "__init__.py")):
        print(f"error: no freqwalk package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print_run(args.workload, args.seed, args.trace, result)
            print(contract_line(result))
            return 0
        ok = True
        for workload in WORKLOADS:
            untraced = run_workload(workload, args.seed, args.seconds, 0)
            traced = run_workload(workload, args.seed, args.seconds, 1)
            print_run(workload, args.seed, 0, untraced)
            print_run(workload, args.seed, 1, traced)
            print_shares(workload, untraced, traced)
            print()
            ok &= untraced["failed"] == 0 and traced["failed"] == 0
        return 0 if ok else 1
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
