"""Harness smoke check.

    python3 perfbench/smoke.py

Runs every workload for the shortest run run.py allows (one warm-up and
one timed pass; a traced run adds one traced pass), untraced and traced,
and asserts that the result line carries exactly the metrics
BENCHMARK.json names, each with its unit, and that no output failed its
check (fail_frac 0).  Then runs the benchmark in a directory holding only
BENCHMARK.json and perfbench/, where it must fail without a result line.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root: str, *args: str, stderr=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root,
        stdout=subprocess.PIPE, stderr=stderr, text=True, timeout=180,
    )


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0",
               "--trace", str(trace))
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{workload} trace {trace}: metrics differ from BENCHMARK.json"
    for name, m in result["metrics"].items():
        value = m["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
    print(f"ok  {workload:14s} trace {trace}  {len(got)} metrics, "
          f"fail_frac 0 of {result['attempted']}")


def check_refuses_without_program() -> None:
    bare = os.path.join(HERE, ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run(bare, "--workload", "gates", "--seed", "0", "--seconds", "1",
                   "--trace", "0", stderr=subprocess.PIPE)
        assert proc.returncode != 0, "ran without the program"
        assert '"correct"' not in proc.stdout, "printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without src/freqwalk")


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, HERE)
    from run import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_refuses_without_program()


if __name__ == "__main__":
    main()
