"""Write the stored reference outputs, reference/<workload>.json.gz.

    PYTHONPATH=src python3 perfbench/make_reference.py

The references are the outputs of the code they were generated from;
regenerate them only when a change is meant to alter results beyond
round-off, and say so.  Before writing the walk references, each walk is
also run on the other engine: the final amplitudes must agree within
1e-8 (acceptance criterion 8) and the other engine's curve must pass the
workload's own check, so either engine is accepted as correct.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import numpy as np

import freqwalk as fw
from workloads import (
    PREP_PHI1, PREP_PHI2, README_COMMANDS, RZ_ANGLES, WORKLOADS, Gates, as_floats,
    read_output, save_reference,
)

ENGINE_AGREEMENT = 1e-8
# Values below this are stored as 0: the check's tolerance there is
# 1e-12 absolute, so the stored digits of FFT round-off noise carry no
# information and only bloat the file.
NOISE_FLOOR = 1e-15


def walk_reference(walk) -> dict:
    [(_, _, (state, params, steps, _))] = walk.setup(0, "")["tasks"]
    other = "direct" if walk.engine == "spectral" else "spectral"
    finals = {}
    for engine in (walk.engine, other):
        traj = fw.evolve(state, params, n_steps=steps, engine=engine,
                         record=("diffusion", "state"))
        finals[engine] = (traj.series("diffusion"), traj.records[-1]["state"].amp)
    curve = finals[walk.engine][0]
    diff = float(np.max(np.abs(finals[walk.engine][1] - finals[other][1])))
    if diff >= ENGINE_AGREEMENT:
        sys.exit(f"{walk.name}: engines disagree by {diff:.2e}")
    if not walk.check("diffusion", finals[other][0], curve.tolist()):
        sys.exit(f"{walk.name}: the {other} engine fails the workload's check")
    print(f"{walk.name}: engines agree to {diff:.2e} in amplitude")
    return {"diffusion": curve.tolist()}


def gates_reference() -> dict:
    n_prep = len(PREP_PHI1) * len(PREP_PHI2)
    jobs = Gates.jobs(list(range(len(RZ_ANGLES))), list(range(n_prep)))
    return {key: as_floats(fn(*args)).tolist() for key, fn, args in jobs}


def readme_reference() -> dict:
    from freqwalk import cli

    workdir = tempfile.mkdtemp()
    try:
        ref = {}
        for name, argv, fname, text_columns in README_COMMANDS:
            path = os.path.join(workdir, fname)
            if cli.main(argv + ["--out", path]) != 0:
                sys.exit(f"readme: {name} failed")
            out = read_output(path, text_columns)
            if out["kind"] == "csv":
                numbers = out["numbers"]
                numbers[np.abs(numbers) < NOISE_FLOOR] = 0.0
                out["numbers"] = numbers.tolist()
            ref[name] = out
        return ref
    finally:
        shutil.rmtree(workdir)


def main() -> None:
    refs = {
        "walk-spectral": lambda: walk_reference(WORKLOADS["walk-spectral"]),
        "walk-direct": lambda: walk_reference(WORKLOADS["walk-direct"]),
        "gates": gates_reference,
        "readme": readme_reference,
    }
    for name in sys.argv[1:] or refs:
        print("wrote", save_reference(name, refs[name]()))


if __name__ == "__main__":
    main()
