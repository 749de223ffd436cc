"""The four benchmark workloads.  `setup(seed, workdir)` builds a pass as a
list of (output key, function, arguments) tasks; `check` compares each
output with the reference stored in `reference/<workload>.json.gz`.

Every freqwalk call goes through a module attribute looked up at call
time (`fw.evolve`, `cli.main`), so the traced run sees the wrappers that
`spans.py` installs in those namespaces.
"""

from __future__ import annotations

import gzip
import json
import math
import os

import numpy as np

import freqwalk as fw
from freqwalk import cli

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# The paper's strong-modulation operating point (README band command).
THETA = -0.5 * math.pi
PHI_H = 0.0
PHI_V = 0.75 * math.pi

# Outputs are compared as numbers, |out - ref| <= rtol * max(|ref|, 1), so
# a change that only moves round-off passes.  The walks get the looser
# bound because the two engines, which share no numerics, must both pass
# it (make_reference.py checks that they do).
RTOL = 1e-12
WALK_RTOL = 1e-9


def modulation(gamma: float) -> fw.ModulationParams:
    return fw.ModulationParams(gamma=gamma, phi_h=PHI_H, phi_v=PHI_V, theta=THETA)


def as_floats(value) -> np.ndarray:
    """Real array view of a result; complex entries become (re, im) pairs."""
    arr = np.asarray(value)
    if np.iscomplexobj(arr):
        return np.stack([arr.real, arr.imag], axis=-1)
    return arr.astype(float)


def close(out, ref, rtol: float = RTOL) -> bool:
    out, ref = as_floats(out), np.asarray(ref, dtype=float)
    if out.shape != ref.shape:
        return False
    return bool(np.all(np.abs(out - ref) <= rtol * np.maximum(np.abs(ref), 1.0)))


def load_reference(name: str) -> dict:
    with gzip.open(os.path.join(REFERENCE_DIR, f"{name}.json.gz"), "rt") as fh:
        data = json.load(fh)
    for value in data.values():  # convert large tables once, not per check
        if isinstance(value, dict) and value.get("kind") == "csv":
            value["numbers"] = np.asarray(value["numbers"], dtype=float)
    return data


def save_reference(name: str, data: dict) -> str:
    path = os.path.join(REFERENCE_DIR, f"{name}.json.gz")
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as fh:
        fh.write(gzip.compress(text.encode(), mtime=0))
    return path


def _walk(state, params, steps: int, engine: str) -> np.ndarray:
    traj = fw.evolve(state, params, n_steps=steps, engine=engine, record=("diffusion",))
    return traj.series("diffusion")


class Walk:
    """One diffusion curve of the |0,H> walk, recorded every step."""

    def __init__(self, name, engine, gamma_pi, steps, half_width):
        self.name, self.engine = name, engine
        self.gamma = gamma_pi * math.pi
        self.steps, self.half_width = steps, half_width
        self.params = {
            "engine": engine, "gamma": f"{gamma_pi}pi", "steps": steps,
            "half_width": half_width, "N": 2 * half_width + 1,
            "theta": "-0.5pi", "phi_h": "0", "phi_v": "0.75pi",
        }

    def setup(self, seed: int, workdir: str) -> dict:
        # the walk is the paper's fixed initial state; the seed does not enter
        lattice = fw.LatticeConfig(half_width=self.half_width)
        state = fw.make_single_site(0, fw.Polarization.H, lattice)
        args = (state, modulation(self.gamma), self.steps, self.engine)
        return {"tasks": [("diffusion", _walk, args)]}

    def check(self, key: str, out, ref) -> bool:
        return close(out, ref, WALK_RTOL)


GATE_DELTA = 200.0  # packet width; lattice half_width 900, N = 1801 (prime)
BAND_GAMMAS_PI = (0.06, 1.0, 3.0)
BAND_NK = 256
FIXED_GATES = ("X", "Y", "Z", "H")
SEQUENCES = (
    ("path_x", "cnot", "path_x"), ("cnot",), ("path_x", "cnot"), ("cnot", "cnot"),
)
# Seed-drawn angles come from fixed grids so that the stored reference
# covers every draw: Rz(phi) on 32 angles, |phi1, phi2> on 16 x 16.
RZ_ANGLES = [-math.pi + 2 * math.pi * k / 32 for k in range(32)]
PREP_PHI1 = [math.pi * (i + 1) / 17 for i in range(16)]
PREP_PHI2 = [-math.pi + 2 * math.pi * j / 16 for j in range(16)]
DRAWS = 3


def _band(gamma: float) -> np.ndarray:
    grid = fw.band_grid(modulation(gamma), BAND_NK)
    return np.array(
        [(p.q, p.eps_plus, p.eps_minus, p.nz_plus, p.nz_minus) for p in grid.points]
    )


def _gate(name: str, phi: float | None) -> np.ndarray:
    solved = fw.solve_modulation(fw.table_gate(name, phi))
    return fw.reconstruct_matrix(solved, delta=GATE_DELTA).reconstructed


def _prepare(phi1: float, phi2: float) -> np.ndarray:
    psi, fidelity = fw.run_preparation(phi1, phi2, delta=GATE_DELTA)
    return np.append(psi, fidelity)


def _two_qubit(ops: list[str]) -> np.ndarray:
    return fw.reconstruct_4x4(ops, delta=GATE_DELTA).reconstructed


class Gates:
    name = "gates"
    params = {
        "engine": "spectral", "delta": GATE_DELTA, "N": 1801, "steps_per_call": 1,
        "band_gammas": [f"{g}pi" for g in BAND_GAMMAS_PI], "band_n_k": BAND_NK,
        "fixed_gates": list(FIXED_GATES), "rz_draws": DRAWS, "prepare_draws": DRAWS,
        "sequences": [",".join(s) for s in SEQUENCES],
    }

    @staticmethod
    def jobs(rz: list[int], prep: list[int]) -> list[tuple]:
        jobs = [(f"band/{g}pi", _band, (g * math.pi,)) for g in BAND_GAMMAS_PI]
        jobs += [(f"gate/{g}", _gate, (g, None)) for g in FIXED_GATES]
        jobs += [(f"rz/{k}", _gate, ("Rz", RZ_ANGLES[k])) for k in rz]
        for idx in prep:
            i, j = divmod(idx, len(PREP_PHI2))
            jobs.append((f"prepare/{i}/{j}", _prepare, (PREP_PHI1[i], PREP_PHI2[j])))
        jobs += [("sequence/" + ",".join(s), _two_qubit, (list(s),)) for s in SEQUENCES]
        return jobs

    def setup(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng(seed)
        rz = sorted(int(k) for k in rng.choice(len(RZ_ANGLES), DRAWS, replace=False))
        n_prep = len(PREP_PHI1) * len(PREP_PHI2)
        prep = sorted(int(k) for k in rng.choice(n_prep, DRAWS, replace=False))
        return {"tasks": self.jobs(rz, prep)}

    def check(self, key: str, out, ref) -> bool:
        return close(out, ref)


# The six README commands as written, output redirected into the work
# directory.  `--theta=-0.5pi` replaces the README's `--theta -0.5pi`,
# which argparse rejects as an unknown flag (exit 2); the value is the same.
# The last field names the text columns of a CSV output, None for JSON.
README_COMMANDS = (
    ("band", ["band", "--gamma", "3pi", "--theta=-0.5pi", "--phi-h", "0",
              "--phi-v", "0.75pi", "--n-k", "1024"], "band.csv", ()),
    ("diffusion", ["diffusion", "--gamma", "0.06pi,1pi,3pi", "--steps", "100",
                   "--half-width", "2500"], "diffusion.csv", (1,)),
    ("evolve", ["evolve", "--gamma", "3pi", "--steps", "50", "--half-width",
                "1500"], "evolve.csv", ()),
    ("gate", ["gate", "--gate-name", "H", "--delta", "200"], "h_gate.json", None),
    ("prepare", ["prepare", "--phi1", "0.75pi", "--phi2", "0.25pi"], "prep.json", None),
    ("cnot", ["cnot"], "cnot.json", None),
)
CSV_HEAD_LINES = 3  # "# tool=...", "# config=...", column header


def read_csv(path: str, text_columns: tuple) -> dict:
    """Head lines verbatim, text columns as strings, the rest as floats."""
    with open(path) as fh:
        head = [fh.readline() for _ in range(CSV_HEAD_LINES)]
    n_cols = head[-1].count(",") + 1
    numeric = [c for c in range(n_cols) if c not in text_columns]
    numbers = np.loadtxt(path, delimiter=",", skiprows=CSV_HEAD_LINES,
                         usecols=numeric, ndmin=2)
    text = {
        str(c): np.loadtxt(path, delimiter=",", skiprows=CSV_HEAD_LINES,
                           usecols=c, dtype=str, ndmin=1).tolist()
        for c in text_columns
    }
    return {"kind": "csv", "head": head, "text": text, "numbers": numbers}


def read_output(path: str, text_columns: tuple | None) -> dict:
    if text_columns is None:
        with open(path) as fh:
            doc = json.load(fh)
        return {"kind": "json", "metadata": doc["metadata"], "report": doc["report"]}
    return read_csv(path, text_columns)


def same_report(out, ref) -> bool:
    """Same structure and strings; numbers within RTOL."""
    if isinstance(ref, dict):
        return (isinstance(out, dict) and out.keys() == ref.keys()
                and all(same_report(out[k], ref[k]) for k in ref))
    if isinstance(ref, list):
        return (isinstance(out, list) and len(out) == len(ref)
                and all(same_report(o, r) for o, r in zip(out, ref)))
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        return (isinstance(out, (int, float)) and not isinstance(out, bool)
                and close(out, ref))
    return out == ref


def _command(argv: list[str], path: str, text_columns) -> tuple:
    return cli.main(argv), path, text_columns


class Readme:
    name = "readme"
    params = {
        "commands": [" ".join(argv) for _, argv, _, _ in README_COMMANDS],
        "engine": "spectral",
    }

    def setup(self, seed: int, workdir: str) -> dict:
        tasks = []
        for name, argv, fname, text_columns in README_COMMANDS:
            path = os.path.join(workdir, fname)
            tasks.append((name, _command, (argv + ["--out", path], path, text_columns)))
        return {"tasks": tasks}

    def check(self, key: str, out, ref) -> bool:
        code, path, text_columns = out
        if code != 0:
            return False
        got = read_output(path, text_columns)
        os.remove(path)  # so a later pass cannot pass on this pass's file
        if ref["kind"] == "json":
            return got["metadata"] == ref["metadata"] and same_report(
                got["report"], ref["report"])
        return (got["head"] == ref["head"] and got["text"] == ref["text"]
                and close(got["numbers"], ref["numbers"]))


# Why each workload is there: BENCHMARK.json and NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Walk("walk-spectral", "spectral", 3.0, 100, 1050),
        Walk("walk-direct", "direct", 30.0, 50, 5000),
        Gates(),
        Readme(),
    )
}
