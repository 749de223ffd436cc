"""Command-line front end: run one experiment, write a deterministic
CSV or JSON dataset.

Commands: band, evolve, diffusion, gate, prepare, cnot.  Parameters come
from --config (a JSON file) with individual flags taking precedence.
Angles are radians; a "pi" suffix ("0.27pi", "-0.5pi") means multiples
of pi.  Exit codes: 0 success, 1 configuration error, 2 numerical or
I/O failure.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from importlib.metadata import PackageNotFoundError, version

import numpy as np

from . import bands, baselines, gates, twoqubit
from .engine import ModulationParams, evolve
from .errors import ConfigurationError, FreqwalkError
from .lattice import (
    LatticeConfig,
    Polarization,
    WavepacketSpec,
    make_gaussian,
    make_single_site,
)

try:
    _VERSION = version("freqwalk")
except PackageNotFoundError:  # running from a source tree
    _VERSION = "unknown"


def _scalar(value):
    """`value` if it is a number or a string (not a bool), else a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"not a number or string: {value!r}")
    return value


def parse_angle(text) -> float:
    """Float radians, or a multiple of pi via a 'pi' suffix."""
    if not isinstance(_scalar(text), str):
        return float(text)
    t = text.strip().lower()
    if t.endswith("pi"):
        head = t[:-2].strip()
        factor = 1.0 if head in ("", "+") else -1.0 if head == "-" else float(head)
        return factor * np.pi
    return float(t)


def parse_angle_list(text) -> list[float]:
    """One angle, a list of angles, or a comma separated string of them."""
    text = text.split(",") if isinstance(text, str) else text
    text = text if isinstance(text, list) else [text]
    if not text:
        raise ValueError("no angle given")
    return [parse_angle(t) for t in text]


def _integer(value) -> int:
    number = int(_scalar(value))
    if isinstance(value, float) and number != value:
        raise ValueError(f"not integral: {value!r}")
    return number


def _check(valid):
    """A conversion that keeps a value for which `valid` holds."""

    def check(value):
        if not valid(value):
            raise ValueError(f"invalid value {value!r}")
        return value

    return check


_DEFAULTS = {
    "theta": -np.pi / 2,
    "phi_h": 0.0,
    "phi_v": 3 * np.pi / 4,
    "steps": 100,
    "half_width": 300,
    "delta": gates.DEFAULT_DELTA,
    "q": gates.DEFAULT_Q_STAR,
    "engine": "spectral",
    "n_k": 1024,
    "format": "csv",
    "sequence": ["path_x", "cnot", "path_x"],
}

# each typed field: its conversion (a ValueError or OverflowError for a
# value of the wrong type) and what a valid value is, for the message
_FIELDS = {
    **dict.fromkeys(
        ("theta", "phi_h", "phi_v", "q", "rz_phi", "phi1", "phi2"), (parse_angle, "an angle")
    ),
    "gamma": (parse_angle_list, "an angle or a list of angles"),
    **dict.fromkeys(("steps", "half_width", "n_k"), (_integer, "an integer")),
    "delta": (lambda value: float(_scalar(value)), "a number"),
    "engine": (_check(lambda v: v in ("spectral", "direct")), "spectral or direct"),
    "format": (_check(lambda v: v in ("csv", "json")), "csv or json"),
    "gate_name": (_check(lambda v: isinstance(v, str)), "a gate name"),
    "sequence": (
        _check(lambda v: isinstance(v, list) and all(isinstance(op, str) for op in v)),
        "a list of two-qubit op names",
    ),
}
_REQUIRED = {
    "band": ("gamma",),
    "evolve": ("gamma",),
    "diffusion": ("gamma",),
    "gate": ("gate_name",),
    "prepare": ("phi1", "phi2"),
    "cnot": (),
}


def load_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as e:
                raise FreqwalkError(f"malformed config JSON: {e}") from e
        if not isinstance(loaded, dict):
            raise FreqwalkError("config must be a JSON object")
        cfg.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config", "out") or value is None:
            continue
        cfg[key] = value
    cfg["experiment"] = args.command
    for key, (convert, what) in _FIELDS.items():
        if key not in cfg:
            continue
        try:
            cfg[key] = convert(cfg[key])
        except (ValueError, OverflowError):
            raise ConfigurationError(f"{key} must be {what}, got {cfg[key]!r}") from None
    for key in _REQUIRED[args.command]:
        if key not in cfg:
            raise FreqwalkError(f"missing required field {key!r}")
    return cfg


_CSV_BLOCK_ROWS = 4096  # rows per formatted block: bounds the temporary strings


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _metadata(cfg: dict) -> dict:
    echo = {
        k: v for k, v in sorted(cfg.items()) if v is not None
    }
    return {"tool": "freqwalk", "version": _VERSION, "config": echo}


def _write_csv(out: io.TextIOBase, cfg: dict, header: list[str], columns) -> None:
    """Head lines, then the rows in blocks: each block is one %-format of
    a repeated row template (%.17g per numeric column, %s per text
    column), which gives the bytes of `_fmt` cell by cell."""
    meta = _metadata(cfg)
    out.write(f"# tool={meta['tool']} version={meta['version']}\n")
    out.write(f"# config={json.dumps(meta['config'], sort_keys=True)}\n")
    out.write(",".join(header) + "\n")
    row = ",".join("%s" if c.dtype == object else "%.17g" for c in columns) + "\n"
    width = len(columns)
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = [c[start : start + _CSV_BLOCK_ROWS].tolist() for c in columns]
        cells = [None] * (width * len(block[0]))
        for j, values in enumerate(block):
            cells[j::width] = values
        out.write(row * len(block[0]) % tuple(cells))


def _params(cfg: dict, gamma: float) -> ModulationParams:
    return ModulationParams(
        gamma=gamma, phi_h=cfg["phi_h"], phi_v=cfg["phi_v"], theta=cfg["theta"]
    )


def run_band(cfg: dict):
    grid = bands.band_grid(_params(cfg, cfg["gamma"][0]), cfg["n_k"])
    table = np.array(
        [(p.q, p.eps_plus, p.eps_minus, p.nz_plus, p.nz_minus) for p in grid.points]
    )
    return ["q", "eps_plus", "eps_minus", "nz_plus", "nz_minus"], list(table.T)


def run_evolve(cfg: dict):
    lat = LatticeConfig(half_width=cfg["half_width"])
    if cfg.get("delta") and cfg.get("use_gaussian"):
        spec = WavepacketSpec(delta=cfg["delta"], q=cfg["q"], spin=(1.0, 0.0))
        state = make_gaussian(spec, lat)
    else:
        state = make_single_site(0, Polarization.H, lat)
    traj = evolve(
        state,
        _params(cfg, cfg["gamma"][0]),
        n_steps=cfg["steps"],
        engine=cfg["engine"],
        record=("prob",),
    )
    prob = traj.series("prob")  # (steps + 1, N)
    step = np.repeat(np.asarray(traj.steps, dtype=np.int64), lat.n_sites)
    m = np.tile(lat.sites, len(traj.records))
    return ["step", "m", "prob"], [step, m, prob.ravel()]


def run_diffusion(cfg: dict):
    n = cfg["steps"]
    curves = [
        # M(n) = sqrt(n) exactly for the unbiased classical walk; the
        # binomial baseline (baselines.classical_walk_distribution) is
        # checked against it in the tests
        ("classical", np.sqrt(np.arange(1, n + 1))),
        ("dtqw", baselines.dtqw_diffusion(n)),
    ]
    for gamma in cfg["gamma"]:
        lat = LatticeConfig(half_width=cfg["half_width"])
        state = make_single_site(0, Polarization.H, lat)
        traj = evolve(
            state,
            _params(cfg, gamma),
            n_steps=n,
            engine=cfg["engine"],
            record=("diffusion",),
        )
        curves.append((f"synthetic:{_fmt(gamma)}", traj.series("diffusion")[1:]))
    lengths = [len(values) for _, values in curves]
    step = np.concatenate([np.arange(1, k + 1, dtype=np.int64) for k in lengths])
    model = np.repeat(np.array([label for label, _ in curves], dtype=object), lengths)
    values = np.concatenate([np.asarray(v, dtype=float) for _, v in curves])
    return ["step", "model", "M"], [step, model, values]


def _matrix_json(u: np.ndarray) -> dict:
    return {"re": np.real(u).tolist(), "im": np.imag(u).tolist()}


def run_gate(cfg: dict) -> dict:
    spec = gates.table_gate(cfg["gate_name"], cfg.get("rz_phi"))
    gamma = cfg["gamma"][0] if cfg.get("gamma") else None
    solved = gates.solve_modulation(spec, q_star=cfg["q"], gamma=gamma)
    report = gates.reconstruct_matrix(solved, delta=cfg["delta"], engine=cfg["engine"])
    return {
        "gate": cfg["gate_name"],
        "analytic": _matrix_json(gates.gate_matrix_analytic(solved)),
        "reconstructed": _matrix_json(report.reconstructed),
        "target": _matrix_json(report.target),
        "hs_distance": report.hs_distance,
        "gate_fidelity": report.avg_gate_fidelity,
        "column_fidelities": list(report.column_fidelities),
    }


def run_prepare(cfg: dict) -> dict:
    psi, fid = gates.run_preparation(
        cfg["phi1"], cfg["phi2"], delta=cfg["delta"], q_star=cfg["q"],
        engine=cfg["engine"],
    )
    target = gates.qubit_state(cfg["phi1"], cfg["phi2"])
    return {
        "phi1": cfg["phi1"],
        "phi2": cfg["phi2"],
        "output": _matrix_json(psi.reshape(1, 2)),
        "target": _matrix_json(target.reshape(1, 2)),
        "state_fidelity": fid,
    }


def run_cnot(cfg: dict) -> dict:
    ops = list(cfg["sequence"])
    report = twoqubit.reconstruct_4x4(
        ops, delta=cfg["delta"], q_star=cfg["q"], engine=cfg["engine"]
    )
    return {
        "sequence": ops,
        "reconstructed": _matrix_json(report.reconstructed),
        "target": _matrix_json(report.target),
        "max_abs_error": report.max_abs_error,
    }


_TABULAR = {"band": run_band, "evolve": run_evolve, "diffusion": run_diffusion}
_REPORTS = {"gate": run_gate, "prepare": run_prepare, "cnot": run_cnot}


def run(cfg: dict, out_path: str | None) -> None:
    fmt = cfg["format"]
    buffer = io.StringIO()
    if cfg["experiment"] in _TABULAR:
        header, columns = _TABULAR[cfg["experiment"]](cfg)
        if fmt == "csv":
            _write_csv(buffer, cfg, header, columns)
        else:
            doc = {
                "metadata": _metadata(cfg),
                "columns": header,
                "rows": [list(r) for r in zip(*(c.tolist() for c in columns))],
            }
            json.dump(doc, buffer, sort_keys=True, indent=1)
            buffer.write("\n")
    else:
        report = _REPORTS[cfg["experiment"]](cfg)
        doc = {"metadata": _metadata(cfg), "report": report}
        json.dump(doc, buffer, sort_keys=True, indent=1)
        buffer.write("\n")
    text = buffer.getvalue()
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqwalk", description="synthetic-frequency quantum walk datasets"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("band", "evolve", "diffusion", "gate", "prepare", "cnot"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--engine", choices=("spectral", "direct"))
        p.add_argument("--gamma", help="modulation strength(s), comma separated")
        p.add_argument("--theta")
        p.add_argument("--phi-h", dest="phi_h")
        p.add_argument("--phi-v", dest="phi_v")
        p.add_argument("--steps", type=int)
        p.add_argument("--half-width", dest="half_width", type=int)
        p.add_argument("--delta", type=float)
        p.add_argument("--q")
        p.add_argument("--n-k", dest="n_k", type=int)
        p.add_argument("--gate-name", dest="gate_name")
        p.add_argument("--rz-phi", dest="rz_phi")
        p.add_argument("--phi1")
        p.add_argument("--phi2")
        p.add_argument("--sequence", help="comma separated two-qubit ops")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.sequence is not None:
        args.sequence = args.sequence.split(",")
    try:
        cfg = load_config(args)
    except (FreqwalkError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        run(cfg, args.out)
    except (FreqwalkError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, ConfigurationError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
