"""Command-line front end: run one experiment, write a deterministic
CSV or JSON dataset.

Commands: band, evolve, diffusion, gate, prepare, cnot.  Parameters come
from --config (a JSON file) with individual flags taking precedence.
Angles are radians; a "pi" suffix ("0.27pi", "-0.5pi") means multiples
of pi.  Exit codes: 0 success, 1 configuration error, 2 numerical or
I/O failure, 130 interrupted.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys
import tempfile
import warnings
from contextlib import ExitStack, contextmanager, nullcontext, suppress
from typing import Callable, NamedTuple, TextIO

import numpy as np

from . import bands, baselines, gates, twoqubit
from .engine import (
    ENGINES,
    ModulationParams,
    _cpus,
    _kernel_reach,
    _monitored_chunks,
    _walk_bytes,
    translation_kernel,
)
from .errors import ConfigurationError, FreqwalkError, check_fits
from .lattice import (
    EDGE_MARGIN,
    LatticeConfig,
    LatticeState,
    Polarization,
    _diffusion_distances,
    _probabilities,
    make_single_site,
)

_VERSION = None  # set on the first write: importlib.metadata takes ~20 ms to import


def _version() -> str:
    """The installed package version, "unknown" from a source tree."""
    global _VERSION
    if _VERSION is None:
        from importlib.metadata import PackageNotFoundError, version
        try:
            _VERSION = version("freqwalk")
        except PackageNotFoundError:  # running from a source tree
            _VERSION = "unknown"
    return _VERSION


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


def _integer(value) -> int:
    number = int(_scalar(value))
    if isinstance(value, float) and number != value:
        raise ValueError(f"not integral: {value!r}")
    return number


def _count(value) -> int:
    number = _integer(value)
    if number < 0:
        raise ValueError(f"negative: {value!r}")
    return number


def _check(valid):
    """A conversion that keeps a value for which `valid` holds."""

    def check(value):
        if not valid(value):
            raise ValueError(f"invalid value {value!r}")
        return value

    return check


def _list_of(convert):
    """A conversion of one value, a list or a comma separated string to a non-empty list."""

    def convert_list(value):
        items = value.split(",") if isinstance(value, str) else value
        items = items if isinstance(items, list) else [items]
        if not items:
            raise ValueError("empty list")
        return [convert(item) for item in items]

    return convert_list


_text = _check(lambda v: isinstance(v, str))


class Field(NamedTuple):
    """One settable value: flag --<name, "_" as "-">, or config key <name>."""

    convert: Callable  # raises ValueError or OverflowError for a bad value
    what: str  # what a valid value is, for the error message and --help
    default: object = None  # None: unset unless given
    required_by: tuple[str, ...] = ()


FIELDS = {
    "gamma": Field(_list_of(parse_angle), "an angle or a list of angles",
                   required_by=("band", "evolve", "diffusion")),
    "theta": Field(parse_angle, "an angle", -np.pi / 2),
    "phi_h": Field(parse_angle, "an angle", 0.0),
    "phi_v": Field(parse_angle, "an angle", 3 * np.pi / 4),
    "q": Field(parse_angle, "an angle", gates.DEFAULT_Q_STAR),
    "rz_phi": Field(parse_angle, "an angle"),
    "phi1": Field(parse_angle, "an angle", required_by=("prepare",)),
    "phi2": Field(parse_angle, "an angle", required_by=("prepare",)),
    "steps": Field(_count, "an integer >= 0", 100),
    "half_width": Field(_integer, "an integer", 300),
    "n_k": Field(_integer, "an integer", 1024),
    "delta": Field(lambda value: float(_scalar(value)), "a number", gates.DEFAULT_DELTA),
    "engine": Field(_check(lambda v: v in ENGINES), "spectral or direct", "spectral"),
    "format": Field(_check(lambda v: v in ("csv", "json")), "csv or json", "csv"),
    "gate_name": Field(_text, "a gate name", required_by=("gate",)),
    "sequence": Field(_list_of(_text), "a list of two-qubit op names",
                      ["path_x", "cnot", "path_x"]),
}


def load_config(args: argparse.Namespace) -> dict:
    """The table defaults, then the --config file, then the flags, each
    value converted by its field; an unknown key or a bad value is a
    ConfigurationError that names it."""
    given = {}
    if args.config:
        try:
            with open(args.config) as fh:
                given = json.load(fh)
        except (OSError, ValueError) as e:
            raise ConfigurationError(f"cannot read config {args.config}: {e}") from None
        if not isinstance(given, dict):
            raise ConfigurationError("config must be a JSON object")
        for key in given:
            if key not in FIELDS:
                raise ConfigurationError(f"unknown config key {key!r}")
    given.update((k, v) for k, v in vars(args).items() if k in FIELDS and v is not None)
    cfg = {key: f.default for key, f in FIELDS.items() if f.default is not None}
    cfg.update(given)
    for key, f in FIELDS.items():
        if key in cfg:
            try:
                cfg[key] = f.convert(cfg[key])
            except (ValueError, OverflowError):
                raise ConfigurationError(f"{key} must be {f.what}, got {cfg[key]!r}") from None
        elif args.command in f.required_by:
            raise ConfigurationError(f"missing required field {key!r}")
    if args.command in ("band", "evolve", "gate") and len(cfg.get("gamma", ())) > 1:
        raise ConfigurationError(
            f"{args.command} takes one gamma, got {len(cfg['gamma'])} (a list is for diffusion)"
        )
    if args.command in ("evolve", "diffusion") and "half_width" not in given:
        cfg["half_width"] = _walk_half_width(cfg)
    cfg["experiment"] = args.command
    return cfg


def _walk_half_width(cfg: dict) -> int:
    """The default half_width of a walk: steps * lmax + EDGE_MARGIN + 1 (lmax
    of the widest kernel), rounded up until N = 2 * half_width + 1 has no
    prime factor above 7 (a fast FFT size).  A walk whose (2, N) complex
    amplitudes, one per Gamma, could not fit in memory on the lattice of
    the closed-form bound on lmax is refused before any Bessel work: the
    kernel search comes after, and the run's own count of its walk
    (`engine._walk_bytes`) after that.  A walk of no steps runs no kernel
    search."""
    gammas = [_params(cfg, g).gamma for g in cfg["gamma"]]
    steps = cfg["steps"]
    reach = steps * _kernel_reach(max(gammas)) + EDGE_MARGIN + 1
    check_fits(f"gamma {max(gammas):g} too large for steps {steps}: the walk's amplitudes",
               len(gammas) * 32 * (2 * reach + 1))
    lmax = max(translation_kernel(g, 0.0).lmax for g in gammas) if steps else 0
    return _fast_size(2 * (steps * lmax + EDGE_MARGIN + 1) + 1) // 2


def _fast_size(n: int) -> int:
    """The smallest 3^a 5^b 7^c >= n: for each 7^c 5^b below the best
    size so far, the least power of 3 that lifts it to n or past."""
    best = 3 * n  # past the least power of 3 >= n
    seven = 1
    while seven < best:
        size = seven
        while size < best:
            lifted = size
            while lifted < n:
                lifted *= 3
            best = min(best, lifted)
            size *= 5
        seven *= 7
    return best


_CSV_BLOCK_ROWS = 4096  # rows per block of band and diffusion: bounds the temporary strings
# What `_write_rows` holds at most per row of a band or diffusion block, or
# of an evolve block (one step's N sites): its cells, template and text, and with
# the helper a second block's text and the pickles.  Traced at most 630 B
# (JSON, the helper, 10-digit steps, 33-character labels and 24-character
# floats).
_BLOCK_ROW_BYTES = 768
# Float and text cells from which a block goes to the helper process of
# _write_rows.  Measured on 2 CPUs, 50-step walks: 1,001 cells a block
# gained nothing, 2,001 cells 15% (the fork costs about 10 ms at 70 MB).
_HELPER_CELLS = 2000
# Float and text cells still to come, this block's included, from which a
# stream forks the helper.  Measured in process on 2 CPUs with a 40 MB pad,
# median ratios of 15-25 pairs of runs with the helper and without, in 2 to 5
# rounds: `evolve --gamma 3pi --half-width 1500` (3,001 cells a block) took
# 0.87-1.28x the writer-alone time at 10 steps, 0.88-1.24x at 20, and
# 0.75-0.91x at 25 to 100 steps, so the fork (about 10 ms at 70 MB) repays
# from about 25 blocks of 3,001 cells to come.
_HELPER_STREAM_CELLS = 75_000


def _metadata(cfg: dict) -> dict:
    return {"tool": "freqwalk", "version": _version(), "config": cfg}


def _blocks(*tables: list[np.ndarray]) -> tuple:
    """The rows of each table, a list of columns, as blocks of
    _CSV_BLOCK_ROWS rows, table after table, and how many blocks there
    are.  A table's first column is 1-D; a 0-d column stands for its value
    in every row of every block."""
    cuts = [(columns, s) for columns in tables for s in range(0, len(columns[0]), _CSV_BLOCK_ROWS)]
    return ([c[s : s + _CSV_BLOCK_ROWS] if c.ndim else c for c in columns]
            for columns, s in cuts), len(cuts)


def _write_rows(out: TextIO, formats, n_blocks: int) -> bool:
    """Write the text of each (template, values) pair of `formats`
    (`_block_formats`) in order; return whether there was any.  `n_blocks`
    is how many blocks the stream holds (fewer are read if it stops early).

    Where this process may run on 2 or more CPUs, once the stream reaches,
    past its first block, a block of at least _HELPER_CELLS float and text
    cells, and if the blocks still to come, each counted as large as that
    one, hold at least _HELPER_STREAM_CELLS cells, every other such block
    goes to a helper process forked from the writer (`_helper.Formatter`),
    which formats it while the writer computes and formats the next block
    itself.  The texts are written in
    block order and each is the same %-format in a fork of the same
    interpreter, so the bytes do not depend on the path.  At most one
    block is in flight each way, and the helper is reaped before this
    returns or raises."""
    k = -1
    with ExitStack() as stack:
        helper, decided = None, False
        for k, (template, values) in enumerate(formats):
            large = len(values) >= _HELPER_CELLS
            if k and large and not decided:
                decided = True
                repaid = (n_blocks - k) * len(values) >= _HELPER_STREAM_CELLS
                if repaid and hasattr(os, "fork") and _cpus() >= 2:
                    from ._helper import Formatter  # compiled and loaded for this alone

                    helper = stack.enter_context(Formatter())  # reaps what `start` forks
                    try:
                        helper.start()
                    except OSError:  # no process or pipe to spare: format alone
                        helper = None
            if helper is not None and large and not helper.busy:
                helper.send(template, values)
                continue
            text = template % values
            if helper is not None and helper.busy:
                out.write(helper.receive())
            out.write(text)
        if helper is not None and helper.busy:
            out.write(helper.receive())
    return k >= 0


def _block_formats(row: Callable, sep: str, blocks, float_format: str, int_format: str):
    """Per block with rows, its rows joined by `sep` as one %-format, led
    by `sep` from the second such block on, and the tuple of values that
    fill it: the texts of the blocks, written one after another, are every
    row joined by `sep`.  A block is a list of columns: 1-D
    arrays of equal length, or a 0-d array (a numpy scalar) that stands
    for its value in every row.  `row(cells)` joins the cells of one row.
    An integer cell is the text `int_format` % value, written into the
    block's template, so the block is one %-format of its float
    (`float_format`) and text (%s) cells alone.  The template, one
    %-format of the integer arrays' texts, is kept while the blocks keep
    their length, their kinds of cell and their integer arrays (the `m`
    column of `evolve`, held and compared with `is`); it is kept split at
    its 0-d integer cells (the step of `evolve`), whose texts one join per
    block puts in."""
    key, kept, parts, lead = None, [], [], ""  # (length, cells), integer arrays, template, sep
    for block in blocks:
        n = next(len(c) for c in block if c.ndim)
        if not n:
            continue
        cells, arrays, fills, values = [], [], [], []
        for c in block:
            if c.dtype.kind not in "iu":  # %% to stay a cell of the template
                cells.append("%" + ("%s" if c.dtype.kind == "O" else float_format))
                values.append([c.item()] * n if c.ndim == 0 else c.tolist())
            elif c.ndim:  # a %s that its texts fill
                cells.append("%s")
                arrays.append(c)
            else:  # where the template is split: no format or text has a NUL
                cells.append("\0")
                fills.append(int_format % c.item())
        if (n, cells) != key or any(a is not b for a, b in zip(arrays, kept)):
            key, kept = (n, cells), arrays
            texts = [[int_format % v for v in a.tolist()] for a in arrays]
            parts = (sep.join([row(cells)] * n) % _interleave(texts, n)).split("\0")
        template = [lead] * (2 * len(parts))  # its separator, then parts and fills by turns
        template[1::2] = parts
        template[2::2] = fills * n
        yield "".join(template), _interleave(values, n)
        lead = sep


def _interleave(columns: list[list], n: int) -> tuple:
    """The cells of `columns`, lists of n values each, in row order."""
    if len(columns) == 1:
        return tuple(columns[0])
    cells = [None] * (len(columns) * n)
    for j, values in enumerate(columns):
        cells[j :: len(columns)] = values
    return tuple(cells)


def _write_csv(out: TextIO, cfg: dict, header: list[str], blocks, n_blocks: int) -> None:
    """Head lines, then the rows: %.17g per float cell, %s per text cell,
    and '%.17g' % int per integer cell, which gives the bytes of
    format(cell, ".17g") cell by cell."""
    out.write(f"# tool=freqwalk version={_version()}\n")
    out.write(f"# config={json.dumps(cfg, sort_keys=True)}\n")
    out.write(",".join(header) + "\n")
    row = lambda cells: ",".join(cells) + "\n"
    _write_rows(out, _block_formats(row, "", blocks, "%.17g", "%.17g"), n_blocks)


def _json_cells(column: np.ndarray) -> np.ndarray:
    """`column`, or its cells as JSON text where %s would not write them
    as `json` does: text, and the non-finite floats (NaN, Infinity)."""
    if column.dtype != object and np.isfinite(column).all():
        return column
    if not column.ndim:  # still stands for its value in every row
        return np.array(json.dumps(column.item()), dtype=object)
    return np.array([json.dumps(v) for v in column.tolist()], dtype=object)


def _write_json(out: TextIO, cfg: dict, header: list[str], blocks, n_blocks: int) -> None:
    """The bytes of `json.dump(doc, sort_keys=True, indent=1)` and a
    newline, with the rows (the last key) written from one row template;
    an integer cell is '%d' % int, as `json` writes it."""
    doc = {"metadata": _metadata(cfg), "columns": header, "rows": []}
    out.write(json.dumps(doc, sort_keys=True, indent=1)[: -len("]\n}")])  # to "rows": [
    row = lambda cells: "\n  [\n" + ",\n".join("   " + c for c in cells) + "\n  ]"
    blocks = ([_json_cells(c) for c in b] for b in blocks)
    if _write_rows(out, _block_formats(row, ",", blocks, "%s", "%d"), n_blocks):
        out.write("\n ")
    out.write("]\n}\n")


def _params(cfg: dict, gamma: float) -> ModulationParams:
    return ModulationParams(
        gamma=gamma, phi_h=cfg["phi_h"], phi_v=cfg["phi_v"], theta=cfg["theta"]
    )


def run_band(cfg: dict):
    n_k = cfg["n_k"]
    check_fits(f"n_k {n_k} too large: its grid and one block of rows",
               bands._POINT_BYTES * n_k + _BLOCK_ROW_BYTES * min(n_k, _CSV_BLOCK_ROWS))
    grid = bands.band_grid(_params(cfg, cfg["gamma"][0]), n_k)
    columns = [grid.q, *grid.eps.T, *grid.nz.T]
    return ["q", "eps_plus", "eps_minus", "nz_plus", "nz_minus"], *_blocks(columns)


def _origin(cfg: dict) -> LatticeState:
    """|0, H> on the lattice of `cfg`."""
    return make_single_site(0, Polarization.H, LatticeConfig(half_width=cfg["half_width"]))


def _walk_count(cfg: dict, params: list[ModulationParams]) -> tuple[str, int]:
    """The head of a refusal of the walk of `params` in lockstep (its steps
    and half_width, and on the direct engine, whose count grows with
    Gamma, the widest Gamma) and what the walk holds, `engine._walk_bytes`."""
    gamma, engine, half_width = max(p.gamma for p in params), cfg["engine"], cfg["half_width"]
    by = f" and gamma {gamma:g}" if engine == "direct" else ""
    return (f"steps {cfg['steps']} at half_width {half_width}{by} too large",
            _walk_bytes(len(params), 2 * half_width + 1, cfg["steps"], engine, gamma))


def run_evolve(cfg: dict):
    """The header, one block of rows (step, m, P(m)) per step, and their
    count.  A block is made as the walk reaches its step: P(m) is read
    from the walk's chunk one row at a time, so no more than one step's
    P(m) is held, and a boundary abort at step k raises while block k is
    asked for.  Its one count of what it holds at once, the walk
    (`_walk_count`: on the spectral engine its chunk as long as the steps,
    up to `engine._chunk_rows`; on the direct engine its kernel too) and
    one step's rows, is checked before the first array, whether the
    lattice was given or derived."""
    steps, params = cfg["steps"], _params(cfg, cfg["gamma"][0])
    head, walk_bytes = _walk_count(cfg, [params])
    check_fits(f"{head}: its walk and one step's rows",
               walk_bytes + _BLOCK_ROW_BYTES * (2 * cfg["half_width"] + 1))
    state = _origin(cfg)
    schedule = itertools.repeat(params, steps)
    sites = state.config.sites  # one array for every block: its cells are formatted once
    walk = _monitored_chunks(state.amp[None], (schedule,), cfg["engine"])
    blocks = ([np.int64(first + j), sites, _probabilities(amp)]
              for first, amps, _ in walk for j, amp in enumerate(amps[:, 0]))
    return ["step", "m", "prob"], blocks, steps + 1


def run_diffusion(cfg: dict):
    """The classical and DTQW baselines, then the diffusion distance of
    each Gamma's walk from |0, H>, all Gammas walked in lockstep: a
    boundary abort names the first step at which any of them leaks.  Its
    one count, checked before the first array, is its table of M(n) and
    the largest of the baseline, the walk (`_walk_count`) and one block of
    rows."""
    n, params = cfg["steps"], [_params(cfg, gamma) for gamma in cfg["gamma"]]
    head, walk_bytes = _walk_count(cfg, params)
    # the table's step, model and M columns: 8 bytes each a row, n rows a
    # curve.  The DTQW baseline, the walk and the writer run one after
    # another, so the largest is counted.  The tables they memoize outlive
    # them, within that count: with the memos cleared, it is 1.06-3.1x the
    # traced peak of README diffusion, 5,000 DTQW steps and 4,200 steps at
    # N = 10,001.
    check_fits(f"{head}: its baseline, walk and rows", 24 * n * (2 + len(params)) + max(
        baselines._dtqw_bytes(n), walk_bytes, _BLOCK_ROW_BYTES * min(n, _CSV_BLOCK_ROWS)))
    curves = [
        # M(n) = sqrt(n) exactly for the unbiased classical walk; the
        # binomial baseline (baselines.classical_walk_distribution) is
        # checked against it in the tests
        ("classical", np.sqrt(np.arange(1, n + 1))),
        ("dtqw", baselines.dtqw_diffusion(n)),
    ]
    schedules = [itertools.repeat(p, n) for p in params]
    walk = _monitored_chunks(np.stack([_origin(cfg).amp] * len(params)), schedules, cfg["engine"])
    table = np.empty((n, len(schedules)))  # M(n) of each Gamma, a row per step past 0
    for first, amps, _ in itertools.islice(walk, 1, None):
        table[first - 1 : first - 1 + len(amps)] = _diffusion_distances(amps)
    curves += [(f"synthetic:{gamma:.17g}", m) for gamma, m in zip(cfg["gamma"], table.T)]
    step = np.arange(1, n + 1, dtype=np.int64)
    # a curve's model column is its one label, a 0-d cell: JSON encodes it once a block
    return ["step", "model", "M"], *_blocks(
        *([step, np.array(label, dtype=object), values] for label, values in curves))


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


def _write_report(out: TextIO, cfg: dict, report: dict) -> None:
    json.dump({"metadata": _metadata(cfg), "report": report}, out, sort_keys=True, indent=1)
    out.write("\n")


def run(cfg: dict, out_path: str | None) -> None:
    """Compute the dataset of `cfg["experiment"]` and write it to
    `out_path` (stdout if none), or nothing if the run fails.

    Rows are written as they are computed (the walk of `evolve` step by
    step; large blocks in part by a helper process, which `_write_rows`
    reaps whatever ends the run) into a new file next to `out_path`,
    which replaces `out_path` on success and is removed on any failure.
    Stdout, and an existing `out_path` that is not a regular file
    (/dev/null, a FIFO), get a copy of an unnamed temporary file, made
    only on success."""
    if cfg["experiment"] in _TABULAR:
        write = _write_csv if cfg["format"] == "csv" else _write_json
        parts = _TABULAR[cfg["experiment"]](cfg)
    else:
        write, parts = _write_report, (_REPORTS[cfg["experiment"]](cfg),)
    with _output(out_path) as out:
        write(out, cfg, *parts)


@contextmanager
def _output(path: str | None):
    """A text stream whose bytes reach `path` (stdout if None) only if the
    block exits without an exception."""
    if path and (not os.path.exists(path) or os.path.isfile(path)):
        target = os.path.realpath(path)  # a symlink is written through
        temporary = os.path.join(os.path.dirname(target), f"freqwalk-{os.urandom(6).hex()}.tmp")
        created = True  # from the `open` call on, an interrupt may find the file made
        try:
            try:  # "x": a new file, 0o666 less the umask; its descriptor is never loose
                out = open(temporary, "x", newline="")
            except OSError as e:  # nothing was made: name the path the user gave
                created = False
                raise OSError(e.errno, e.strerror, path) from None
            with out:
                yield out
            os.replace(temporary, target)
        except BaseException:
            if created:
                with suppress(FileNotFoundError):
                    os.unlink(temporary)
            raise
        return
    with tempfile.TemporaryFile("w+", newline="") as spool:
        yield spool
        spool.seek(0)
        with open(path, "w", newline="") if path else nullcontext(sys.stdout) as out:
            shutil.copyfileobj(spool, out)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is a configuration error: exit 1, not argparse's 2."""
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    """One parser: the command, then each flag once, in any order."""
    parser = _Parser(prog="freqwalk", description="synthetic-frequency quantum walk datasets")
    parser.add_argument("command", choices=[*_TABULAR, *_REPORTS])
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output path (default stdout)")
    for key, f in FIELDS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=f.what)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; a failure prints one
    `error:` line on stderr, after one `warning:` line per source line that
    warned (the first warning of each: the engine warns every step)."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = build_parser().parse_args(argv)
            run(load_config(args), args.out)
            code, error = 0, ""
        except (FreqwalkError, OSError, MemoryError) as e:
            code = 1 if isinstance(e, ConfigurationError) else 2
            error = f"error: {str(e) or 'out of memory'}\n"
        except KeyboardInterrupt:  # `_output` has removed its temporary file
            code, error = 130, "error: interrupted\n"
            # CPython notes an interrupt raised inside a string exec (a
            # namedtuple or dataclass built by a lazy import, such as that of
            # importlib.metadata) as unhandled, and then ends `python -m` by
            # SIGINT whatever the exit code; each string exec clears the note
            exec("")
    first = {}
    for w in caught:
        first.setdefault((w.filename, w.lineno), w.message)
    for message in first.values():
        print(f"warning: {message}", file=sys.stderr)
    sys.stderr.write(error)
    return code


if __name__ == "__main__":
    sys.exit(main())
