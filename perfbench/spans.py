"""Span recorder for the traced benchmark run.

The benchmark measures each layer from outside: for the length of a
traced pass, every public freqwalk function listed in TARGETS is replaced
by a wrapper in every freqwalk module namespace (and module-level dict)
that binds it, because modules import names directly (`gates` calls its
own `step`, `cli` dispatches through `_TABULAR`).  The originals go back
after the pass; src/ is never modified.

A span records its name, start, end, parent and one optional number taken
from the call (`note`).  Spans stay in memory and are written out when
the run ends.  Self time is a span's duration minus the time its
children cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

WALKS = ("walk-spectral", "walk-direct")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


@dataclass(frozen=True)
class Target:
    span: str  # "<layer>.<name>"; the layer is the freqwalk module
    functions: tuple[str, ...]
    moves: tuple[str, ...]  # workloads whose wall_s this span should move
    note: Callable | None = None  # (args, kwargs, result) -> recorded number


TARGETS = (
    Target("lattice.boundary_mass", ("boundary_mass",), WALKS + ("readme",)),
    Target("lattice.observables", ("probability_distribution", "diffusion_distance",
                                   "centroid", "return_probability"),
           WALKS + ("readme",)),
    Target("lattice.spin_projection", ("spin_projection_at_q",), ("gates",)),
    Target("lattice.make_state", ("make_single_site", "make_gaussian"), ("gates",)),
    Target("engine.evolve", ("evolve",), ("walk-spectral", "readme")),
    Target("engine.step", ("step",), ("walk-spectral", "gates", "readme"),
           note=lambda a, k, r: _arg(a, k, 0, "state").config.n_sites),
    Target("engine.rotation", ("apply_rotation",), ("walk-spectral", "gates", "readme")),
    # two FFT pairs (forward and inverse, both polarizations) per call
    Target("engine.spectral", ("apply_translation_spectral",),
           ("walk-spectral", "gates", "readme"),
           note=lambda a, k, r: 4 * _arg(a, k, 0, "state").config.n_sites),
    Target("engine.direct", ("apply_translation_direct",), ("walk-direct",),
           note=lambda a, k, r: _arg(a, k, 1, "params").gamma),
    Target("engine.kernel", ("translation_kernel",), ("walk-direct",)),
    Target("bessel.sequence", ("bessel_j_sequence",), ("walk-direct",),
           note=lambda a, k, r: _arg(a, k, 0, "lmax") + 1),
    Target("bands.band_grid", ("band_grid",), ("gates", "readme"),
           note=lambda a, k, r: _arg(a, k, 1, "n_k")),
    Target("bands.quasienergy_numeric", ("quasienergy_numeric",), ("gates", "readme")),
    Target("baselines.classical", ("classical_walk_distribution",), ("readme",)),
    Target("baselines.dtqw", ("dtqw_diffusion",), ("readme",)),
    Target("gates.reconstruct", ("reconstruct_matrix",), ("gates",)),
    Target("gates.prepare", ("run_preparation",), ("gates",)),
    Target("gates.solve", ("solve_modulation",), ("gates",)),
    Target("twoqubit.reconstruct", ("reconstruct_4x4",), ("gates",)),
    Target("twoqubit.execute", ("execute_two_qubit_lattice",), ("gates",)),
    Target("cli.main", ("main",), ("readme",),
           note=lambda a, k, r: _arg(a, k, 0, "argv")[0]),
    Target("cli.config", ("load_config",), ("readme",)),
    Target("cli.rows", ("run_band", "run_evolve", "run_diffusion", "run_gate",
                        "run_prepare", "run_cnot"), ("readme",)),
    Target("cli.serialize", ("run",), ("readme",),
           note=lambda a, k, r: os.path.getsize(_arg(a, k, 1, "out_path"))),
)

# Lattice functions call each other (boundary_mass and diffusion_distance
# call probability_distribution); such an inner call is part of the outer
# one, not a call into the layer, and records no span of its own.
FLAT_LAYER = "lattice"

CLI_COMMANDS = ("band", "diffusion", "evolve", "gate", "prepare", "cnot")

# Per-layer metrics in BENCHMARK.json order: "<span>.calls" and
# "<span>.self_s" are per pass; the rest are computed in layer_metrics.
PER_LAYER_UNITS = {
    "lattice.boundary_mass.calls": "count",
    "lattice.boundary_mass.self_s": "s",
    "lattice.observables.calls": "count",
    "lattice.observables.self_s": "s",
    "lattice.spin_projection.calls": "count",
    "lattice.spin_projection.self_s": "s",
    "lattice.make_state.calls": "count",
    "lattice.make_state.self_s": "s",
    "engine.evolve.self_s": "s",
    "engine.step.calls": "count",
    "engine.site_steps": "count",
    "engine.site_steps_per_s": "1/s",
    "engine.rotation.self_s": "s",
    "engine.spectral.calls": "count",
    "engine.spectral.self_s": "s",
    "engine.spectral.fft_points": "count",
    "engine.direct.calls": "count",
    "engine.direct.self_s": "s",
    "engine.direct.kernel_taps": "count",
    "engine.kernel.calls": "count",
    "engine.kernel.self_s": "s",
    "bessel.sequence.calls": "count",
    "bessel.sequence.self_s": "s",
    "bessel.orders": "count",
    "bands.band_grid.calls": "count",
    "bands.band_grid.self_s": "s",
    "bands.points": "count",
    "bands.quasienergy_numeric.calls": "count",
    "bands.quasienergy_numeric.self_s": "s",
    "baselines.classical.calls": "count",
    "baselines.classical.self_s": "s",
    "baselines.dtqw.calls": "count",
    "baselines.dtqw.self_s": "s",
    "gates.reconstruct.calls": "count",
    "gates.reconstruct.self_s": "s",
    "gates.prepare.calls": "count",
    "gates.prepare.self_s": "s",
    "gates.solve.calls": "count",
    "gates.solve.self_s": "s",
    "twoqubit.reconstruct.calls": "count",
    "twoqubit.reconstruct.self_s": "s",
    "twoqubit.execute.calls": "count",
    "cli.config.self_s": "s",
    "cli.rows.self_s": "s",
    "cli.serialize.self_s": "s",
    "cli.output_bytes": "bytes",
    **{f"cli.{c}.s": "s" for c in CLI_COMMANDS},
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, note]
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for target in TARGETS:
            module = sys.modules["freqwalk." + target.span.split(".")[0]]
            for name in target.functions:
                fn = getattr(module, name, None)
                if callable(fn):
                    self._wrappers[id(fn)] = (fn, self._wrap(fn, target))

    def _wrap(self, fn, target: Target):
        spans, stack = self.spans, self._stack
        layer = target.span.split(".")[0] + "."
        flat = layer == FLAT_LAYER + "."

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if flat and stack and spans[stack[-1]][0].startswith(layer):
                return fn(*args, **kwargs)
            span = [target.span, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if target.note is not None:
                try:
                    span[4] = target.note(args, kwargs, result)
                except Exception:  # a changed signature must not change the run
                    pass
            return result

        return wrapper

    def _swap(self, container: dict, key, value) -> None:
        entry = self._wrappers.get(id(value))
        if entry is not None and entry[0] is value:
            container[key] = entry[1]
            self._restore.append((container, key, value))

    def install(self) -> None:
        for name, module in list(sys.modules.items()):
            if name != "freqwalk" and not name.startswith("freqwalk."):
                continue
            for key, value in list(vars(module).items()):
                if key.startswith("__"):
                    continue
                self._swap(vars(module), key, value)
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        self._swap(value, k, v)

    def uninstall(self) -> None:
        for container, key, value in reversed(self._restore):
            container[key] = value
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"],
                       "spans": self.spans}, fh)

    def totals(self):
        """Per span name: calls, inclusive time, self time, and notes."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        notes = defaultdict(list)
        for i, (name, start, end, _, note) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - covered[i]
            notes[name].append(note)
        return calls, total, self_s, notes


def layer_metrics(tracer: Tracer, passes: int, overhead_s: float) -> dict:
    """Every per-layer metric, per traced pass unless it is a rate."""
    from freqwalk.engine import translation_kernel  # the original, unwrapped

    calls, total, self_s, notes = tracer.totals()
    numbers = lambda name: [n for n in notes[name] if isinstance(n, (int, float))]
    taps = {}  # per polarization row: the 2*lmax + 1 taps of the tolerance kernel
    for gamma in set(numbers("engine.direct")):
        taps[gamma] = 2 * len(translation_kernel(gamma, 0.0).coeffs)
    step_s = total["engine.step"]
    computed = {
        "engine.site_steps": sum(numbers("engine.step")) / passes,
        "engine.site_steps_per_s": sum(numbers("engine.step")) / step_s if step_s else 0.0,
        "engine.spectral.fft_points": sum(numbers("engine.spectral")) / passes,
        "engine.direct.kernel_taps": sum(taps[g] for g in numbers("engine.direct")) / passes,
        "bessel.orders": sum(numbers("bessel.sequence")) / passes,
        "bands.points": sum(numbers("bands.band_grid")) / passes,
        "cli.output_bytes": sum(numbers("cli.serialize")) / passes,
        "trace.overhead_s": overhead_s,
    }
    per_command = defaultdict(float)
    for name, start, end, _, note in tracer.spans:
        if name == "cli.main":
            per_command[note] += end - start
    for command in CLI_COMMANDS:
        computed[f"cli.{command}.s"] = per_command[command] / passes

    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        span, _, field = name.rpartition(".")
        if name in computed:
            value = computed[name]
        elif field == "calls":
            value = calls[span] / passes
        else:
            value = self_s[span] / passes
        metrics[name] = {"value": value, "unit": unit}
    return metrics
