"""Every public entry point refuses a bad argument with a FreqwalkError.

`BASELINES` holds one valid call, at millisecond sizes, of each public
function and input constructor in `freqwalk.__all__`.  The fuzz replaces
one argument at a time with each of `BAD`; the call must then either
return a result whose every reachable number is finite or raise a
FreqwalkError.  A public name with no baseline and no entry in
`EXCLUDED` fails the test, so a new entry point cannot skip the checks.
"""

import dataclasses
import enum
import inspect

import numpy as np
import pytest

import freqwalk as fw
from freqwalk import Polarization as P

BAD = [np.nan, np.inf, -np.inf, True, 0, 2.5, -1, "x", [1]]

EXCLUDED = {
    **{name: "result record" for name in (
        "BandGrid", "BandPoint", "GateReport", "GateSpec", "SolvedParams",
        "Trajectory", "TranslationKernel")},
    **{name: "exception class" for name in (
        "BoundaryLeakError", "ConfigurationError", "FreqwalkError",
        "InfeasibleGateError")},
    **{name: "submodule, whose public names are re-exported" for name in (
        "bands", "baselines", "bessel", "engine", "errors", "gates", "lattice",
        "twoqubit")},
    "Polarization": "enum: its members are the values",
    "Schedule": "type alias of a list of ModulationParams",
}

CFG = fw.LatticeConfig(20)
SITE = fw.make_single_site(0, P.H, CFG)
Q = 2 * np.pi / 3
SPEC = fw.WavepacketSpec(3.0, Q, (1.0, 0.0))
PACKET = fw.make_gaussian(SPEC, CFG)
PARAMS = fw.ModulationParams(np.pi, 0.0, 3 * np.pi / 4, -np.pi / 2)
SOLVED = fw.solve_modulation(fw.table_gate("X"))
X = SOLVED.spec.target
H = np.array([1.0, 0.0])

BASELINES = {  # name: the arguments of a valid call
    "LatticeConfig": (20,),
    "LatticeState": (CFG, SITE.amp, {}),
    "ModulationParams": (np.pi, 0.0, 3 * np.pi / 4, -np.pi / 2),
    "WavepacketSpec": (3.0, Q, (1.0, 0.0)),
    "apply_rotation": (SITE, 0.3),
    "band_grid": (PARAMS, 16),
    "bessel_j": (1, 3.0),
    "bessel_j_sequence": (4, 3.0),
    "boundary_mass": (SITE,),
    "centroid": (PACKET,),
    "classical_walk_distribution": (2,),
    "cnot_matrix": (),
    "diffusion_distance": (PACKET,),
    "dtqw_diffusion": (2,),
    "dtqw_step": (SITE,),
    "eigen_spinor": (PARAMS, 0.3, "+"),
    "evolve": (SITE, PARAMS, 2),
    "execute_gate_lattice": (SOLVED, (1.0, 0.0), 4.0),
    "execute_two_qubit_lattice": (["cnot"], 1, 4.0),
    "gate_fidelity": (X, X),
    "gate_matrix_analytic": (SOLVED,),
    "group_velocity": (PARAMS, 0.3, "+"),
    "hs_distance": (X, X),
    "make_gaussian": (SPEC, CFG),
    "make_single_site": (0, P.H, CFG),
    "path_x": (),
    "prepare_state_sequence": (0.4, 1.1),
    "probability_distribution": (PACKET,),
    "quasienergy_closed_form": (PARAMS, 0.3),
    "quasienergy_numeric": (PARAMS, 0.3),
    "qubit_state": (0.4, 1.1),
    "reconstruct_4x4": (["path_x", "cnot", "path_x"], 4.0),
    "reconstruct_matrix": (SOLVED, 4.0),
    "return_probability": (PACKET, PACKET),
    "run_preparation": (0.4, 1.1, 4.0),
    "sequence_ms": (),
    "solve_modulation": (fw.table_gate("H"),),
    "spin_projection_at_q": (PACKET, Q),
    "state_fidelity": (H, H),
    "step": (SITE, PARAMS),
    "table_gate": ("Rz", 0.7),
    "translation_kernel": (3.0, 0.0),
    "uk_matrix": (PARAMS, 0.3),
}


def reachable_numbers(value):
    """Every number reachable from a result, as numpy arrays."""
    if isinstance(value, (bool, str, enum.Enum)) or value is None:
        return
    if isinstance(value, (int, float, complex, np.generic, np.ndarray)):
        yield np.asarray(value)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from reachable_numbers(getattr(value, f.name))
    elif isinstance(value, dict):
        for item in value.values():
            yield from reachable_numbers(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from reachable_numbers(item)
    else:
        raise TypeError(f"result part of unknown type {type(value)}")


def mangled_calls(fn, args):
    """(argument name, bad value, keyword arguments) of the call with each
    argument, defaults included, replaced in turn by each bad value.  A
    freqwalk object, a bool flag and the free-form `meta` dict of a state
    stay as they are."""
    bound = inspect.signature(fn).bind(*args)
    bound.apply_defaults()
    for name, value in bound.arguments.items():
        if isinstance(value, (bool, dict)) or type(value).__module__.startswith("freqwalk"):
            continue
        for bad in BAD:
            call = bound.arguments.copy()
            call[name] = bad
            yield name, bad, call


def test_exclusions_are_public_names():
    assert set(EXCLUDED) <= set(fw.__all__)
    assert not set(EXCLUDED) & set(BASELINES)


@pytest.mark.parametrize("name", [n for n in fw.__all__ if n not in EXCLUDED])
def test_bad_argument_is_refused_or_harmless(name):
    fn = getattr(fw, name)
    args = BASELINES[name]
    assert all(np.isfinite(a).all() for a in reachable_numbers(fn(*args)))
    for arg, bad, call in mangled_calls(fn, args):
        try:
            result = fn(**call)
        except fw.FreqwalkError:
            continue
        assert all(np.isfinite(a).all() for a in reachable_numbers(result)), (arg, bad)
