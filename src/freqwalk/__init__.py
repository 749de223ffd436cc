"""Discrete-time quantum walks on a modulated synthetic frequency
lattice, with Floquet bands and quasi-momentum-space quantum gates."""

from .bands import (
    BandGrid,
    BandPoint,
    band_grid,
    eigen_spinor,
    group_velocity,
    quasienergy_closed_form,
    quasienergy_numeric,
    uk_matrix,
)
from .baselines import classical_walk_distribution, dtqw_diffusion, dtqw_step
from .bessel import bessel_j, bessel_j_sequence
from .engine import (
    ModulationParams,
    Schedule,
    TranslationKernel,
    Trajectory,
    apply_rotation,
    evolve,
    step,
    translation_kernel,
)
from .errors import (
    BoundaryLeakError,
    ConfigurationError,
    FreqwalkError,
    InfeasibleGateError,
)
from .gates import (
    GateReport,
    GateSpec,
    SolvedParams,
    execute_gate_lattice,
    gate_fidelity,
    gate_matrix_analytic,
    hs_distance,
    prepare_state_sequence,
    qubit_state,
    reconstruct_matrix,
    run_preparation,
    solve_modulation,
    state_fidelity,
    table_gate,
)
from .lattice import (
    LatticeConfig,
    LatticeState,
    Polarization,
    WavepacketSpec,
    boundary_mass,
    centroid,
    diffusion_distance,
    make_gaussian,
    make_single_site,
    probability_distribution,
    return_probability,
    spin_projection_at_q,
)
from .twoqubit import (
    cnot_matrix,
    execute_two_qubit_lattice,
    path_x,
    reconstruct_4x4,
    sequence_ms,
)

__all__ = [name for name in dir() if not name.startswith("_")]
