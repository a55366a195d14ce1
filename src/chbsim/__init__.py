"""Finite-difference simulator for a diffuse-interface tumour-growth model.

A two-phase Cahn-Hilliard system with chemotaxis, an advected-diffused
nutrient with Robin walls, and Brinkman flow on a staggered grid, plus a
spectral Galerkin cross-check route and a diagnostics layer (energy budget,
mass ledgers, norm estimates, Gronwall bounds).
"""

from .core import (
    EdgeValues,
    FaceField,
    Grid,
    State,
    extrapolate_to_walls,
    face_to_center,
    integrate_cell,
    make_grid,
)
from .constitutive import (
    CoefficientSpec,
    MobilityViscositySpec,
    ModelParams,
    ModelSpec,
    PotentialSpec,
    SourceSpec,
    mobilities,
    nutrient_energy,
    potential_eval,
    sources,
    validate_params,
    viscosities,
)
from .elliptic import (
    SolveReport,
    SolverOptions,
    StencilOperator,
    apply_neumann_laplacian,
    face_gradient,
    harmonic_face_coefficients,
    solve_general,
    solve_spd,
)
from .brinkman import (
    BrinkmanProblem,
    BrinkmanSolution,
    capillary_force,
    dense_oracle_solve,
    solve_brinkman,
)
from .timestepper import (
    RunResult,
    SchemeOptions,
    SimSpec,
    StepFailure,
    StepReport,
    chemical_potential,
    initial_state,
    run,
    step,
)
from .diagnostics import (
    EnergyBudget,
    GronwallResult,
    NormEstimates,
    energy,
    energy_budget,
    gronwall_bound,
    mass_balances,
    norm_estimates,
    old_level,
    time_level,
    weak_residuals,
)
from .galerkin import (
    GalerkinResult,
    SpectralBasis,
    SpectralState,
    build_basis,
    integrate,
)
from .io import (
    RunConfig,
    load_config,
    read_snapshot,
    run_from_config,
    save_config,
    write_snapshot,
    write_timeseries,
)

__version__ = "0.1.0"
