"""chns: desk-scale Cahn-Hilliard / damped Navier-Stokes simulator.

A MAC staggered-grid discretization of a two-phase flow model whose
momentum equation carries a Brinkman-Forchheimer absorption term
beta |u|^{r-1} u.  The package is built so that the model's structural
identities hold discretely and are testable: mass conservation, a
per-step energy law, skew symmetry of convection, monotonicity of the
damping term, and the clamp-parameter limit of the degenerate-mobility /
logarithmic-potential regularization.
"""

from .diagnostics import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    TrajectoryLedger,
    degenerate_energy_residual,
    energy_balance_residual,
    entropy_functional,
    hminus1_distance,
    overshoot_functional,
)
from .config import RunConfig, build_simulation, parse_config, serialize_config
from .errors import (
    ChnsError,
    ConfigError,
    ConvergenceError,
    DomainError,
    ParameterError,
    PreconditionError,
    StepError,
)
from .experiments import (
    ExperimentPlan,
    ExperimentReport,
    parse_plan,
    run_beta_nu_probe,
    run_continuous_dependence,
    run_epsilon_sweep,
    run_experiment,
    run_r_sweep,
    run_refinement,
)
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    advect_scalar,
    convection,
    divergence_fc,
    gradient_cc,
    laplacian_neumann,
    trilinear_b,
    velocity_laplacian,
)
from .materials import (
    EntropyFunction,
    MobilitySpec,
    PotentialSpec,
    constant_mobility,
    degenerate_mobility,
    logarithmic_potential,
    mobility_value,
    potential_deriv,
    potential_value,
    regular_potential,
    regularize_mobility,
    regularize_potential,
)
from .poisson import PoissonSolveReport, helmholtz_project, neumann_inverse
from .solver import (
    ForcingSpec,
    Simulation,
    SolverParams,
    State,
    chemical_potential,
    damping_pairing,
    initial_state,
    step_ch,
    step_coupled,
    step_ns,
    vortex_field,
)

__version__ = "0.1.0"
