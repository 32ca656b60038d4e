"""Village-model activated random walk: simulation and continuum limit.

Public surface: model parameters and spectral data (`model`), the continuum
fixed-point maps and solver (`limit`), seeded instruction stacks (`stacks`),
the discrete stabilizer and single-loop evaluator (`simulator`), and the
experiment harnesses (`experiments`).
"""

from .errors import (
    AcceptanceCheckError,
    InputSizeError,
    IterationCapError,
    StepCapError,
    ValidationError,
    VarwError,
    WorkerLostError,
)
from .experiments import (
    ConcentrationConfig,
    LLNConfig,
    run_concentration,
    run_kappa_equivalence,
    run_lln,
)
from .limit import LimitSolution, beta, phi, sleep_profile, solve_fixed_point
from .model import (
    ModelParams,
    SpectralData,
    compute_spectral,
    critical_profile,
    eta_norm,
    load_model,
    parse_model,
    validate_model,
)
from .simulator import (
    DiscreteConfig,
    SimResult,
    SingleLoopResult,
    single_loop,
    single_loop_tilde,
    single_loop_trials,
    stabilize,
)
from .stacks import (
    GRAVEYARD,
    JUMP,
    SLEEP,
    StackSource,
    derive_seed,
    derive_seeds,
)

__version__ = "0.1.0"
