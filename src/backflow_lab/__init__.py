"""backflow-lab: minimal non-Markovian relaxation models, time-local
generator extraction, divisibility tests, information-backflow measures and
their classical/intrinsic decomposition, and phase-diagram sweeps."""

from .errors import (
    BackflowLabError,
    ConfigError,
    ContractViolationError,
    GeneratorSingularityError,
    IntegrationDivergedError,
    InvalidStateError,
    NotPsdError,
)
from .generator_analysis import (
    CanonicalGkslForm,
    DivisibilityReport,
    SampledGenerator,
    assemble_gksl,
    canonical_forms,
    check_classical_divisible,
    check_cp_divisible,
    extract_tcl_generator,
    gell_mann_basis,
)
from .information import (
    InfoSeries,
    backflow_functional,
    kl_divergence,
    relative_entropy,
    series_from_trajectory,
    trace_distance,
    von_neumann_entropy,
)
from .linalg import devectorize, hermitian_eig, psd_sqrt, vectorize
from .models import (
    MODEL_REGISTRY,
    ModelSpec,
    amplitude_damping_qubit,
    build_model,
    classical_exp_kernel,
    classical_fractional,
    dephasing_qubit,
    exp_kernel_difference_mode,
    exp_kernel_zero_crossing,
    fractional_two_state,
    markov_two_state,
)
from .netfd import (
    DecomposedBackflow,
    ThermoFieldState,
    classify,
    coincident_rise_intervals,
    decomposed_backflow,
    extended_reduced_density,
    thermofield_vector,
)
from .phase_diagram import SweepResult, SweepSpec, revival_detector, run_sweep
from .propagation import (
    MemoryKernel,
    PropagatorFamily,
    TclGenerator,
    build_propagator,
    solve_tc,
    solve_tcl,
)
from .special_functions import ml_envelope, ml_envelope_grid, mittag_leffler
from .states import (
    DensityMatrix,
    ProbabilityVector,
    TimeGrid,
    Trajectory,
)

__version__ = "0.1.0"
