"""wavetorus: spectral lab for time-periodic waves on the space-time torus.

Real fields live on the Fourier lattice e^{i(2jx + kt)} over
Q = [0, pi) x [0, 2pi); the wave operator dtt - dxx is diagonal there with
symbol 4j^2 - k^2, vanishing on the resonant lines k = +-2j.  The package
provides the lattice field algebra, the norms and dyadic machinery used by
the associated functional estimates, inversion of the wave operator off its
kernel, a validated family of monotone power nonlinearities, a penalized
Newton/continuation solver for u_tt - u_xx = f(x, u), and ensemble
verification harnesses.
"""

__version__ = "0.1.0"

from .dalembert import BoxSolveResult, apply_box, h1_bound_ratio, solve_box
from .errors import (
    GridTooCoarse,
    NoConvergence,
    NonlinearityRejected,
    NotHermitian,
    NotInEperp,
    NotInKernel,
    OrderUnavailable,
    ParseError,
    ResonantMass,
    SingularJacobian,
    StallAt,
    WavetorusError,
)
from .nonlinearity import (
    Certificate,
    Nonlinearity,
    TanhPart,
    TrigPolynomial,
    make_nonlinearity,
    nonlinearity_from_config,
)
from .norms import (
    DyadicDecomposition,
    NormReport,
    block_index,
    dyadic_blocks,
    holder_estimate,
    lp_norms,
    norm_E,
    norm_Es,
    norm_Lp,
    norm_lq,
    quadrant_split,
    sobolev_norm,
)
from .solver import (
    BetaSchedule,
    ContinuationRow,
    ContinuationTrace,
    PenalizedProblem,
    SolutionState,
    continuation_beta,
    critical_identity_gap,
    functional_I,
    linking_report,
    max_time_correlation,
    monitored_quantities,
    multi_seed_search,
    newton_solve,
    pair,
    residual,
    time_derivative,
)
from .spectral import (
    GridField,
    PeriodicProfile,
    Q_AREA,
    SpectralField,
    SubspaceTag,
    analyze,
    embed,
    field_from_dict,
    field_to_dict,
    kernel_decompose,
    kernel_field,
    lattice,
    mode_weight,
    project,
    random_field,
    read_field,
    synthesize,
    synthesize_values,
    time_translate,
    truncate,
    write_field,
)
from .verify import (
    EnsembleSpec,
    InequalityReport,
    apriori_monitor,
    check_box_regularity,
    check_embedding,
    check_gn,
    check_hausdorff_young,
    check_holder_to_sobolev,
    embedding_integrability,
    gn_interpolation_exponent,
    gn_reports,
    hausdorff_young_reports,
    mms_problem,
    mms_run,
)
