"""wavetorus: spectral lab for time-periodic waves on the space-time torus.

Real fields live on the Fourier lattice e^{i(2jx + kt)} over
Q = [0, pi) x [0, 2pi); the wave operator dtt - dxx is diagonal there with
symbol 4j^2 - k^2, vanishing on the resonant lines k = +-2j.  The package
provides the lattice field algebra, the norms and dyadic machinery used by
the associated functional estimates, inversion of the wave operator off its
kernel, a validated family of monotone power nonlinearities, a penalized
Newton/continuation solver for u_tt - u_xx = f(x, u), and ensemble
verification harnesses.

Names are imported from the module that defines them.  The package itself
re-exports only the names the acceptance suite (tests/test_acceptance.py)
and the benchmark's gate import from it.
"""

__version__ = "0.1.0"

from .dalembert import apply_box, h1_bound_ratio, solve_box
from .nonlinearity import make_nonlinearity, nonlinearity_from_config
from .norms import holder_estimate
from .solver import (
    BetaSchedule,
    PenalizedProblem,
    apriori_monitor,
    continuation_beta,
    critical_identity_gap,
    functional_I,
    max_time_correlation,
    mms_run,
    multi_seed_search,
    pair,
    residual,
)
from .spectral import SpectralField, SubspaceTag, project, random_field, read_field
from .verify import (
    EnsembleSpec,
    check_box_regularity,
    check_embedding,
    check_gn,
    check_hausdorff_young,
)
