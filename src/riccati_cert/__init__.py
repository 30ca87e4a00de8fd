"""Global-solvability certificates for matrix Riccati differential equations.

The package decides, on concrete coefficient data, whether the quadratic
matrix equation Y' + Y P(t) Y + Q(t) Y + Y R(t) - S(t) = 0 is certified
to have global solutions; integrates it by two independent methods (the
equation itself and the equivalent linear flow Y = Psi Phi^{-1}); and
verifies the certified Hermitian-part lower bound along the computed
trajectories.
"""

from .coefficients import (
    CoefficientFunction,
    CoefficientSet,
    ConstantFunction,
    PolynomialFunction,
    SampledFunction,
    constant,
    polynomial,
    sampled,
)
from .criteria import (
    CriterionReport,
    GridSpec,
    build_skew_gauge,
    check_comparison_hypotheses,
    check_gauge_criterion,
    check_skew_gauge_criterion,
    check_sqrt_frame_criterion,
    run_criterion,
)
from .exceptions import (
    DimensionError,
    DomainError,
    EigenSolverError,
    InstanceFormatError,
    IntegrationError,
    NotHermitianError,
    NotPositiveDefiniteError,
    RiccatiError,
)
from .instances import (
    CatalogEntry,
    InstanceSpec,
    blowup_escape_time,
    canonical_catalog,
    gen_blowup,
    gen_comparison,
    gen_satisfying,
)
from .integrate import (
    IntegratorOptions,
    LinearFlow,
    LiouvilleReport,
    Trajectory,
    integrate_linear_system,
    integrate_lyapunov_comparison,
    integrate_riccati_direct,
    liouville_check,
)
from .verify import (
    BoundReport,
    SandwichReport,
    eigen_monitor,
    residual_check,
    residual_series,
    verify_hermitian_bound,
    verify_sandwich,
)

__version__ = "0.1.0"
