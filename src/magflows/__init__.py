"""Magnetic geodesic flows on surfaces with polynomial-in-momenta and
rational-in-momenta first integrals: geometry, integration, integral
checks, and the constructions generating the worked examples."""

from types import ModuleType as _ModuleType

from .catalog import CatalogEntry, EXAMPLE_NAMES, get_example, list_examples
from .errors import (
    DegenerateD,
    DomainError,
    EvaluationError,
    MagflowsError,
    NoConvergence,
    PoleInC,
    SeriesDivergence,
    SingularJacobian,
    SingularMetric,
    SingularPoint,
    StepFailure,
    UnknownExample,
)
from .flow import (
    ConservationReport,
    Trajectory,
    TrajectoryConfig,
    conservation_drift,
    integrate,
    magnetic_rhs,
)
from .geometry import (
    ChartDomain,
    MagneticSystem,
    Metric,
    conformal_metric,
    gaussian_curvature,
    hamiltonian,
    momentum_on_level,
)
from .hodograph import (
    HodographConstants,
    algebraic_residual,
    closed_form_abzero,
    continued_solve,
    example3_system,
    newton_solve,
    reconstruct_fields,
)
from .integrals import (
    BracketScanConfig,
    FirstIntegral,
    ResidualReport,
    functional_independence_rank,
    hamiltonian_integral,
    level_set_bracket_scan,
    ratio_integral,
)
from .rational import (
    EllipticHalf,
    LogNu1,
    LogRadial,
    PolynomialCos,
    RationalFlowBundle,
    build_bundle,
    bundle_from_descriptor,
)
from .specfun import hyp2f1, terminating_2f1_coeffs

__version__ = "0.1.0"

# the public names are the ones imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
