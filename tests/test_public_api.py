"""The names the package exports."""

import magflows

PUBLIC_NAMES = [
    "BracketScanConfig", "CatalogEntry", "ChartDomain", "ConservationReport",
    "DegenerateD", "DomainError", "EXAMPLE_NAMES", "EllipticHalf", "EvaluationError",
    "FirstIntegral", "HodographConstants", "LogNu1", "LogRadial",
    "MagflowsError", "MagneticSystem", "Metric", "NoConvergence", "PoleInC",
    "PolynomialCos", "RationalFlowBundle", "ResidualReport", "SeriesDivergence",
    "SingularJacobian", "SingularMetric", "SingularPoint", "StepFailure", "Trajectory",
    "TrajectoryConfig", "UnknownExample", "algebraic_residual", "build_bundle",
    "bundle_from_descriptor", "closed_form_abzero", "conformal_metric",
    "conservation_drift", "continued_solve", "example3_system",
    "functional_independence_rank", "gaussian_curvature", "get_example", "hamiltonian",
    "hamiltonian_integral", "hyp2f1", "integrate", "level_set_bracket_scan",
    "list_examples", "magnetic_rhs", "momentum_on_level", "newton_solve",
    "ratio_integral", "reconstruct_fields",
    "terminating_2f1_coeffs",
]


def test_public_api_is_pinned():
    """``magflows.__all__``, sorted, and every name in it resolves; any
    change to the public API shows up here."""
    assert sorted(magflows.__all__) == PUBLIC_NAMES
    missing = [name for name in magflows.__all__ if not hasattr(magflows, name)]
    assert missing == []
