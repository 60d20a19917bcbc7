"""The names the package exports."""

import magflows

PUBLIC_NAMES = [
    "BracketScanConfig", "CatalogEntry", "ChartDomain", "ConservationReport",
    "DegenerateD", "DomainError", "EXAMPLE_NAMES", "EllipticHalf", "EvaluationError",
    "FirstIntegral", "GuardError", "HodographConstants", "LogNu1", "LogRadial",
    "MagflowsError", "MagneticSystem", "Metric", "NearPole", "NoConvergence", "PoleInC",
    "PolynomialCos", "RationalFlowBundle", "ResidualReport", "SeriesDivergence",
    "SingularJacobian", "SingularMetric", "SingularPoint", "StepFailure", "Trajectory",
    "TrajectoryConfig", "UnknownExample", "algebraic_residual", "build_bundle",
    "bundle_from_descriptor", "characteristic_speeds", "chart_to_xy",
    "closed_form_abzero", "condition_D", "conformal_metric", "conservation_drift",
    "continued_solve", "example3_system", "from_riemann",
    "functional_independence_rank", "gaussian_curvature", "get_example", "hamiltonian",
    "hamiltonian_integral", "hyp2f1", "integrate", "level_set_bracket_scan",
    "list_examples", "magnetic_bracket_pair", "magnetic_rhs", "momentum_on_level",
    "newton_solve", "pde511_residual", "quadratic_integral", "rational_integral",
    "reconstruct_fields", "riemann_invariants", "terminating_2f1_coeffs",
    "xy_to_chart_logradial",
]


def test_public_api_is_pinned():
    """``magflows.__all__``, sorted, and every name in it resolves; any
    change to the public API shows up here."""
    assert sorted(magflows.__all__) == PUBLIC_NAMES
    missing = [name for name in magflows.__all__ if not hasattr(magflows, name)]
    assert missing == []
