"""Radial solution families, profile screen, flow bundles and the chart map."""

import dataclasses
import json
import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magflows import specfun
from magflows.catalog import get_example
from magflows.errors import DegenerateD, DomainError
from magflows.flow import TrajectoryConfig, conservation_drift, integrate, magnetic_rhs
from magflows.geometry import hamiltonian, hamiltonian_gradient, momentum_on_level
from magflows.integrals import BracketScanConfig, hamiltonian_integral, level_set_bracket_scan
from magflows.rational import (
    FAMILIES,
    EllipticHalf,
    LogNu1,
    LogRadial,
    PolynomialCos,
    RationalFlowBundle,
    ZSolution,
    build_bundle,
    bundle_from_descriptor,
    profile_screen,
    solution_from_descriptor,
)
from oracles import (
    LEVEL_MOMENTA,
    chart_to_xy,
    condition_D,
    magnetic_bracket_pair,
    pde511_residual,
    radial_third,
    xy_to_chart_logradial,
)
from richardson import metric_partials, richardson_gradient

RNG = np.random.default_rng(0)

ALL_SOLUTIONS = [
    PolynomialCos(1),
    PolynomialCos(2),
    PolynomialCos(3),
    LogRadial(),
    LogNu1(),
    EllipticHalf(),
]

BUNDLE_SOLUTIONS = [s for s in ALL_SOLUTIONS
                    if not (isinstance(s, PolynomialCos) and s.k == 1)]


def _random_rho(z, rng, lo=0.06, hi=4.5):
    vlo, vhi = z.valid_rho
    return rng.uniform(max(lo, vlo + 0.05), min(hi, vhi - 0.05 if np.isfinite(vhi) else hi))


class TestKeyEquation:
    def test_log_radial_is_exact(self):
        """The logarithmic profile solves the equation identically."""
        assert pde511_residual(LogRadial(), 1.0, 0.3) == 0.0

    def test_polynomial_residual(self):
        """The degree-2 polynomial solution is exact to roundoff."""
        for rho in np.linspace(0.1, 3.0, 12):
            for psi in np.linspace(0.0, 2.0 * math.pi, 9):
                assert abs(pde511_residual(PolynomialCos(2), float(rho), float(psi))) <= 1e-14

    def test_elliptic_residual(self):
        """The half-index profile passes at 50 random chart points."""
        z = EllipticHalf()
        rng = np.random.default_rng(1)
        for _ in range(50):
            rho = rng.uniform(-0.9, 5.0)
            if abs(rho) < 1e-3:
                continue
            psi = rng.uniform(0.0, z.psi_period)
            assert abs(pde511_residual(z, rho, psi)) <= 1e-10

    @pytest.mark.parametrize("z", ALL_SOLUTIONS, ids=lambda z: z.family + getattr(z, "suffix", ""))
    def test_every_shipped_solution(self, z):
        """All families stay below 1e-10 at 200 random points."""
        rng = np.random.default_rng(2)
        for _ in range(200):
            rho = _random_rho(z, rng)
            psi = rng.uniform(0.0, z.psi_period)
            assert abs(pde511_residual(z, rho, psi)) <= 1e-10

    def test_scaled_residual_separates_roundoff_from_error(self):
        """Relative to the size of its terms, the residual of an exact
        high-degree profile is round-off, while a profile with one
        coefficient off by 1e-6 relative stays far above round-off; the
        bundle screen accepts the first and rejects the second."""
        exact = PolynomialCos(12)
        perturbed = PolynomialCos(6)
        perturbed.coeffs[2] *= 1.0 + 1e-6
        points = [(rho, psi) for rho in np.linspace(0.1, 4.9, 9) for psi in (0.0, 0.4)]

        def worst(z, scaled):
            return max(abs(pde511_residual(z, rho, psi, scaled=scaled)) for rho, psi in points)

        assert worst(exact, scaled=False) > 1e-8
        assert worst(exact, scaled=True) <= 1e-14
        assert worst(perturbed, scaled=True) > 1e-8
        build_bundle(exact)
        with pytest.raises(DomainError, match="not a solution"):
            build_bundle(perturbed)


class TestPartials:
    @pytest.mark.parametrize("z", ALL_SOLUTIONS, ids=lambda z: z.family)
    def test_first_and_second_match_differences(self, z):
        """Analytic partials agree with central differences to 1e-6."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho = _random_rho(z, rng, lo=0.2, hi=3.0)
            psi = rng.uniform(0.0, z.psi_period)
            _, z_r, z_p, z_rr, z_rp, z_pp = z.jet(rho, psi)[:6]
            h = 1e-5
            fd_r = (z.value(rho + h, psi) - z.value(rho - h, psi)) / (2 * h)
            fd_p = (z.value(rho, psi + h) - z.value(rho, psi - h)) / (2 * h)
            np.testing.assert_allclose((z_r, z_p), (fd_r, fd_p), rtol=1e-6, atol=1e-6)
            h = 1e-4
            fd_rr = (z.value(rho + h, psi) - 2 * z.value(rho, psi)
                     + z.value(rho - h, psi)) / h**2
            fd_pp = (z.value(rho, psi + h) - 2 * z.value(rho, psi)
                     + z.value(rho, psi - h)) / h**2
            fd_rp = (z.value(rho + h, psi + h) - z.value(rho + h, psi - h)
                     - z.value(rho - h, psi + h) + z.value(rho - h, psi - h)) / (4 * h**2)
            np.testing.assert_allclose((z_rr, z_rp, z_pp), (fd_rr, fd_rp, fd_pp),
                                       rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("z", ALL_SOLUTIONS, ids=lambda z: z.family)
    def test_thirds_match_differences_of_seconds(self, z):
        """Third partials differentiate the analytic second partials."""
        rng = np.random.default_rng(4)
        for _ in range(6):
            rho = _random_rho(z, rng, lo=0.3, hi=2.5)
            psi = rng.uniform(0.0, z.psi_period)
            z_rrr, z_rrp, z_rpp = z.jet(rho, psi)[6:]
            h = 1e-6

            def seconds(r, p):
                return z.jet(r, p)[3:5]

            fd_rrr = (seconds(rho + h, psi)[0] - seconds(rho - h, psi)[0]) / (2 * h)
            fd_rrp = (seconds(rho, psi + h)[0] - seconds(rho, psi - h)[0]) / (2 * h)
            fd_rpp = (seconds(rho, psi + h)[1] - seconds(rho, psi - h)[1]) / (2 * h)
            np.testing.assert_allclose((z_rrr, z_rrp, z_rpp),
                                       (fd_rrr, fd_rrp, fd_rpp), rtol=1e-4, atol=1e-5)

    # (family, rho range, bound relative to the largest third-order entry):
    # the default range, the strip -1 < rho < 0 and large rho.  On the
    # strip the sums for R' and R'' of poly-cos k = 6 cancel to ~1/4000 of
    # their terms, and R''' divides their rounding, times nu^2 - 1 = 35, by
    # rho (rho + 1) ~ 0.1; the derived third is 1.2e-13 off there.
    THIRDS = [(z, rr, 1e-14) for z in (PolynomialCos(2), LogNu1(), EllipticHalf(), LogRadial())
              for rr in (z.default_rho_range, (-0.9, -0.1), (5.0, 100.0))
              if rr[0] > z.valid_rho[0]]
    THIRDS += [(PolynomialCos(6), PolynomialCos.default_rho_range, 1e-14),
               (PolynomialCos(6), (-0.9, -0.1), 2e-13), (PolynomialCos(6), (5.0, 100.0), 1e-14)]

    @pytest.mark.parametrize("z, rho_range, bound", THIRDS, ids=[
        f"{z.family}{getattr(z, 'k', '')}-{lo:g}-{hi:g}" for z, (lo, hi), _ in THIRDS])
    def test_derived_third_matches_hand_written(self, z, rho_range, bound):
        """Z_rrr from R''' = ((nu^2 - 1) R' - (3 rho + 1) R'') / (rho (rho + 1))
        matches the family's R''' written out by hand (for elliptic-half,
        by mpmath), relative to the largest third-order jet entry on the
        range: 2001 points (201 for elliptic-half, whose mpmath third is
        slow) at three angles each."""
        n = 201 if isinstance(z, EllipticHalf) else 2001
        worst = scale = 0.0
        for rho in np.linspace(*rho_range, n).tolist():
            want = radial_third(z, rho)
            for psi in (0.3, 1.7, 4.0):
                jet = z.jet(rho, psi)
                scale = max(scale, *map(abs, jet[6:]))
                worst = max(worst, abs(jet[6] - want * math.cos(z.nu * (psi + z.psi0))))
        assert worst <= bound * scale

    @pytest.mark.parametrize("rho", [0.0, -1.0, 1e200])
    def test_jet_refuses_where_the_equation_degenerates(self, rho):
        """R''' divides by rho (rho + 1), which is 0 at rho = 0 and -1 and
        overflows at 1e200: the jet raises DomainError there."""
        with pytest.raises(DomainError, match="degenerates"):
            PolynomialCos(2).jet(rho, 0.3)

    def test_rho_validity_enforced(self):
        """Evaluation outside the declared interval raises DomainError."""
        with pytest.raises(DomainError):
            LogRadial().jet(-1.5, 0.0)
        with pytest.raises(DomainError):
            LogNu1().jet(-0.5, 0.0)


def _poly_cos_z(k, psi0):
    """rho 2F1(1-k, 1+k; 2; -rho) cos(k (psi + psi0)), scaled to be monic
    in rho: the hypergeometric closed form of the poly-cos family."""
    lead = (mpmath.rf(1 - k, k - 1) * mpmath.rf(1 + k, k - 1)
            / (mpmath.rf(2, k - 1) * mpmath.factorial(k - 1)) * (-1) ** (k - 1))
    return lambda r, p: r * mpmath.hyp2f1(1 - k, 1 + k, 2, -r) / lead * mpmath.cos(k * (p + psi0))


# each family with its closed form Z(rho, psi) in mpmath and a rho window
CLOSED_FORMS = [
    pytest.param(PolynomialCos(1), _poly_cos_z(1, 0.0), (0.05, 5.0), id="poly-cos-k1"),
    pytest.param(PolynomialCos(3, psi0=0.4), _poly_cos_z(3, 0.4), (0.05, 5.0), id="poly-cos-k3"),
    pytest.param(PolynomialCos(6), _poly_cos_z(6, 0.0), (0.05, 3.0), id="poly-cos-k6"),
    pytest.param(LogRadial(), lambda r, p: mpmath.log(1 + r), (-0.9, 5.0), id="log-radial"),
    pytest.param(LogNu1(), lambda r, p: (r * mpmath.log(1 + 1 / r) - 1) * mpmath.cos(p),
                 (0.05, 5.0), id="log-nu1"),
    pytest.param(EllipticHalf(), lambda r, p: (4 / mpmath.pi * (mpmath.ellipe(-r) - mpmath.ellipk(-r))
                                               * mpmath.cos(p / 2)), (-0.9, 3.0), id="elliptic-half"),
]
JET_ORDERS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2)]
# each family with a rho window where its jet is defined and rho it refuses
KEPT_RADIAL_CASES = [
    pytest.param(lambda: PolynomialCos(3, psi0=0.4), (-0.95, 5.0),
                 (0.0, -0.0, -1.0, math.inf, 1e200, math.nan), id="poly-cos"),
    pytest.param(LogRadial, (-0.95, 5.0), (0.0, -0.0, -1.0, -1.5, math.inf, math.nan),
                 id="log-radial"),
    pytest.param(LogNu1, (0.01, 5.0), (0.0, -0.0, -1.0, -0.5, math.inf, math.nan), id="log-nu1"),
    pytest.param(EllipticHalf, (-0.95, 3.0), (0.0, -0.0, -1.0, -1.5, math.inf, math.nan),
                 id="elliptic-half"),
]


def _jet_outcome(z, rho, psi):
    """The bits of ``z.jet(rho, psi)``, as hex strings, or the type and
    message of the error it raises."""
    try:
        return [v.hex() for v in z.jet(rho, psi)]
    except (ArithmeticError, DomainError) as exc:
        return type(exc), str(exc)


class TestJet:
    @pytest.mark.parametrize("z, closed_form, window", CLOSED_FORMS)
    def test_matches_mpmath_derivatives(self, z, closed_form, window):
        """All nine partials of the jet equal mpmath.diff of the family's
        closed form at random (rho, psi), to 1e-13 of the largest one (the
        angle nu (psi + psi0) alone carries a rounding error of about
        eps |nu (psi + psi0)| <= 1e-14)."""
        rng = np.random.default_rng(11)
        for _ in range(6):
            rho, psi = rng.uniform(*window), rng.uniform(0.0, z.psi_period)
            jet = z.jet(rho, psi)
            with mpmath.workdps(40):
                want = [float(mpmath.diff(closed_form, (mpmath.mpf(rho), mpmath.mpf(psi)), order))
                        for order in JET_ORDERS]
            np.testing.assert_allclose(jet, want, rtol=0.0,
                                       atol=1e-13 * max(abs(v) for v in want))

    @pytest.mark.parametrize("make, window, refused", KEPT_RADIAL_CASES)
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(steps=st.lists(st.tuples(st.sampled_from(("new", "again", "refused")),
                                    st.floats(0.0, 1.0), st.integers(0, 5),
                                    st.floats(0.0, 4.0 * math.pi)), min_size=1, max_size=16))
    def test_kept_radial_jet_equals_a_fresh_solution(self, make, window, refused, steps):
        """A run of calls that comes back to a rho with a new psi, with
        refused rho (0, -0, -1, outside the valid interval, NaN) in between,
        gives at each call the bits of a fresh solution's jet, or the same
        error: a refusal leaves the kept radial jet as it was."""
        z, rho = make(), window[0]
        for kind, u, index, psi in steps:
            if kind == "new":
                rho = window[0] + u * (window[1] - window[0])
            at = refused[index] if kind == "refused" else rho
            assert _jet_outcome(z, at, psi) == _jet_outcome(make(), at, psi)

    @pytest.mark.parametrize("z", BUNDLE_SOLUTIONS, ids=lambda z: z.family)
    def test_one_jet_per_rhs_call(self, z, monkeypatch):
        """A bundle's magnetic_rhs evaluates the jet of Z once; on
        elliptic-half that is one AGM run."""
        system = build_bundle(z, rho_range=z.default_rho_range).as_system()
        calls = Counter()
        jet, agm = ZSolution.jet, specfun._agm

        def counted_jet(self, rho, psi):
            calls["jet"] += 1
            return jet(self, rho, psi)

        def counted_agm(m):
            calls["agm"] += 1
            return agm(m)

        monkeypatch.setattr(ZSolution, "jet", counted_jet)
        monkeypatch.setattr(specfun, "_agm", counted_agm)
        rng = np.random.default_rng(12)
        for n in range(1, 6):
            phase = _random_phase_in_range(system, rng)
            magnetic_rhs(system, phase)
            assert calls["jet"] == n
            assert calls["agm"] == (n if isinstance(z, EllipticHalf) else 0)

    @pytest.mark.parametrize("z", BUNDLE_SOLUTIONS, ids=lambda z: z.family)
    def test_one_local_geometry_per_kept_scan_point(self, z, monkeypatch):
        """A bracket scan evaluates the bundle system's ``local`` once at
        each grid point, and the Cholesky factor and G^{-1} come from its
        G.  A point whose factor fails (here every point past the middle of
        the rho range, where the frame's scale is negated) takes that one
        call too, and is not sampled."""
        frame = RationalFlowBundle._frame
        mid = sum(z.default_rho_range) / 2.0
        calls = Counter()

        def failing_past_mid(self, rho, psi):
            k, *rest = frame(self, rho, psi)
            return (k if rho < mid else -k, *rest)

        monkeypatch.setattr(RationalFlowBundle, "_frame", failing_past_mid)
        bundle = build_bundle(z)
        system, config = bundle.as_system(), BracketScanConfig(nx=6, ny=5, n_angles=4)

        def counted_local(rho, psi, _local=system.local):
            calls[rho, psi] += 1
            return _local(rho, psi)

        system = dataclasses.replace(system, local=counted_local)
        report = level_set_bracket_scan(system, bundle.as_integral(), config=config)
        points = system.domain.grid(6, 5, config.grid_margin)
        kept = [(x, y) for x, y in points if x < mid]
        assert len(kept) == 15 and report.count == 15 * 4
        assert dict(calls) == dict.fromkeys(points, 1)

    @pytest.mark.parametrize("z", BUNDLE_SOLUTIONS + ["ex3", "ex4", "ex5", "ex6"],
                             ids=lambda z: z if isinstance(z, str) else z.family)
    def test_local_geometry_equals_default_path(self, z):
        """A chart's one-evaluation local geometry gives the same bits as
        the default built from metric components, partials and field, and
        so does magnetic_rhs: each bundle, and the catalog entries (``z``
        their name) that supply a ``local``."""
        if isinstance(z, str):
            system = get_example(z).system
        else:
            system = build_bundle(z, rho_range=z.default_rho_range).as_system()
        default = dataclasses.replace(system, local=None)
        rng = np.random.default_rng(13)
        for _ in range(20):
            phase = _random_phase_in_range(system, rng)
            assert system.local_geometry(*phase[:2]) == default.local_geometry(*phase[:2])
            assert (np.array(magnetic_rhs(system, phase)).tobytes()
                    == np.array(magnetic_rhs(default, phase)).tobytes())


def _random_phase_in_range(system, rng):
    lo, hi, y0, y1 = system.domain.bbox
    x = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
    return np.array([x, rng.uniform(y0, y1), *rng.normal(size=2)])


class TestConditionD:
    def test_log_radial_value(self):
        """D = rho/(1+rho)^3 for the log profile; 1/8 at rho = 1."""
        np.testing.assert_allclose(condition_D(LogRadial(), 1.0, 0.7), 0.125, rtol=1e-14)

    def test_positive_on_grid(self):
        """The degree-2 polynomial keeps D > 0 over (0, 3] x angles."""
        z = PolynomialCos(2)
        for rho in np.linspace(0.1, 3.0, 30):
            for psi in np.linspace(0.0, 2.0 * math.pi, 30):
                assert condition_D(z, float(rho), float(psi)) > 0.0

    def test_degenerate_at_origin(self):
        """rho = 0 is excluded from the chart."""
        with pytest.raises(DomainError):
            condition_D(LogRadial(), 0.0, 0.0)

    def test_lowest_polynomial_degenerates(self):
        """k = 1 has identically vanishing D: the chart map collapses."""
        z = PolynomialCos(1)
        rng = np.random.default_rng(5)
        for _ in range(25):
            rho = rng.uniform(0.1, 4.0)
            psi = rng.uniform(0.0, 2.0 * math.pi)
            assert abs(condition_D(z, rho, psi)) <= 1e-25


class TestBuildBundle:
    def test_polynomial_reference_metric(self):
        """The degree-2 bundle metric at (1, 0) is diag(8, 32)."""
        bundle = build_bundle(PolynomialCos(2), gamma=1.0, c_energy=1.0)
        g11, g12, g22 = bundle.metric_components(1.0, 0.0)
        np.testing.assert_allclose((g11, g12, g22), (8.0, 0.0, 32.0), atol=1e-12)

    def test_polynomial_field(self):
        """The degree-2 bundle field is gamma cos(2 psi)."""
        bundle = build_bundle(PolynomialCos(2), gamma=1.3)
        for psi in np.linspace(0.0, 2.0 * math.pi, 9):
            np.testing.assert_allclose(bundle.omega(1.7, float(psi)),
                                       1.3 * math.cos(2.0 * psi), atol=1e-12)

    def test_log_nu1_field_zero(self):
        """The log-nu1 field vanishes at psi = pi/2."""
        bundle = build_bundle(LogNu1(), gamma=1.0)
        np.testing.assert_allclose(bundle.omega(1.0, math.pi / 2.0), 0.0, atol=1e-15)

    @pytest.mark.parametrize("constants", [
        {"gamma": 0.0}, {"gamma": math.nan}, {"gamma": math.inf}, {"gamma": -math.inf},
        {"c_energy": math.inf}, {"c_energy": math.nan}, {"c_energy": 0.0},
    ])
    def test_impossible_constants_rejected(self, constants):
        """The metric scales with gamma^2 / C: a zero or non-finite gamma
        or a non-finite or non-positive C is refused before any screen."""
        with pytest.raises(DomainError, match=("gamma" if "gamma" in constants else "energy")):
            build_bundle(PolynomialCos(2), **constants)

    @pytest.mark.parametrize("constants", [{"c_energy": 1e-320}, {"gamma": 1e160}],
                             ids=["tiny-energy", "huge-gamma"])
    def test_geometry_not_finite_at_a_range_end_rejected(self, constants):
        """C rho^5 underflows to 0 at rho = 0.05 when C = 1e-320, and
        gamma^2 overflows when gamma = 1e160: the local geometry at a range
        end is not finite, so the build raises DomainError before any
        screen, and a descriptor with those constants is a ValueError."""
        with pytest.raises(DomainError, match="finite numbers at rho = 0.05"):
            build_bundle(PolynomialCos(2), **constants)
        with pytest.raises(ValueError, match="finite numbers at rho = 0.05"):
            bundle_from_descriptor({"family": "poly-cos", **constants})

    @pytest.mark.parametrize("constants", [{"gamma": 1e-200}, {"gamma": 1e150},
                                           {"c_energy": 1e300}, {"c_energy": 1e-300}],
                             ids=["tiny-gamma", "large-gamma", "huge-energy", "tiny-energy"])
    def test_metric_scale_out_of_range_rejected(self, constants):
        """gamma^2 / C of 1e-400, 1e-300 or 1e300 leaves every metric
        component finite but makes det G = (k D / rho)^2 round to 0 or
        overflow where D is not 0: DomainError before any screen, and a
        descriptor with those constants is a ValueError."""
        with pytest.raises(DomainError, match="det G = (0.0|inf) at rho = 0.05"):
            build_bundle(PolynomialCos(2), **constants)
        with pytest.raises(ValueError, match="metric scale"):
            bundle_from_descriptor({"family": "poly-cos", **constants})

    def test_degenerate_family_rejected(self):
        """The k = 1 polynomial cannot form a bundle."""
        with pytest.raises(DegenerateD):
            build_bundle(PolynomialCos(1))

    @pytest.mark.parametrize("z", [PolynomialCos(2), EllipticHalf()], ids=lambda z: z.family)
    def test_sign_change_of_D_rejected(self, z):
        """On (-0.9, -0.1) every grid value of |D| exceeds 2e-4, but D
        changes sign between grid neighbours, so a zero of D lies between
        them: the screen reads |D| = 0 and the build raises DegenerateD."""
        grid = [(rho, psi) for rho in np.linspace(-0.9, -0.1, 30)
                for psi in np.linspace(0.0, z.psi_period, 30)]
        values = [condition_D(z, rho, psi) for rho, psi in grid]
        assert min(map(abs, values)) > 2e-4 and min(values) < 0.0 < max(values)
        residual, d_min = profile_screen(z, -0.9, -0.1)
        assert residual <= 1e-15 and d_min == 0.0
        with pytest.raises(DegenerateD, match="changes sign"):
            build_bundle(z, rho_range=(-0.9, -0.1))

    def test_screen_reads_one_jet_per_grid_point(self, monkeypatch):
        """The screen evaluates Z's jet once at each of the 30 x 30 points,
        and its radial profile once at each of the 30 rho."""
        calls, radials = [], []
        jet, radial = PolynomialCos.jet, PolynomialCos._radial
        monkeypatch.setattr(PolynomialCos, "jet", lambda z, rho, psi: calls.append(rho) or jet(z, rho, psi))
        monkeypatch.setattr(PolynomialCos, "_radial", lambda z, rho: radials.append(rho) or radial(z, rho))
        profile_screen(PolynomialCos(2), 0.05, 5.0)
        assert len(calls) == 900
        assert radials == np.linspace(0.05, 5.0, 30).tolist()

    def test_screen_overflow_reads_nan_without_warning(self):
        """A jet whose terms overflow gives the screen a NaN residual and an
        infinite |D|, as the same arithmetic on floats does, with no
        RuntimeWarning."""
        class Huge(ZSolution):
            def _radial(self, rho):
                return 1.0, 1.0, 1e308

        residual, d_min = profile_screen(Huge(), 1.0, 2.0)
        assert math.isnan(residual) and d_min == math.inf

    def test_bad_ranges_rejected(self):
        """Empty, zero-crossing or out-of-validity ranges are refused."""
        with pytest.raises(DomainError):
            build_bundle(PolynomialCos(2), rho_range=(2.0, 1.0))
        with pytest.raises(DomainError):
            build_bundle(PolynomialCos(2), rho_range=(-0.5, 1.0))
        with pytest.raises(DomainError):
            build_bundle(LogNu1(), rho_range=(-0.9, -0.1))

    def test_metric_partials_match_differences(self):
        """Bundle metric partials track central differences."""
        for z in BUNDLE_SOLUTIONS:
            rr = (0.1, 3.0) if isinstance(z, EllipticHalf) else (0.05, 5.0)
            bundle = build_bundle(z, rho_range=rr)
            rho, psi = 1.1, 0.9
            want = metric_partials(bundle.as_system().metric, rho, psi, 1e-6)
            got = np.asarray(bundle.as_system().metric.partials(rho, psi))
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("z", BUNDLE_SOLUTIONS, ids=lambda z: z.family)
    def test_periodicity(self, z):
        """Metric and field repeat after one angular period, coefficients
        after two (they carry half-angle factors)."""
        rr = (0.1, 3.0) if isinstance(z, EllipticHalf) else (0.05, 5.0)
        bundle = build_bundle(z, rho_range=rr)
        period = z.psi_period
        for rho, psi in ((0.8, 0.3), (1.7, 2.1)):
            np.testing.assert_allclose(bundle.metric_components(rho, psi),
                                       bundle.metric_components(rho, psi + period),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(bundle.omega(rho, psi),
                                       bundle.omega(rho, psi + period),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(bundle._parts(rho, psi)[:2],
                                       bundle._parts(rho, psi + 2.0 * period)[:2],
                                       rtol=1e-10, atol=1e-12)


class TestBundleIntegral:
    def test_rest_momentum_value(self):
        """With zero momentum the integral reduces to tan(psi/2)."""
        integral = build_bundle(PolynomialCos(2)).as_integral()
        for psi in (0.2, 0.9, 2.0):
            np.testing.assert_allclose(integral((1.3, psi, 0.0, 0.0)),
                                       math.tan(psi / 2.0), rtol=1e-12)

    def test_matches_catalog_at_reference_point(self):
        """At (rho, psi, phi) = (1, 0.4, 1.1) both routes agree to 1e-10."""
        ex5 = get_example("ex5")
        bundle = build_bundle(PolynomialCos(2), gamma=1.0, c_energy=1.0)
        p1, p2 = LEVEL_MOMENTA["ex5"](1.0, 0.4, 1.1)
        phase = (1.0, 0.4, p1, p2)
        np.testing.assert_allclose(bundle.as_integral()(phase),
                                   ex5.integrals[0](phase), atol=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_near_pole_angle_bracket_at_round_off(self):
        """Next to the pole line nothing is refused: at the level momentum
        where D is 2e-13, |{F, H}| is of order 1e11, while the bracket of
        the angle of [N : D], |{F, H}| / (1 + F^2), stays at round-off.
        The angle is found by bisecting D's sign change on the level."""
        bundle = build_bundle(PolynomialCos(2))
        system, integral = bundle.as_system(), bundle.as_integral()
        rho, psi = 1.0, 0.4
        d = bundle._parts(rho, psi)[1]

        def den(phi):
            p1, p2 = momentum_on_level(system, rho, psi, phi)
            return d[0] * p1 + d[1] * p2 + d[2]

        angles = np.linspace(0.0, 2.0 * math.pi, 17).tolist()
        lo, hi = next((a, b) for a, b in zip(angles, angles[1:]) if den(a) * den(b) < 0.0)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if den(lo) * den(mid) <= 0.0 else (mid, hi)
        phase = np.array([rho, psi, *momentum_on_level(system, rho, psi, lo)])
        value = integral(phase)
        bracket = abs(magnetic_bracket_pair(system, integral, hamiltonian_integral(system), phase))
        assert abs(value) > 1e12 and bracket > 1e9
        assert bracket / (1.0 + value * value) <= 1e-14

    def test_call_outside_the_chart_raises(self):
        """Off the family's validity interval a call raises the jet's
        DomainError instead of answering."""
        integral = build_bundle(LogNu1(), rho_range=(0.05, 5.0)).as_integral()
        with pytest.raises(DomainError):
            integral((-0.5, 0.3, 0.1, 0.2))

    @pytest.mark.parametrize("z", BUNDLE_SOLUTIONS, ids=lambda z: z.family)
    def test_gradient_matches_differences(self, z):
        """Analytic gradients of the integral and of H track Richardson
        differences."""
        rr = (0.1, 3.0) if isinstance(z, EllipticHalf) else (0.05, 5.0)
        bundle = build_bundle(z, rho_range=rr)
        system, integral = bundle.as_system(), bundle.as_integral()
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 15:
            state = np.array([rng.uniform(rr[0] + 0.1, rr[1]),
                              rng.uniform(0.0, z.psi_period),
                              rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)])
            try:
                if abs(integral(state)) > 25.0:
                    continue
                got = integral.grad(state)
            except DomainError:
                continue
            want = richardson_gradient(integral.func, state, 1e-6)
            scale = max(1.0, float(np.max(np.abs(got))))
            np.testing.assert_allclose(got / scale, want / scale, atol=1e-6)
            got = np.asarray(hamiltonian_gradient(system, state))
            want = richardson_gradient(lambda s: hamiltonian(system, s, False), state, 1e-6)
            scale = max(1.0, float(np.max(np.abs(got))))
            np.testing.assert_allclose(got / scale, want / scale, atol=1e-6)
            checked += 1

    @pytest.mark.parametrize("gamma, c_energy", [(1.0, 1.0), (1.3, 0.7)])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_declared_level_agrees_with_off_level_scans(self, family, gamma, c_energy):
        """log-radial's integral is declared with level None and the other
        families' at C: default scans at 0.5 C, 1.01 C and 2 C read
        round-off for the one and at least 1e-3 for the others."""
        bundle = build_bundle(FAMILIES[family](), gamma=gamma, c_energy=c_energy)
        system, integral = bundle.as_system(), bundle.as_integral()
        assert integral.level == (None if family == "log-radial" else c_energy)
        for factor in (0.5, 1.01, 2.0):
            report = level_set_bracket_scan(system, integral, energy=factor * c_energy)
            if integral.level is None:
                assert report.max_abs <= 1e-12, factor
            else:
                assert report.max_abs >= 1e-3, factor

    def test_conserved_along_flow(self):
        """The bundle integral drifts below 1e-6 over t = 10."""
        bundle = build_bundle(PolynomialCos(2))
        system = bundle.as_system()
        p1, p2 = momentum_on_level(system, 1.0, 0.7, 0.8)
        trajectory = integrate(system, (1.0, 0.7, p1, p2), TrajectoryConfig(t_end=10.0))
        report = conservation_drift(system, trajectory, bundle.as_integral())
        assert report.max_abs_drift <= 1e-6


FRAME_CASES = [(z, z.default_rho_range) for z in BUNDLE_SOLUTIONS] + [(LogRadial(), (-0.9, -0.1))]


def _frame_id(case):
    z, (lo, hi) = case
    return f"{z.family}-{getattr(z, 'k', '')}-{lo}-{hi}"


class TestFrameIdentities:
    """The metric is k M^T M with det M = -D / rho, and the integral is a
    half-angle rotation of two momentum-linear forms U and V; both are
    checked against formulas written here from the jet of Z."""

    GAMMA, C_ENERGY = 0.7, 1.3

    @staticmethod
    def _samples(z, rho_range, rng, n=60):
        lo, hi = rho_range
        for _ in range(n):
            yield rng.uniform(lo, hi), rng.uniform(0.0, z.psi_period)

    @pytest.mark.parametrize("case", FRAME_CASES, ids=_frame_id)
    def test_det_metric_is_scaled_discriminant(self, case):
        """det G = (k D / rho)^2, k = gamma^2 (rho + 1) / C, to 1e-12."""
        z, rho_range = case
        bundle = build_bundle(z, gamma=self.GAMMA, c_energy=self.C_ENERGY, rho_range=rho_range)
        for rho, psi in self._samples(z, rho_range, np.random.default_rng(31)):
            g11, g12, g22 = bundle.metric_components(rho, psi)
            k = self.GAMMA ** 2 * (rho + 1.0) / self.C_ENERGY
            want = (k * condition_D(z, rho, psi) / rho) ** 2
            assert abs(g11 * g22 - g12 * g12 - want) <= 1e-12 * want

    @pytest.mark.parametrize("case", FRAME_CASES, ids=_frame_id)
    def test_integral_is_a_half_angle_rotation(self, case):
        """F = tan(psi/2 + atan2(V, U)) with U = (rho Z_rp - Z_p) p_r -
        rho Z_rr p_p + gamma D and V = (Z_pp + rho Z_r) p_r - t p_p, to
        1e-12 of max(1, |F|), at momenta on the level where |F| <= 10."""
        z, rho_range = case
        bundle = build_bundle(z, gamma=self.GAMMA, c_energy=self.C_ENERGY, rho_range=rho_range)
        system, integral = bundle.as_system(), bundle.as_integral()
        rng = np.random.default_rng(32)
        checked = 0
        for rho, psi in self._samples(z, rho_range, rng):
            p_r, p_p = momentum_on_level(system, rho, psi, rng.uniform(0.0, 2.0 * math.pi))
            phase = (rho, psi, p_r, p_p)
            if abs(integral(phase)) > 10.0:
                continue
            _, z_r, z_p, z_rr, z_rp, z_pp = z.jet(rho, psi)[:6]
            t = z_rp - z_p / rho
            u = (rho * z_rp - z_p) * p_r - rho * z_rr * p_p + self.GAMMA * condition_D(z, rho, psi)
            v = (z_pp + rho * z_r) * p_r - t * p_p
            got = integral(phase)
            assert abs(got - math.tan(0.5 * psi + math.atan2(v, u))) <= 1e-12 * max(1.0, abs(got))
            checked += 1
        assert checked >= 30


def _local_chart(name):
    """(system, bundle) of a catalog entry (bundle None) or of a bundle of
    the named family."""
    if name not in FAMILIES:
        return get_example(name).system, None
    bundle = build_bundle(FAMILIES[name](), gamma=0.7, c_energy=1.3)
    return bundle.as_system(), bundle


class TestLocalViews:
    @pytest.mark.parametrize("name", ["ex3", "ex4", "ex5", "ex6", *sorted(FAMILIES)])
    def test_metric_and_field_are_views_of_local(self, name):
        """On every chart with a ``local`` (ex3-ex6 and a bundle of each
        family), the metric components, metric partials and field are its
        entries bit for bit, and a bundle's ``metric_components`` and
        ``omega`` are its system's."""
        system, bundle = _local_chart(name)
        points = system.domain.grid(3, 3, margin=0.1)
        assert len(points) >= 4, name
        for x, y in points:
            g, dg, omega = system.local(x, y)
            assert system.metric.components(x, y) == g
            assert system.metric.partials(x, y) == dg
            assert system.field(x, y) == omega
            if bundle is not None:
                assert bundle.metric_components(x, y) == g
                assert bundle.omega(x, y) == omega


class TestDualPath:
    @pytest.mark.parametrize("name", ["ex5", "ex6"])
    def test_builder_reproduces_catalog(self, name):
        """The generic bundle equals the catalog entry at random phases."""
        entry = get_example(name)
        bundle = bundle_from_descriptor(entry.bundle_descriptor)
        system, bundle_integral = entry.system, bundle.as_integral()
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            rho = rng.uniform(0.15, 3.0)
            psi = rng.uniform(0.0, 2.0 * math.pi)
            if not system.domain.contains(rho, psi):
                continue
            np.testing.assert_allclose(bundle.metric_components(rho, psi),
                                       system.metric.components(rho, psi),
                                       rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(bundle.omega(rho, psi),
                                       system.field(rho, psi), rtol=1e-10, atol=1e-10)
            phase = np.array([rho, psi, *LEVEL_MOMENTA[name](
                rho, psi, rng.uniform(0.0, 2.0 * math.pi))])
            integral = entry.integrals[0]
            np.testing.assert_allclose(bundle_integral(phase),
                                       integral(phase), rtol=1e-10, atol=1e-10)
            checked += 1

    @pytest.mark.parametrize("name", ["ex5", "ex6"])
    def test_momentum_parametrization_on_level(self, name):
        """Printed momenta land on H = C/2 to 1e-12."""
        entry = get_example(name)
        rng = np.random.default_rng(8)
        count = 0
        while count < 100:
            rho = rng.uniform(0.15, 3.0)
            psi = rng.uniform(0.0, 2.0 * math.pi)
            if not entry.system.domain.contains(rho, psi):
                continue
            phi = rng.uniform(0.0, 2.0 * math.pi)
            p1, p2 = LEVEL_MOMENTA[name](rho, psi, phi)
            h = hamiltonian(entry.system, (rho, psi, p1, p2))
            np.testing.assert_allclose(h, entry.system.energy / 2.0, atol=1e-12)
            count += 1


class TestDescriptors:
    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(z=st.sampled_from(BUNDLE_SOLUTIONS), gamma=st.floats(0.1, 10.0),
           c_energy=st.floats(0.1, 10.0), lo=st.floats(0.0, 0.45),
           hi=st.floats(0.55, 1.0))
    def test_roundtrip(self, z, gamma, c_energy, lo, hi):
        """descriptor() -> bundle_from_descriptor reproduces the bundle."""
        dlo, dhi = z.default_rho_range
        rho_range = (dlo + lo * (dhi - dlo), dlo + hi * (dhi - dlo))
        bundle = build_bundle(z, gamma=gamma, c_energy=c_energy, rho_range=rho_range)
        clone = bundle_from_descriptor(json.loads(json.dumps(bundle.descriptor())))
        assert clone.descriptor() == bundle.descriptor()
        assert clone.z.descriptor() == z.descriptor()
        rho = 0.5 * (rho_range[0] + rho_range[1])
        np.testing.assert_allclose(clone.metric_components(rho, 0.5),
                                   bundle.metric_components(rho, 0.5), rtol=1e-15)

    @pytest.mark.parametrize("z", [PolynomialCos(2), LogRadial(), LogNu1(), EllipticHalf()],
                             ids=lambda z: z.family)
    def test_default_rho_range(self, z):
        """Without a rho range, a bundle built directly or from a
        descriptor works on its family's default range."""
        assert build_bundle(z).rho_range == z.default_rho_range
        bundle = bundle_from_descriptor(z.descriptor())
        assert bundle.rho_range == z.default_rho_range

    def test_solution_descriptor_roundtrip(self):
        """Family descriptors rebuild the same solution values."""
        for z in ALL_SOLUTIONS:
            clone = solution_from_descriptor(z.descriptor())
            rho, psi = 0.9, 1.2
            np.testing.assert_allclose(clone.value(rho, psi), z.value(rho, psi),
                                       rtol=1e-15)

    def test_schema_violations(self):
        """Missing family, bad family and bad energy are ValueErrors."""
        good = build_bundle(PolynomialCos(2)).descriptor()
        with pytest.raises(ValueError):
            solution_from_descriptor({"parameters": {}})
        with pytest.raises(ValueError):
            solution_from_descriptor({"family": "nope", "parameters": {}})
        bad_energy = dict(good)
        bad_energy["c_energy"] = -1.0
        with pytest.raises(ValueError):
            bundle_from_descriptor(bad_energy)

    @pytest.mark.parametrize("family", ["log-radial", "log-nu1", "elliptic-half"])
    @pytest.mark.parametrize("name", ["k", "psi0"])
    def test_parameter_the_family_does_not_take(self, family, name):
        """Only poly-cos takes k and psi0; any other family refuses them by
        name instead of dropping them."""
        with pytest.raises(ValueError, match=f"{family!r} takes no parameter {name!r}"):
            solution_from_descriptor({"family": family, "parameters": {name: 1}})

    def test_poly_cos_defaults(self):
        """A poly-cos descriptor without parameters is k = 2, psi0 = 0."""
        solution = solution_from_descriptor({"family": "poly-cos"})
        assert solution.params() == {"k": 2, "psi0": 0.0} == PolynomialCos().params()

    @pytest.mark.parametrize("psi0", [math.nan, math.inf, -math.inf])
    def test_non_finite_psi0_rejected(self, psi0):
        """A non-finite angular offset is a DomainError naming psi0, built
        directly or from a descriptor."""
        with pytest.raises(DomainError, match="psi0"):
            PolynomialCos(2, psi0=psi0)
        with pytest.raises(DomainError, match="psi0"):
            solution_from_descriptor({"family": "poly-cos", "parameters": {"k": 2, "psi0": psi0}})

    @pytest.mark.parametrize("k", [0, -1])
    def test_degree_below_one_rejected(self, k):
        """The coefficient recurrence is the family's one degree check: it
        refuses k < 1."""
        with pytest.raises(DomainError, match="positive integer"):
            PolynomialCos(k)

    def test_family_registry(self):
        """The registry lists exactly the four shipped families."""
        assert set(FAMILIES) == {"poly-cos", "log-radial", "log-nu1", "elliptic-half"}


class TestChartMap:
    def test_log_radial_closed_form(self):
        """chart_to_xy on the log profile is (-cos, sin) psi / (1 + rho)."""
        for rho, psi in ((0.5, 0.3), (2.0, 1.9), (0.1, 4.4)):
            x, y = chart_to_xy(LogRadial(), rho, psi)
            np.testing.assert_allclose(x, -math.cos(psi) / (1.0 + rho), rtol=1e-14)
            np.testing.assert_allclose(y, math.sin(psi) / (1.0 + rho), rtol=1e-14)

    def test_log_radial_inverse(self):
        """xy_to_chart_logradial inverts the forward map."""
        for rho, psi in ((0.5, 0.3), (2.0, 1.9), (0.7, 2.8)):
            x, y = chart_to_xy(LogRadial(), rho, psi)
            rho2, psi2 = xy_to_chart_logradial(x, y)
            np.testing.assert_allclose((rho2, psi2), (rho, psi), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("z", ALL_SOLUTIONS, ids=lambda z: z.family)
    def test_generic_formula(self, z):
        """The map combines the gradient in a rotating frame."""
        rho, psi = 1.3, 0.8
        _, z_r, z_p = z.jet(rho, psi)[:3]
        x, y = chart_to_xy(z, rho, psi)
        np.testing.assert_allclose(
            (x, y),
            (-z_r * math.cos(psi) + (z_p / rho) * math.sin(psi),
             z_r * math.sin(psi) + (z_p / rho) * math.cos(psi)),
            rtol=1e-14, atol=1e-15)

    def test_jacobian_nonsingular_where_d_positive(self):
        """The chart map's difference Jacobian inverts where D > 0."""
        z = PolynomialCos(2)
        h = 1e-6
        for rho, psi in ((0.7, 0.5), (1.5, 2.2), (2.5, 4.0)):
            assert condition_D(z, rho, psi) > 0.0
            jac = np.zeros((2, 2))
            xp = chart_to_xy(z, rho + h, psi)
            xm = chart_to_xy(z, rho - h, psi)
            yp = chart_to_xy(z, rho, psi + h)
            ym = chart_to_xy(z, rho, psi - h)
            jac[:, 0] = [(xp[0] - xm[0]) / (2 * h), (xp[1] - xm[1]) / (2 * h)]
            jac[:, 1] = [(yp[0] - ym[0]) / (2 * h), (yp[1] - ym[1]) / (2 * h)]
            assert abs(np.linalg.det(jac)) > 1e-6

    def test_degenerate_at_origin(self):
        """rho = 0 is not chartable."""
        with pytest.raises(DomainError):
            chart_to_xy(LogRadial(), 0.0, 1.0)

