"""Algebraic field solves, continuation and the quadratic-integral surface."""

import math

import numpy as np
import pytest

from magflows.errors import DomainError, SingularPoint
from magflows.flow import TrajectoryConfig, conservation_drift, integrate
from magflows.geometry import hamiltonian, momentum_on_level
from magflows.hodograph import (
    EXAMPLE3_BBOX,
    FieldPoint,
    HodographConstants,
    algebraic_jacobian,
    algebraic_residual,
    closed_form_abzero,
    continued_solve,
    example3_system,
    magnetic_from_fg,
    newton_solve,
    pde41_residual_fd,
    reconstruct_fields,
)
from magflows.integrals import level_set_bracket_scan, magnetic_bracket_pair, hamiltonian_integral

RNG = np.random.default_rng(0)

K0 = HodographConstants(alpha=0.0, beta=0.0, gamma=0.5, delta=-0.3,
                        epsilon=1.0, zeta=2.0)


def _field_point(k, f, g):
    lam, u0 = reconstruct_fields(k, f, g)
    return FieldPoint(f=f, g=g, lam=lam, u0=u0)


def _closed_form_sampler(k):
    def sampler(x, y):
        return closed_form_abzero(k, x, y)[0]

    return sampler


class TestConstants:
    def test_zero_zeta_rejected(self):
        """zeta = 0 only admits trivial solutions and is refused."""
        with pytest.raises(DomainError, match="trivial"):
            HodographConstants(zeta=0.0)

    def test_with_ab(self):
        """with_ab swaps in new continuation targets, all else equal."""
        moved = K0.with_ab(0.1, 0.05)
        assert (moved.alpha, moved.beta) == (0.1, 0.05)
        assert (moved.gamma, moved.zeta) == (K0.gamma, K0.zeta)


class TestClosedForm:
    def test_algebraic_residuals_vanish(self):
        """The printed closed form solves both cubic relations."""
        for _ in range(40):
            x, y = RNG.uniform(0.4, 3.0, size=2)
            point, _ = closed_form_abzero(K0, x, y)
            r1, r2 = algebraic_residual(K0, x, y, point.f, point.g)
            assert abs(r1) <= 1e-12 and abs(r2) <= 1e-12

    def test_magnetic_coefficient_value(self):
        """With defaults the field at (1, 0) equals -1/3."""
        k = HodographConstants()
        _, omega = closed_form_abzero(k, 1.0, 0.0)
        np.testing.assert_allclose(omega, -1.0 / 3.0, rtol=1e-14)

    def test_singular_center_rejected(self):
        """The cube-root branch point is reported, not evaluated."""
        k = HodographConstants()
        with pytest.raises(SingularPoint):
            closed_form_abzero(k, 0.0, 0.0)

    def test_only_at_zero_continuation_targets(self):
        """Nonzero alpha, beta have no closed form here."""
        with pytest.raises(DomainError):
            closed_form_abzero(K0.with_ab(0.1, 0.0), 1.0, 1.0)


class TestNewton:
    def test_recovers_closed_form(self):
        """From a perturbed seed Newton lands on the closed form."""
        for _ in range(20):
            x, y = RNG.uniform(0.5, 2.5, size=2)
            point, _ = closed_form_abzero(K0, x, y)
            result = newton_solve(K0, x, y, (point.f + 0.05, point.g - 0.04),
                                  tol=1e-13)
            np.testing.assert_allclose((result.f, result.g), (point.f, point.g),
                                       atol=1e-10)
            assert result.residual_inf <= 1e-13
            assert result.iterations <= 50
            assert np.isfinite(result.jacobian_cond)

    def test_jacobian_matches_differences(self):
        """The analytic 2x2 Jacobian agrees with central differences."""
        f, g = 0.37, -0.85
        jac = np.asarray(algebraic_jacobian(K0, 1.0, 1.0, f, g))
        h = 1e-7
        fd = np.zeros((2, 2))
        for j, (df, dg) in enumerate(((h, 0.0), (0.0, h))):
            rp = algebraic_residual(K0, 1.0, 1.0, f + df, g + dg)
            rm = algebraic_residual(K0, 1.0, 1.0, f - df, g - dg)
            fd[0, j] = (rp[0] - rm[0]) / (2.0 * h)
            fd[1, j] = (rp[1] - rm[1]) / (2.0 * h)
        np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-8)


class TestContinuation:
    def test_reaches_target_constants(self):
        """Continuation converges at alpha = 0.1, beta = 0.05."""
        k = K0.with_ab(0.1, 0.05)
        for _ in range(10):
            x, y = RNG.uniform(0.6, 2.4, size=2)
            result = continued_solve(k, x, y)
            r1, r2 = algebraic_residual(k, x, y, result.f, result.g)
            assert abs(r1) <= 1e-12 and abs(r2) <= 1e-12

    def test_collapses_to_newton_at_zero(self):
        """At alpha = beta = 0 continuation returns the closed form."""
        point, _ = closed_form_abzero(K0, 1.3, 0.9)
        result = continued_solve(K0, 1.3, 0.9)
        np.testing.assert_allclose((result.f, result.g), (point.f, point.g),
                                   atol=1e-12)


class TestFirstOrderSystem:
    def test_residual_second_order_in_step(self):
        """The system residual on the closed form decreases as h^2."""
        sampler = _closed_form_sampler(K0)
        points = [(0.7, 0.9), (1.2, 1.7), (2.1, 0.6)]
        maxima = []
        for h in (1e-3, 5e-4, 2.5e-4):
            maxima.append(max(
                float(np.max(np.abs(pde41_residual_fd(sampler, x, y, h=h))))
                for x, y in points))
        assert maxima[0] / maxima[1] == pytest.approx(4.0, rel=0.3)
        assert maxima[1] / maxima[2] == pytest.approx(4.0, rel=0.3)
        assert maxima[0] > maxima[1] > maxima[2]

    def test_residual_small_at_standard_step(self):
        """At h = 1e-4 the closed-form residual is below 1e-7."""
        sampler = _closed_form_sampler(K0)
        residual = pde41_residual_fd(sampler, 1.2, 1.7, h=1e-4)
        assert float(np.max(np.abs(residual))) <= 1e-7

    def test_residual_small_on_continuation(self):
        """Continuation solutions meet the same 1e-7 bar at h = 1e-4."""
        k = K0.with_ab(0.1, 0.05)
        cache = {}

        def sampler(x, y):
            if (x, y) not in cache:
                result = continued_solve(k, x, y)
                cache[(x, y)] = _field_point(k, result.f, result.g)
            return cache[(x, y)]

        for x, y in ((0.8, 1.1), (1.9, 0.7)):
            residual = pde41_residual_fd(sampler, x, y, h=1e-4)
            assert float(np.max(np.abs(residual))) <= 1e-7

    def test_magnetic_coefficient_from_fields(self):
        """(g_x - f_y)/4 via differences matches the closed form to 1e-10."""
        sampler = _closed_form_sampler(K0)
        for x, y in ((0.8, 0.8), (1.5, 2.0), (2.2, 1.1)):
            _, omega = closed_form_abzero(K0, x, y)
            got = magnetic_from_fg(sampler, x, y, h=1e-3)
            np.testing.assert_allclose(got, omega, atol=1e-10)


class TestExample3Surface:
    def test_metric_positive_definite_in_window(self):
        """The declared window keeps the metric positive definite."""
        system, _ = example3_system()
        x0, x1, y0, y1 = EXAMPLE3_BBOX
        for x in np.linspace(x0 + 0.01, x1 - 0.01, 8):
            for y in np.linspace(y0 + 0.01, y1 - 0.01, 8):
                system.metric.inverse(float(x), float(y))

    def test_metric_values_at_reference_point(self):
        """At (4, 0) the metric matrix is diag(512, 512)."""
        system, _ = example3_system()
        g11, g12, g22 = system.metric.components(4.0, 0.0)
        np.testing.assert_allclose((g11, g12, g22), (512.0, 0.0, 512.0), atol=1e-10)

    def test_metric_partials_match_differences(self):
        """Hand partials of the cubic-surface metric track FD."""
        system, _ = example3_system()
        for x, y in ((4.0, 0.0), (3.6, 0.3), (4.5, -0.5)):
            want = np.zeros((2, 3))
            h = 1e-6
            for j, comp in enumerate((0, 1, 2)):
                want[0, j] = (system.metric.components(x + h, y)[comp]
                              - system.metric.components(x - h, y)[comp]) / (2 * h)
                want[1, j] = (system.metric.components(x, y + h)[comp]
                              - system.metric.components(x, y - h)[comp]) / (2 * h)
            got = np.asarray(system.metric.partials(x, y))
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-4)

    def test_integral_commutes_on_level(self):
        """The quadratic integral passes the default level-set scan."""
        system, integral = example3_system()
        report = level_set_bracket_scan(system, integral)
        assert report.max_abs <= 1e-6

    def test_integral_conserved_along_flow(self):
        """Trajectory drift of the quadratic integral stays below 1e-6."""
        system, integral = example3_system()
        p1, p2 = momentum_on_level(system, 4.0, 0.0, 0.4)
        trajectory = integrate(system, (4.0, 0.0, p1, p2),
                               TrajectoryConfig(t_end=10.0))
        report = conservation_drift(system, trajectory, integral)
        assert report.max_abs_drift <= 1e-6

    def test_off_level_bracket_breaks(self):
        """At H = C the bracket magnitude exceeds 1e-3 somewhere."""
        system, integral = example3_system()
        ham = hamiltonian_integral(system)
        worst = 0.0
        for phi in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            p1, p2 = momentum_on_level(system, 4.0, 0.2, phi,
                                       energy=2.0 * system.energy)
            worst = max(worst, abs(magnetic_bracket_pair(
                system, integral, ham, (4.0, 0.2, p1, p2))))
        assert worst > 1e-3
