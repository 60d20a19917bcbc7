"""Magnetic brackets, level-set scans and functional independence."""

import math

import numpy as np
import pytest

from magflows.catalog import get_example, list_examples
from magflows.errors import DomainError, GuardError
from magflows.geometry import (
    ChartDomain,
    MagneticSystem,
    Metric,
    hamiltonian,
    momentum_on_level,
    vector_field,
)
from magflows.integrals import (
    BracketScanConfig,
    FirstIntegral,
    functional_independence_rank,
    hamiltonian_integral,
    level_set_bracket_scan,
    magnetic_bracket_fd,
    magnetic_bracket_pair,
)

RNG = np.random.default_rng(0)


def _random_phase(system, rng, on_level=True, energy=None):
    x0, x1, y0, y1 = system.domain.bbox
    while True:
        x = rng.uniform(x0, x1)
        y = rng.uniform(y0, y1)
        if not system.domain.contains(x, y):
            continue
        if on_level:
            p1, p2 = momentum_on_level(system, x, y, rng.uniform(0.0, 2.0 * math.pi),
                                       energy=energy)
        else:
            p1, p2 = rng.normal(scale=1.5, size=2)
        return np.array([x, y, p1, p2])


class TestFirstIntegral:
    def test_call_evaluates(self):
        """The wrapper is a plain callable on a 4-vector."""
        ex1 = get_example("ex1")
        value = ex1.integrals[0]((0.0, 0.0, 1.0, 0.0))
        np.testing.assert_allclose(value, math.cos(1.0), rtol=1e-15)

    def test_all_levels_flag(self):
        """level=None admits every energy; a set level is specific."""
        ex1 = get_example("ex1")
        ex5 = get_example("ex5")
        assert ex1.integrals[0].all_levels
        assert not ex5.integrals[0].all_levels

    def test_guard_raises(self):
        """Calling past the guard raises GuardError."""
        integral = FirstIntegral(name="F", kind="rational",
                                 func=lambda s: 1.0 / s[2],
                                 guard=lambda s: abs(s[2]) > 1e-8)
        assert integral.admits((0.0, 0.0, 1.0, 0.0))
        assert not integral.admits((0.0, 0.0, 0.0, 1.0))
        with pytest.raises(GuardError):
            integral((0.0, 0.0, 0.0, 1.0))

    def test_bundle_pole_is_guarded(self):
        """A phase on the rational integral's pole line is rejected."""
        from magflows.rational import PolynomialCos, build_bundle

        bundle = build_bundle(PolynomialCos(2))
        a0, a1, b0, b1, d = bundle.integral_coefficients(1.0, 0.4)
        c0 = bundle.gamma * d * math.cos(0.2)
        pole = np.array([1.0, 0.4, -c0 / b0, 0.0])
        integral = bundle.as_integral()
        assert not integral.admits(pole)
        with pytest.raises(GuardError):
            integral(pole)


class TestMagneticBracket:
    def test_linear_integral_any_energy(self):
        """Example 2's p1 + u(y) commutes with H at any momentum."""
        ex2 = get_example("ex2")
        rng = np.random.default_rng(1)
        for _ in range(50):
            phase = _random_phase(ex2.system, rng, on_level=False)
            value = magnetic_bracket_fd(ex2.system, ex2.integrals[0], phase)
            assert abs(value) <= 1e-8

    def test_hamiltonian_self_bracket(self):
        """{H, H} vanishes identically on every catalog chart."""
        rng = np.random.default_rng(2)
        for entry in list_examples():
            ham = hamiltonian_integral(entry.system)
            for _ in range(20):
                phase = _random_phase(entry.system, rng)
                value = magnetic_bracket_pair(entry.system, ham, ham, phase)
                assert abs(value) <= 1e-10

    def test_level_specific_integral_on_level(self):
        """Example 5's integral commutes on {H = C/2} to 1e-7."""
        ex5 = get_example("ex5")
        integral = ex5.integrals[0]
        rng = np.random.default_rng(3)
        count = 0
        while count < 50:
            phase = _random_phase(ex5.system, rng)
            if not integral.admits(phase):
                continue
            value = magnetic_bracket_pair(ex5.system, integral,
                                          hamiltonian_integral(ex5.system), phase)
            assert abs(value) <= 1e-7
            count += 1

    def test_level_specific_integral_off_level(self):
        """Doubling the energy breaks the bracket well past 1e-3."""
        ex5 = get_example("ex5")
        integral = ex5.integrals[0]
        rng = np.random.default_rng(4)
        worst = 0.0
        count = 0
        while count < 50:
            phase = _random_phase(ex5.system, rng, energy=2.0 * ex5.system.energy)
            if not integral.admits(phase):
                continue
            worst = max(worst, abs(magnetic_bracket_pair(
                ex5.system, integral, hamiltonian_integral(ex5.system), phase)))
            count += 1
        assert worst > 1e-3

    def test_antisymmetry_with_analytic_partials(self):
        """On every catalog chart u . X_v = -v . X_u for any gradients u, v,
        and {F, H} = -{H, F} to round-off when both carry gradients."""
        rng = np.random.default_rng(5)
        for entry in list_examples():
            system = entry.system
            ham = hamiltonian_integral(system)
            analytic = [f for f in entry.integrals if f.grad is not None]
            for _ in range(20):
                phase = _random_phase(system, rng)
                u, v = rng.normal(size=(2, 4))
                forward = u @ vector_field(system, phase[0], phase[1], v)
                backward = v @ vector_field(system, phase[0], phase[1], u)
                assert abs(forward + backward) <= 1e-12 * max(1.0, abs(forward))
                for integral in analytic:
                    if not integral.admits(phase):
                        continue
                    forward = magnetic_bracket_pair(system, integral, ham, phase)
                    backward = magnetic_bracket_pair(system, ham, integral, phase)
                    assert abs(forward + backward) <= 1e-12 * max(1.0, abs(forward))

    def test_fd_and_pair_agree(self):
        """The difference-quotient route tracks the gradient route."""
        ex2 = get_example("ex2")
        phase = np.array([0.3, -0.4, 0.8, 0.1])
        fd = magnetic_bracket_fd(ex2.system, ex2.integrals[0], phase)
        pair = magnetic_bracket_pair(ex2.system, ex2.integrals[0],
                                     hamiltonian_integral(ex2.system), phase)
        np.testing.assert_allclose(fd, pair, atol=1e-9)


class TestLevelSetScan:
    def test_quadratic_example_meets_bar(self):
        """Example 3 scans clean at 1e-6 over 20 x 20 x 16 samples."""
        ex3 = get_example("ex3")
        report = level_set_bracket_scan(ex3.system, ex3.integrals[0])
        assert report.max_abs <= 1e-6
        assert report.count > 0

    def test_transcendental_example_tight(self):
        """Example 1 scans to 1e-8 at a doubled energy too."""
        ex1 = get_example("ex1")
        report = level_set_bracket_scan(ex1.system, ex1.integrals[0], energy=2.0)
        assert report.max_abs <= 1e-8

    def test_corrupted_integral_detected(self):
        """Adding 0.01 q1 to a true integral pushes the scan past 1e-3."""
        ex3 = get_example("ex3")
        true_integral = ex3.integrals[0]
        corrupted = FirstIntegral(
            name="F_corrupt", kind=true_integral.kind,
            func=lambda s: true_integral.func(s) + 0.01 * s[0],
            level=true_integral.level, guard=true_integral.guard)
        report = level_set_bracket_scan(ex3.system, corrupted)
        assert report.max_abs > 1e-3

    def test_empty_grid_raises(self):
        """A predicate that rejects everything is a domain error."""
        metric = Metric(components=lambda x, y: (1.0, 0.0, 1.0))
        domain = ChartDomain(bbox=(0.0, 1.0, 0.0, 1.0), predicate=lambda x, y: False)
        system = MagneticSystem(metric=metric, field=lambda x, y: 0.0,
                                domain=domain, energy=1.0, name="empty")
        with pytest.raises(DomainError):
            level_set_bracket_scan(system, FirstIntegral(
                name="F", kind="linear", func=lambda s: s[2]))

    def test_all_guarded_raises(self):
        """A guard that rejects every phase is reported as GuardError."""
        ex1 = get_example("ex1")
        blocked = FirstIntegral(name="F", kind="rational", func=lambda s: 0.0,
                                guard=lambda s: False)
        with pytest.raises(GuardError):
            level_set_bracket_scan(ex1.system, blocked)

    def test_worst_sample_reported(self):
        """The report carries the worst grid point and angle."""
        ex3 = get_example("ex3")
        report = level_set_bracket_scan(ex3.system, ex3.integrals[0])
        assert report.worst is not None and len(report.worst) == 3
        assert ex3.system.domain.contains(report.worst[0], report.worst[1])


class TestIndependenceRank:
    def test_superintegrable_example_has_rank_three(self):
        """H, F, F1 of Example 4 are independent at 20 random phases."""
        ex4 = get_example("ex4")
        ham = hamiltonian_integral(ex4.system)
        fns = [ham, ex4.integrals[0], ex4.integrals[1]]
        rng = np.random.default_rng(6)
        count = 0
        while count < 20:
            phase = _random_phase(ex4.system, rng)
            if not all(f.admits(phase) for f in fns):
                continue
            assert functional_independence_rank(fns, phase) == 3
            count += 1

    def test_duplicate_function_has_rank_one(self):
        """(H, H) can never exceed rank 1."""
        ex1 = get_example("ex1")
        ham = hamiltonian_integral(ex1.system)
        phase = np.array([0.3, 0.1, 0.7, 0.4])
        assert functional_independence_rank([ham, ham], phase) == 1

    def test_integrable_pair_has_rank_two(self):
        """(H, F) on Example 5 gives rank 2."""
        ex5 = get_example("ex5")
        ham = hamiltonian_integral(ex5.system)
        rng = np.random.default_rng(7)
        count = 0
        while count < 10:
            phase = _random_phase(ex5.system, rng)
            if not ex5.integrals[0].admits(phase):
                continue
            rank = functional_independence_rank([ham, ex5.integrals[0]], phase)
            assert rank == 2
            count += 1


class TestScanConfig:
    def test_defaults(self):
        """The default scan is 20 x 20 points and 16 angles."""
        config = BracketScanConfig()
        assert (config.nx, config.ny, config.n_angles) == (20, 20, 16)
