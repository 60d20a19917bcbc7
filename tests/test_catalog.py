"""Catalog entries: metadata, declared levels, conservation and curvature."""

import math

import numpy as np
import pytest

from magflows.catalog import EXAMPLE_NAMES, get_example, list_examples
from magflows.errors import UnknownExample
from magflows.flow import TrajectoryConfig, conservation_drift, integrate
from magflows.geometry import (
    gaussian_curvature,
    hamiltonian,
    hamiltonian_gradient,
    momentum_on_level,
)
from magflows.integrals import hamiltonian_integral
from oracles import magnetic_bracket_pair
from richardson import richardson_gradient

ALL_NAMES = ["ex1", "ex2", "ex2b", "ex3", "ex4", "ex5", "ex6"]


class TestListing:
    def test_seven_entries(self):
        """The catalog ships seven worked systems."""
        entries = list_examples()
        assert [e.name for e in entries] == ALL_NAMES
        assert list(EXAMPLE_NAMES) == ALL_NAMES

    def test_entries_are_described(self):
        """Every entry carries a description, integrals and probes."""
        for entry in list_examples():
            assert entry.description
            assert entry.integrals
            assert len(entry.curvature_probes) >= 1
            assert len(entry.sample_phases) >= 3
            assert entry.curvature_kind in ("flat", "curved")

    def test_unknown_name_rejected(self):
        """Lookup failures raise UnknownExample with the valid names."""
        with pytest.raises(UnknownExample, match="ex1"):
            get_example("ex9")


class TestReferenceValues:
    def test_transcendental_integral_at_unit_momentum(self):
        """The uniform-field integral evaluates to cos(1) at p = (1, 0)."""
        entry = get_example("ex1")
        np.testing.assert_allclose(entry.integrals[0]((0.0, 0.0, 1.0, 0.0)),
                                   math.cos(1.0), rtol=1e-15)

    def test_superintegrable_integral_at_rest(self):
        """The rotational integral is 1 at (0, 1) with zero momentum."""
        entry = get_example("ex4")
        np.testing.assert_allclose(entry.integrals[0]((0.0, 1.0, 0.0, 0.0)),
                                   1.0, rtol=1e-15)

    def test_channel_variants_differ(self):
        """The two translational-symmetry entries are distinct systems."""
        a = get_example("ex2").system
        b = get_example("ex2b").system
        assert abs(a.field(0.5, 0.4) - b.field(0.5, 0.4)) > 1e-3
        assert abs(a.metric.components(0.5, 0.4)[0]
                   - b.metric.components(0.5, 0.4)[0]) > 1e-3

    def test_superintegrable_count(self):
        """Only the flat inverse-radius entry declares three independents."""
        for entry in list_examples():
            if entry.name == "ex4":
                assert entry.independent_count == 3
            else:
                assert entry.independent_count is None


class TestDeclaredLevel:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_sample_phases_on_level(self, name):
        """Shipped sample phases sit on H = C/2 to 1e-13."""
        entry = get_example(name)
        target = entry.system.energy / 2.0
        for phase in entry.sample_phases:
            np.testing.assert_allclose(hamiltonian(entry.system, phase),
                                       target, atol=1e-13)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_hamiltonian_gradient_matches_differences(self, name):
        """hamiltonian_gradient tracks Richardson differences of H, on and
        off the declared level."""
        entry = get_example(name)
        system = entry.system
        for phase in entry.sample_phases:
            for state in (phase, phase * np.array([1.0, 1.0, 1.7, -0.6])):
                got = np.asarray(hamiltonian_gradient(system, state))
                want = richardson_gradient(lambda s: hamiltonian(system, s), state, 1e-5)
                scale = max(1.0, float(np.max(np.abs(got))))
                np.testing.assert_allclose(got / scale, want / scale, atol=1e-7)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_conservation_over_flow(self, name):
        """Every integral drifts below 1e-6 along a t = 10 trajectory."""
        entry = get_example(name)
        trajectory = integrate(entry.system, entry.sample_phases[0],
                               TrajectoryConfig(t_end=10.0))
        assert not trajectory.domain_exit
        for integral in entry.integrals:
            report = conservation_drift(entry.system, trajectory, integral)
            assert report.max_abs_drift <= 1e-6

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex2b", "ex4"])
    def test_long_run_drift_rate(self, name):
        """On each entry whose orbit stays in its chart, H and every
        integral drift by at most 1e-11 T from sample_phases[0] with the
        default tolerances to T = 100; drift grows about linearly in T,
        and the largest measured is 1.4e-10 (ex1's H)."""
        entry = get_example(name)
        t_end = 100.0
        trajectory = integrate(entry.system, entry.sample_phases[0],
                               TrajectoryConfig(t_end=t_end))
        assert not trajectory.domain_exit
        for scalar in (hamiltonian_integral(entry.system), *entry.integrals):
            drift = conservation_drift(entry.system, trajectory, scalar).max_abs_drift
            assert drift <= 1e-11 * t_end, (scalar.name, drift)

    def test_off_level_bracket_grows(self):
        """Doubling the energy breaks the log-profile entry's integral."""
        entry = get_example("ex6")
        worst = 0.0
        x, y = 1.0, 0.6
        for phi in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            p1, p2 = momentum_on_level(entry.system, x, y, float(phi),
                                       energy=2.0 * entry.system.energy)
            phase = (x, y, p1, p2)
            if not entry.integrals[0].admits(phase):
                continue
            worst = max(worst, abs(magnetic_bracket_pair(
                entry.system, entry.integrals[0], hamiltonian_integral(entry.system), phase)))
        assert worst > 1e-3


class TestCurvature:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_probes_match_declared_kind(self, name):
        """Flat entries stay below 1e-6; curved exceed 1e-3 somewhere."""
        entry = get_example(name)
        values = [abs(gaussian_curvature(entry.system.metric, x, y, h=1e-4))
                  for x, y in entry.curvature_probes]
        if entry.curvature_kind == "flat":
            assert max(values) <= 1e-6
        else:
            assert max(values) > 1e-3

    def test_curved_probe_stable_under_refinement(self):
        """The quadratic-integral entry's probe survives h-halving."""
        entry = get_example("ex3")
        x, y = entry.curvature_probes[1]
        coarse = gaussian_curvature(entry.system.metric, x, y, h=1e-4)
        fine = gaussian_curvature(entry.system.metric, x, y, h=5e-5)
        assert abs(coarse) > 1e-3
        np.testing.assert_allclose(fine, coarse, rtol=1e-3)
