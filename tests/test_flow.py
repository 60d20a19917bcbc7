"""Equations of motion, the two integrators and the drift diagnostics."""

import dataclasses
import inspect
import math
import re
import sys
import traceback
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.rk import DOP853

from magflows import flow
from magflows.catalog import get_example, list_examples
from magflows.errors import DomainError, EvaluationError, SingularMetric, StepFailure
from magflows.flow import (
    TrajectoryConfig,
    conservation_drift,
    integrate,
    magnetic_rhs,
)
from magflows.geometry import ChartDomain, MagneticSystem, Metric, hamiltonian, momentum_on_level
from magflows.integrals import FirstIntegral, hamiltonian_integral
from magflows.rational import FAMILIES, EllipticHalf, build_bundle
from oracles import convergence_order, larmor_orbit

RNG = np.random.default_rng(0)


def _free_system():
    metric = Metric(components=lambda x, y: (1.0, 0.0, 1.0),
                    partials=lambda x, y: ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    return MagneticSystem(metric=metric, field=lambda x, y: 0.0,
                          domain=ChartDomain(bbox=(-50.0, 50.0, -50.0, 50.0)),
                          energy=1.0, name="free")


class TestMagneticRhs:
    def test_uniform_field_unit_speed(self):
        """B = 1 at (0,0,1,0) turns the momentum: (1, 0, 0, -1)."""
        ex1 = get_example("ex1")
        rhs = magnetic_rhs(ex1.system, (0.0, 0.0, 1.0, 0.0))
        np.testing.assert_allclose(rhs, [1.0, 0.0, 0.0, -1.0], atol=1e-15)

    def test_zero_field_is_free_motion(self):
        """Without a field the momenta are constant."""
        rhs = magnetic_rhs(_free_system(), (0.3, -0.7, 0.5, -0.2))
        np.testing.assert_allclose(rhs, [0.5, -0.2, 0.0, 0.0], atol=1e-15)

    def test_field_term_is_antisymmetric_rotation(self):
        """The field only rotates momentum: p . dp/dt = 0 on a flat chart."""
        ex1 = get_example("ex1")
        for _ in range(10):
            p = RNG.normal(size=2)
            rhs = magnetic_rhs(ex1.system, (0.1, 0.2, p[0], p[1]))
            np.testing.assert_allclose(p[0] * rhs[2] + p[1] * rhs[3], 0.0, atol=1e-14)

    @pytest.mark.parametrize("name", [entry.name for entry in list_examples()])
    def test_returns_a_list_of_four_floats(self, name):
        """An ndarray, a tuple or a list phase gives a list of four Python
        floats, with the same bits for each."""
        entry = get_example(name)
        phase = entry.sample_phases[0]
        want = magnetic_rhs(entry.system, phase)
        assert type(want) is list
        assert [type(v) for v in want] == [float] * 4
        for given_phase in (tuple(phase.tolist()), phase.tolist()):
            got = magnetic_rhs(entry.system, given_phase)
            assert type(got) is list
            assert [type(v) for v in got] == [float] * 4
            assert np.array(got).tobytes() == np.array(want).tobytes()


class TestIntegrate:
    def test_free_motion_is_exact(self):
        """Straight-line motion: (0,0,1,0) reaches (1,0,1,0) at t = 1."""
        trajectory = integrate(_free_system(), (0.0, 0.0, 1.0, 0.0),
                               TrajectoryConfig(t_end=1.0))
        np.testing.assert_allclose(trajectory.states[-1], [1.0, 0.0, 1.0, 0.0],
                                   atol=1e-12)

    def test_larmor_closure(self):
        """The circular orbit returns to its start after t = 2 pi / B."""
        ex1 = get_example("ex1")
        trajectory = integrate(ex1.system, (0.0, 0.0, 1.0, 0.0),
                               TrajectoryConfig(t_end=2.0 * math.pi))
        gap = np.max(np.abs(np.asarray(trajectory.states[-1]) - [0.0, 0.0, 1.0, 0.0]))
        assert gap <= 1e-8

    def test_larmor_matches_closed_form_along_the_way(self):
        """Recorded states track the closed-form orbit pointwise."""
        ex1 = get_example("ex1")
        phase0 = (0.2, -0.3, 0.8, 0.5)
        trajectory = integrate(ex1.system, phase0, TrajectoryConfig(t_end=7.0))
        for t, state in zip(trajectory.times[::10], trajectory.states[::10]):
            np.testing.assert_allclose(state, larmor_orbit(phase0, t), atol=1e-9)

    def test_adaptive_energy_drift(self):
        """Example 5 keeps H to 1e-9 relative over t = 10."""
        ex5 = get_example("ex5")
        phase0 = ex5.sample_phases[0]
        trajectory = integrate(ex5.system, phase0, TrajectoryConfig(t_end=10.0))
        h0 = hamiltonian(ex5.system, phase0)
        report = conservation_drift(ex5.system, trajectory,
                                    lambda s: hamiltonian(ex5.system, s))
        assert report.max_abs_drift / abs(h0) <= 1e-9

    def test_energy_relative_drift_all_examples(self):
        """Every catalog system conserves H to 1e-9 relative over t = 10."""
        for entry in list_examples():
            phase0 = entry.sample_phases[0]
            trajectory = integrate(entry.system, phase0, TrajectoryConfig(t_end=10.0))
            report = conservation_drift(
                entry.system, trajectory,
                lambda s: hamiltonian(entry.system, s, check_domain=False))
            h0 = abs(hamiltonian(entry.system, phase0))
            assert report.max_abs_drift / h0 <= 1e-9, entry.name

    def test_fixed_step_matches_adaptive(self):
        """RK4 at a small step lands near the adaptive answer."""
        ex1 = get_example("ex1")
        phase0 = (0.0, 0.0, 1.0, 0.4)
        adaptive = integrate(ex1.system, phase0, TrajectoryConfig(t_end=3.0))
        fixed = integrate(ex1.system, phase0,
                          TrajectoryConfig(t_end=3.0, method="fixed_rk4", step=1e-3))
        np.testing.assert_allclose(fixed.states[-1], adaptive.states[-1], atol=1e-10)

    def test_record_every_thins_output(self):
        """record_every = 5 keeps every fifth accepted state."""
        ex1 = get_example("ex1")
        config = TrajectoryConfig(t_end=1.0, method="fixed_rk4", step=0.01,
                                  record_every=5)
        trajectory = integrate(ex1.system, (0.0, 0.0, 1.0, 0.0), config)
        assert len(trajectory.times) == 21
        np.testing.assert_allclose(trajectory.times[1], 0.05, rtol=1e-12)

    def test_domain_exit_is_flagged(self):
        """Leaving the predicate sets domain_exit and exit_time."""
        ex6 = get_example("ex6")
        trajectory = integrate(ex6.system, (1.0, 0.6, 1.0, 0.5),
                               TrajectoryConfig(t_end=20.0))
        assert trajectory.domain_exit
        assert trajectory.exit_time is not None and trajectory.exit_time < 20.0
        rho_last = trajectory.states[-1][0]
        assert ex6.system.domain.contains(trajectory.states[-1][0],
                                          trajectory.states[-1][1])
        assert rho_last < 0.05

    def test_time_reversal(self):
        """Negating momenta and the field runs the orbit backwards."""
        for name in ("ex1", "ex3", "ex5"):
            entry = get_example(name)
            system = entry.system
            reverse = MagneticSystem(
                metric=system.metric,
                field=lambda x, y, f=system.field: -f(x, y),
                domain=system.domain, energy=system.energy,
                name=system.name + " reversed", coords=system.coords)
            phase0 = np.asarray(entry.sample_phases[0], dtype=float)
            config = TrajectoryConfig(t_end=5.0)
            out = np.asarray(integrate(system, phase0, config).states[-1])
            back = integrate(reverse, [out[0], out[1], -out[2], -out[3]], config)
            final = np.asarray(back.states[-1])
            recovered = np.array([final[0], final[1], -final[2], -final[3]])
            np.testing.assert_allclose(recovered, phase0, atol=1e-10)


class TestTrajectoryConfig:
    @pytest.mark.parametrize("kwargs", [
        {"t_end": math.inf},
        {"t_end": 1.0, "rel_tol": math.inf},
        {"t_end": 1.0, "abs_tol": math.inf},
        {"t_end": 1.0, "method": "fixed_rk4", "step": math.inf},
    ])
    def test_non_finite_settings_are_rejected(self, kwargs):
        """An infinite end time made the minimum step infinite and the
        step-halving loop endless."""
        with pytest.raises(ValueError, match="finite"):
            TrajectoryConfig(**kwargs)

    def test_adaptive_method_refuses_a_step(self):
        """embedded_rk45 chooses its own steps, so a step given with it
        would be silently ignored."""
        with pytest.raises(ValueError, match="only for fixed_rk4"):
            TrajectoryConfig(t_end=1.0, step=0.1)
        with pytest.raises(ValueError, match="only for fixed_rk4"):
            TrajectoryConfig(t_end=1.0, method="embedded_rk45", step=0.1)

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
    def test_fixed_method_refuses_a_tolerance(self, name):
        """fixed_rk4 has no error control, so a tolerance given with it
        would be silently ignored."""
        with pytest.raises(ValueError, match="fixed_rk4 takes no rel_tol or abs_tol"):
            TrajectoryConfig(t_end=1.0, method="fixed_rk4", step=0.1, **{name: 1e-6})

    @pytest.mark.parametrize("step", [1e-300, 1e-17, 0.5e-12 * 8.0])
    def test_fixed_step_below_the_adaptive_floor_is_rejected(self, step):
        """0.125 + 1e-17 == 0.125, so a fixed step that small stops t from
        advancing and the run never ends, and one of 1e-12 * t_end takes
        1e12 steps, months of work.  A step below t_end / 1e7 is refused
        when the config is built, as is one just below t_end / 1e7, and a
        step of t_end / 1e7 is taken; nothing is integrated."""
        for small in (step, math.nextafter(8.0 / 1e7, 0.0)):
            with pytest.raises(ValueError, match="at least t_end / 10000000"):
                TrajectoryConfig(t_end=8.0, method="fixed_rk4", step=small)
        assert TrajectoryConfig(t_end=8.0, method="fixed_rk4", step=8.0 / 1e7).step == 8e-7

    def test_adaptive_tolerance_defaults(self):
        config = TrajectoryConfig(t_end=1.0)
        assert (config.rel_tol, config.abs_tol) == (1e-11, 1e-12)
        assert config == TrajectoryConfig(t_end=1.0, rel_tol=1e-11, abs_tol=1e-12)

    def test_one_method_table(self):
        """The config takes the methods of flow.METHODS and no other;
        embedded_rk45 stays the default."""
        assert flow.METHODS == ("embedded_rk45", "dop853", "fixed_rk4")
        assert TrajectoryConfig(t_end=1.0).method == "embedded_rk45"
        with pytest.raises(ValueError, match="unknown method 'rk2'"):
            TrajectoryConfig(t_end=1.0, method="rk2")

    def test_dop853_is_an_adaptive_method(self):
        """dop853 takes the adaptive defaults and given tolerances, and
        refuses a step as embedded_rk45 does."""
        config = TrajectoryConfig(t_end=1.0, method="dop853")
        assert (config.rel_tol, config.abs_tol) == (1e-11, 1e-12)
        config = TrajectoryConfig(t_end=1.0, method="dop853", rel_tol=1e-8, abs_tol=1e-9)
        assert (config.rel_tol, config.abs_tol) == (1e-8, 1e-9)
        with pytest.raises(ValueError, match="dop853 chooses its own steps; a step is only "
                                             "for fixed_rk4"):
            TrajectoryConfig(t_end=1.0, method="dop853", step=0.1)


class TestWorkCounts:
    @staticmethod
    def _count_rhs(monkeypatch, corrupt_call=None, raise_call=None):
        """Wrap flow.magnetic_rhs in a closure that counts its calls; the
        call numbered ``corrupt_call`` returns an infinite dp1, and the
        one numbered ``raise_call`` raises DomainError."""
        calls = []
        real = flow.magnetic_rhs

        def counting(system, phase, *args, **kwargs):
            calls.append(phase)
            if len(calls) == raise_call:
                raise DomainError("raised on purpose")
            out = real(system, phase, *args, **kwargs)
            if len(calls) == corrupt_call:
                out[2] = math.inf
            return out

        monkeypatch.setattr(flow, "magnetic_rhs", counting)
        return calls

    def test_every_trial_step_makes_seven_evaluations(self, monkeypatch):
        calls = self._count_rhs(monkeypatch)
        ex1 = get_example("ex1")
        trajectory = integrate(ex1.system, ex1.sample_phases[0], TrajectoryConfig(t_end=3.0))
        assert trajectory.rhs_evals == len(calls) == 7 * trajectory.accepted
        assert trajectory.rejected == 0

    def test_fixed_step_makes_four_evaluations(self, monkeypatch):
        calls = self._count_rhs(monkeypatch)
        ex1 = get_example("ex1")
        config = TrajectoryConfig(t_end=1.0, method="fixed_rk4", step=0.01)
        trajectory = integrate(ex1.system, ex1.sample_phases[0], config)
        assert trajectory.rhs_evals == len(calls) == 4 * trajectory.accepted == 400

    def test_rejections_are_split_by_cause(self, monkeypatch):
        """On the orbit that leaves ex6's chart, a boundary rejection stops
        at the stage that raised; the split adds up to ``rejected``."""
        calls = self._count_rhs(monkeypatch)
        ex6 = get_example("ex6")
        trajectory = integrate(ex6.system, (1.0, 0.6, 1.0, 0.5), TrajectoryConfig(t_end=20.0))
        assert trajectory.domain_exit
        assert trajectory.rhs_evals == len(calls)
        assert trajectory.rejected_boundary > 0 and trajectory.rejected_error > 0
        assert trajectory.rejected_nonfinite == 0
        assert trajectory.rejected == (trajectory.rejected_error + trajectory.rejected_boundary
                                       + trajectory.rejected_nonfinite)
        complete = trajectory.accepted + trajectory.rejected_error
        assert 7 * complete + trajectory.rejected_boundary <= trajectory.rhs_evals
        assert trajectory.rhs_evals < 7 * (complete + trajectory.rejected_boundary)

    def test_exit_orbit_counts(self, monkeypatch):
        """The ex6 orbit that leaves the chart: five trial steps meet the
        edge, each stops at stage 2, and locating the edge makes no call of
        its own, as the rates at the last state are stage 1 of the step
        that met the edge."""
        calls = self._count_rhs(monkeypatch)
        ex6 = get_example("ex6")
        trajectory = integrate(ex6.system, (1.0, 0.6, 1.0, 0.5), TrajectoryConfig(t_end=20.0))
        assert trajectory.domain_exit
        counts = (trajectory.accepted, trajectory.rejected_error, trajectory.rejected_boundary,
                  trajectory.rejected_nonfinite, trajectory.rhs_evals, len(trajectory))
        assert counts == (702, 3, 5, 0, 4945, 703)
        assert len(calls) == 7 * (702 + 3) + 2 * 5

    def test_non_finite_end_state_is_its_own_cause(self, monkeypatch):
        """An infinite rate at stage 6 of the third trial step gives an
        infinite momentum at an end point inside the chart."""
        calls = self._count_rhs(monkeypatch, corrupt_call=2 * 7 + 6)
        ex1 = get_example("ex1")
        trajectory = integrate(ex1.system, ex1.sample_phases[0], TrajectoryConfig(t_end=3.0))
        assert trajectory.rejected_nonfinite == 1
        assert trajectory.rejected == 1
        assert trajectory.rhs_evals == len(calls) == 7 * (trajectory.accepted + 1)

    def test_fixed_step_non_finite_end_state_raises(self, monkeypatch):
        """An infinite rate at stage 4 of the second fixed step gives an
        infinite momentum at an end point inside the chart: the fixed-step
        scheme cannot shorten the step, so it raises."""
        calls = self._count_rhs(monkeypatch, corrupt_call=4 + 4)
        ex1 = get_example("ex1")
        config = TrajectoryConfig(t_end=1.0, method="fixed_rk4", step=0.1)
        with pytest.raises(StepFailure, match="non-finite state at t = 0.2"):
            integrate(ex1.system, (0.0, 0.0, 1.0, 0.0), config)
        assert len(calls) == 8

    @pytest.mark.parametrize("stage", range(1, 8))
    def test_boundary_rejection_counts_its_stages(self, monkeypatch, stage):
        """Stage k of the third trial step raises: that step is one
        boundary rejection that adds k evaluations, and the tangent at its
        start reads its stage 1, or where that raised the rates kept from
        stage 7 of the step before, so it makes no other call."""
        calls = self._count_rhs(monkeypatch, raise_call=2 * 7 + stage)
        ex1 = get_example("ex1")
        trajectory = integrate(ex1.system, ex1.sample_phases[0], TrajectoryConfig(t_end=3.0))
        assert trajectory.rejected_boundary == trajectory.rejected == 1
        assert trajectory.rhs_evals == len(calls) == 7 * trajectory.accepted + stage

    @pytest.mark.parametrize("stage", range(1, 5))
    def test_fixed_step_counts_the_stages_of_its_last_step(self, monkeypatch, stage):
        """Stage k of the sixth fixed step raises: the run ends at its
        fifth whole step, with 4 * 5 + k evaluations."""
        calls = self._count_rhs(monkeypatch, raise_call=4 * 5 + stage)
        ex1 = get_example("ex1")
        config = TrajectoryConfig(t_end=1.0, method="fixed_rk4", step=0.1)
        trajectory = integrate(ex1.system, ex1.sample_phases[0], config)
        assert trajectory.domain_exit and trajectory.accepted == 5
        assert trajectory.exit_time == trajectory.times[-1]
        assert trajectory.rhs_evals == len(calls) == 4 * 5 + stage

    @pytest.mark.parametrize("stage", range(1, 8))
    def test_first_boundary_rejection_calls_at_the_start(self, monkeypatch, stage):
        """Stage k of the first trial step raises.  Where stage 1 raises,
        no rates at the initial state exist, and the run ends there after
        that one call.  Where stage k > 1 raises, after k calls, the
        tangent at the initial state reads that step's stage 1 and makes
        no call of its own."""
        calls = self._count_rhs(monkeypatch, raise_call=stage)
        ex1 = get_example("ex1")
        phase0 = ex1.sample_phases[0]
        trajectory = integrate(ex1.system, phase0, TrajectoryConfig(t_end=3.0))
        assert trajectory.rejected_boundary == trajectory.rejected == 1
        assert list(calls[0]) == phase0.tolist()
        if stage == 1:
            assert trajectory.domain_exit and trajectory.exit_time == 0.0
            assert trajectory.rhs_evals == len(calls) == 1
        else:
            assert not trajectory.domain_exit
            assert trajectory.rhs_evals == len(calls) == 7 * trajectory.accepted + stage

    DOP853_CONFIG = TrajectoryConfig(t_end=3.0, method="dop853")

    def test_dop853_makes_twelve_evaluations_per_trial_step(self, monkeypatch):
        """13 calls in the first trial step, then 12 per trial step: stage
        1 is the rates at the step's start, stage 13 of the step before."""
        calls = self._count_rhs(monkeypatch)
        ex1 = get_example("ex1")
        trajectory = integrate(ex1.system, ex1.sample_phases[0], self.DOP853_CONFIG)
        assert (trajectory.accepted, trajectory.rejected) == (16, 0)
        assert trajectory.rhs_evals == len(calls) == 1 + 12 * 16 == 193

    @pytest.mark.parametrize("stage", range(2, 14))
    def test_dop853_boundary_rejection_counts_its_stages(self, monkeypatch, stage):
        """Stage k of the third trial step raises: that step is one
        boundary rejection that adds k - 1 evaluations, as its stage 1 is
        stage 13 of the step before, and it makes no other call."""
        calls = self._count_rhs(monkeypatch, raise_call=1 + 12 + 12 + stage - 1)
        ex1 = get_example("ex1")
        trajectory = integrate(ex1.system, ex1.sample_phases[0], self.DOP853_CONFIG)
        assert trajectory.rejected_boundary == trajectory.rejected == 1
        assert trajectory.rhs_evals == len(calls) == 1 + 12 * trajectory.accepted + stage - 1

    @pytest.mark.parametrize("stage", range(1, 14))
    def test_dop853_first_boundary_rejection_calls_at_the_start(self, monkeypatch, stage):
        """Stage 1 of the first trial step is the one call at the start.
        Where it raises, the run ends there after that call.  Where stage
        k > 1 raises, after k calls, the tangent at the initial state
        reads the step's stage 1, which the retry reuses, and makes no
        call of its own."""
        calls = self._count_rhs(monkeypatch, raise_call=stage)
        ex1 = get_example("ex1")
        phase0 = ex1.sample_phases[0]
        trajectory = integrate(ex1.system, phase0, self.DOP853_CONFIG)
        assert trajectory.rejected_boundary == trajectory.rejected == 1
        assert list(calls[0]) == phase0.tolist()
        if stage == 1:
            assert trajectory.domain_exit and trajectory.exit_time == 0.0
            assert trajectory.rhs_evals == len(calls) == 1
        else:
            assert not trajectory.domain_exit
            assert trajectory.rhs_evals == len(calls) == stage + 12 * trajectory.accepted

    def test_dop853_non_finite_end_state_is_its_own_cause(self, monkeypatch):
        """An infinite rate at stage 12 of the third trial step gives an
        infinite momentum at an end point inside the chart; the retry
        from the same state takes stage 1 from the rates kept there."""
        calls = self._count_rhs(monkeypatch, corrupt_call=1 + 12 + 12 + 11)
        ex1 = get_example("ex1")
        trajectory = integrate(ex1.system, ex1.sample_phases[0], self.DOP853_CONFIG)
        assert trajectory.rejected_nonfinite == trajectory.rejected == 1
        assert trajectory.rhs_evals == len(calls) == 1 + 12 * (trajectory.accepted + 1)

    def test_dop853_exit_orbit_counts(self, monkeypatch):
        """The ex6 orbit that leaves the chart: the first trial step is
        rejected on its error, and the retry takes stage 1 from the rates
        that step evaluated at the start; six trial steps meet the edge,
        the first at stage 5 and the others at stage 2, and locating the
        edge makes no call of its own."""
        calls = self._count_rhs(monkeypatch)
        ex6 = get_example("ex6")
        config = TrajectoryConfig(t_end=20.0, method="dop853")
        trajectory = integrate(ex6.system, (1.0, 0.6, 1.0, 0.5), config)
        assert trajectory.domain_exit
        counts = (trajectory.accepted, trajectory.rejected_error, trajectory.rejected_boundary,
                  trajectory.rejected_nonfinite, trajectory.rhs_evals, len(trajectory))
        assert counts == (84, 3, 6, 0, 1054, 85)
        assert len(calls) == 1 + 12 * (84 + 3) + 4 + 1 * 5

    # the ex4 orbit from (0.052, 0) at angle pi, whose first trial step
    # meets the chart edge: its counts and exit time per method
    EX4_EDGE_EXIT = {"embedded_rk45": ((5, 1, 5, 0, 54, 6), 0.00885660376315877),
                     "dop853": ((5, 0, 6, 0, 74, 6), 0.008856603898869862)}

    @pytest.mark.parametrize("method, step", [("embedded_rk45", "_dp_step"),
                                              ("dop853", "_dop853_step")])
    @pytest.mark.parametrize("orbit", ["ex6", "ex4"])
    def test_every_call_is_a_stage(self, monkeypatch, method, step, orbit):
        """Every call of magnetic_rhs in an adaptive run is made by a trial
        step, and the loop makes none of its own: not at the start, and not
        for the tangent where the first trial step meets the chart edge, as
        on the ex4 orbit, where the tangent reads that step's stage 1."""
        callers = []
        real = flow.magnetic_rhs

        def recording(system, phase):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(system, phase)

        monkeypatch.setattr(flow, "magnetic_rhs", recording)
        config = TrajectoryConfig(t_end=20.0, method=method)
        if orbit == "ex6":
            trajectory = integrate(get_example("ex6").system, (1.0, 0.6, 1.0, 0.5), config)
        else:
            ex4 = get_example("ex4").system
            trajectory = integrate(ex4, _on_level(ex4, 0.052, 0.0, math.pi), config)
            counts = (trajectory.accepted, trajectory.rejected_error, trajectory.rejected_boundary,
                      trajectory.rejected_nonfinite, trajectory.rhs_evals, len(trajectory))
            assert (counts, trajectory.exit_time) == self.EX4_EDGE_EXIT[method]
        assert trajectory.domain_exit
        assert set(callers) == {step}
        assert trajectory.rhs_evals == len(callers)


class TestCallBudget:
    """The Python calls inside one magnetic_rhs, counted by sys.setprofile:
    the chart test, the local geometry and the X_H kernel, with no wrapper
    layer.  The counts repeat exactly, so a layer that comes back shows."""

    BUDGET = {"ex1": 9, "ex2": 11, "ex2b": 11, "ex3": 8, "ex4": 7, "ex5": 7, "ex6": 7,
              "poly-cos": 10, "log-radial": 10, "log-nu1": 10, "elliptic-half": 12}
    # a bundle at the rho of its last call reuses Z's radial jet
    SAME_RHO_BUDGET = 9

    @staticmethod
    def _python_calls(system, phase, warm):
        """Names of the Python functions that one magnetic_rhs at ``phase``
        calls, after a call at ``warm`` has warmed any lazy state."""
        magnetic_rhs(system, warm)
        names = []

        def profile(frame, event, arg):
            if event == "call":
                names.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            magnetic_rhs(system, phase)
        finally:
            sys.setprofile(None)
        assert names[0] == "magnetic_rhs"
        return names[1:]

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex2b", "ex3", "ex4", "ex5", "ex6"])
    def test_catalog_entry(self, name):
        entry = get_example(name)
        phases = entry.sample_phases.tolist()
        for phase, warm in zip(phases, phases[1:] + phases[:1]):
            names = self._python_calls(entry.system, phase, warm)
            assert len(names) == self.BUDGET[name], names

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bundle_family(self, family):
        """A fresh rho runs the radial profile (and on elliptic-half its AGM
        run); a stage at the rho of the last call, as stage 1 at stage 7's
        state, does not."""
        system = build_bundle(FAMILIES[family]()).as_system()
        x0, x1, y0, y1 = system.domain.bbox
        rho, psi = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        phase = _on_level(system, rho, psi, 0.7)
        names = self._python_calls(system, phase, _on_level(system, 0.5 * (x0 + rho), psi, 0.7))
        assert len(names) == self.BUDGET[family], names
        names = self._python_calls(system, phase, phase)
        assert len(names) == self.SAME_RHO_BUDGET, names


# Dormand-Prince 4(5): Hairer, Norsett & Wanner, Solving ODEs I, Table II.5.2
_F = Fraction
DP_NODES = [_F(1, 5), _F(3, 10), _F(4, 5), _F(8, 9), _F(1), _F(1)]
DP_ROWS = [
    [_F(1, 5)],
    [_F(3, 40), _F(9, 40)],
    [_F(44, 45), _F(-56, 15), _F(32, 9)],
    [_F(19372, 6561), _F(-25360, 2187), _F(64448, 6561), _F(-212, 729)],
    [_F(9017, 3168), _F(-355, 33), _F(46732, 5247), _F(49, 176), _F(-5103, 18656)],
    [_F(35, 384), _F(0), _F(500, 1113), _F(125, 192), _F(-2187, 6784), _F(11, 84)],
]
DP_B5 = DP_ROWS[-1] + [_F(0)]
DP_B4 = [_F(5179, 57600), _F(0), _F(7571, 16695), _F(393, 640), _F(-92097, 339200),
         _F(187, 2100), _F(1, 40)]


def _numpy_rk4_step(rhs, y, h):
    """The array form of the classic step that fixed_rk4 reproduces."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _numpy_fixed(system, phase0, t_end, step):
    y, t, states = np.asarray(phase0, dtype=float), 0.0, []
    states.append(y)
    while t < t_end * (1.0 - 1e-14):
        h = min(step, t_end - t)
        y = _numpy_rk4_step(lambda s: np.asarray(magnetic_rhs(system, s)), y, h)
        t += h
        states.append(y)
    return np.array(states)


def _numpy_adaptive(system, phase0, t_end, rel_tol=1e-11, abs_tol=1e-12):
    """Dormand-Prince stepping on arrays with matrix-vector stage sums, and
    the same step control, for an orbit that stays in its chart: returns
    the final state."""
    rows = [np.array([float(a) for a in row]) for row in DP_ROWS]
    b5 = np.array([float(b) for b in DP_B5])
    e = np.array([float(b5 - b4) for b5, b4 in zip(DP_B5, DP_B4)])
    y, t, h = np.asarray(phase0, dtype=float), 0.0, 1e-3 * t_end
    while t < t_end * (1.0 - 1e-14):
        h = min(h, t_end - t)
        k = np.empty((7, 4))
        k[0] = magnetic_rhs(system, y)
        for i, row in enumerate(rows, start=1):
            k[i] = magnetic_rhs(system, y + h * (row @ k[:i]))
        y_new, err = y + h * (b5 @ k), h * (e @ k)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if err_norm <= 1.0:
            t, y = t + h, y_new
            factor = 5.0 if err_norm == 0.0 else 0.9 * err_norm ** -0.2
        else:
            factor = max(0.2, 0.9 * err_norm ** -0.2)
        h *= min(5.0, max(0.2, factor))
    return y


def _left_to_right(weights, k):
    """sum_j w_j k_j over the nonzero weights, accumulated left to right."""
    terms = [float(w) * kj for w, kj in zip(weights, k) if w]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _array_dp_step(rhs, y, h):
    """One Dormand-Prince step on arrays, straight from the DP_ROWS, DP_B5
    and DP_B4 fractions: returns (y5, error estimate, rates at y5)."""
    k = [np.array(rhs(y))]
    for row in DP_ROWS:
        k.append(np.array(rhs(y + h * _left_to_right(row, k))))
    errors = [b5 - b4 for b5, b4 in zip(DP_B5, DP_B4)]
    return y + h * _left_to_right(DP_B5, k), h * _left_to_right(errors, k), k[-1]


def _numpy_error_norm(err, y, y5, abs_tol, rel_tol):
    """Root mean square of err / (abs_tol + rel_tol * max(|y|, |y5|)) by numpy."""
    with np.errstate(over="ignore"):
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
        return np.sqrt(np.mean((err / scale) ** 2))


def _hex_rows(rows):
    """Rows of tableau entries {i: {j: value}} with each value as the hex
    string of its double, so that equal rows are equal bit for bit."""
    return {i: {j: float(value).hex() for j, value in row.items()} for i, row in rows.items()}


def _replay(stages):
    """A stand-in for magnetic_rhs that returns the given rates in turn,
    whatever the phase."""
    rates = iter(stages)
    return lambda system, phase: list(next(rates))


@pytest.fixture(scope="module")
def elliptic_half():
    return build_bundle(EllipticHalf(), rho_range=(0.1, 3.0)).as_system()


class TestFloatStepping:
    def test_tableau_reference_is_consistent(self):
        """Each row sums to its node and both weight rows sum to one."""
        for row, node in zip(DP_ROWS, DP_NODES):
            assert sum(row) == node
        assert sum(DP_B5) == sum(DP_B4) == 1

    def test_written_out_coefficients_are_the_fractions(self):
        """flow._DP5 stores the stage rows a_ij, the weights b_j and the
        error weights e_j = b5 - b4, each the double nearest to its
        fraction, bit for bit; every nonzero entry is stored and no zero
        one."""
        rows = {i: {j: a for j, a in enumerate(row, start=1) if a}
                for i, row in enumerate(DP_ROWS[:-1], start=2)}
        weights = {j: b for j, b in enumerate(DP_B5, start=1) if b}
        errors = {j: b5 - b4 for j, (b5, b4) in enumerate(zip(DP_B5, DP_B4), start=1) if b5 != b4}
        pair = flow._DP5
        assert (sum(map(len, rows.values())), len(weights), len(errors)) == (15, 5, 6)
        assert _hex_rows(pair.rows) == _hex_rows(rows)
        assert _hex_rows({0: pair.weights, 1: pair.errors[0]}) == _hex_rows({0: weights, 1: errors})
        assert len(pair.errors) == 1 and not pair.first_given

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        rates=st.lists(st.floats(-10.0, 10.0), min_size=28, max_size=28),
        y=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
        h=st.floats(1e-4, 1.0),
        abs_tol=st.floats(1e-15, 1.0),
        rel_tol=st.floats(1e-15, 1.0),
    )
    def test_error_norm_is_numpys_bit_for_bit(self, rates, y, h, abs_tol, rel_tol):
        """The step's error norm is numpy's root mean square of the
        tableau's error over abs_tol + rel_tol * max(|y|, |y5|), for
        seven stage rates drawn at random."""
        stages = [rates[4 * j:4 * j + 4] for j in range(7)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(flow, "magnetic_rhs", _replay(stages))
            got_stages, got_y5, got_norm, _, _ = flow._dp_step(None, y, h, abs_tol, rel_tol, None)
        replay = _replay(stages)
        y5, err, _ = _array_dp_step(lambda s: replay(None, s), np.array(y), h)
        assert got_stages == 7
        assert np.array(got_y5).tobytes() == y5.tobytes()
        assert got_norm == _numpy_error_norm(err, y, y5, abs_tol, rel_tol)

    def test_error_norm_overflows_to_inf(self, monkeypatch):
        """q * q overflows to inf where q ** 2 raises OverflowError: a rate
        of 1e200 at stage 7, which y5 does not read, gives an error
        estimate of -1e200 h / 40."""
        monkeypatch.setattr(flow, "magnetic_rhs", _replay([[0.0] * 4] * 6 + [[1e200, 0.0, 0.0, 0.0]]))
        stages, y5, norm, _, _ = flow._dp_step(None, [1.0] * 4, 1.0, 1.0, 1.0, None)
        assert (stages, y5, norm) == (7, [1.0] * 4, math.inf)

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex2b", "ex3", "ex4", "ex5", "ex6"])
    def test_fixed_rk4_matches_the_array_step_bit_for_bit(self, name):
        entry = get_example(name)
        config = TrajectoryConfig(t_end=1.0, method="fixed_rk4", step=0.01)
        trajectory = integrate(entry.system, entry.sample_phases[0], config)
        want = _numpy_fixed(entry.system, entry.sample_phases[0], 1.0, 0.01)
        assert trajectory.states.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["ex1", "ex6 until t = 7.9", "elliptic-half"])
    def test_adaptive_matches_the_array_reference(self, case, elliptic_half):
        """Round-off in the stage sums moves the step sizes, so an orbit
        that ends at t_end agrees to 1e-13 relative."""
        ex1, ex6 = get_example("ex1").system, get_example("ex6").system
        system, phase0, t_end = {
            "ex1": (ex1, (0.2, -0.3, 0.8, 0.5), 10.0),
            "ex6 until t = 7.9": (ex6, (1.0, 0.6, 1.0, 0.5), 7.9),
            "elliptic-half": (elliptic_half, _on_level(elliptic_half, 2.0, 0.1, 1.0), 1.0),
        }[case]
        trajectory = integrate(system, phase0, TrajectoryConfig(t_end=t_end))
        want = _numpy_adaptive(system, phase0, t_end)
        assert not trajectory.domain_exit
        final = trajectory.states[-1]
        assert np.max(np.abs(final - want)) <= 1e-13 * np.max(np.abs(want))

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        name=st.sampled_from(["ex1", "ex2", "ex2b", "ex3", "ex4", "ex5", "ex6"]),
        index=st.integers(0, 2),
        h=st.floats(1e-4, 0.2),
    )
    def test_dp_step_matches_the_tableau_bit_for_bit(self, name, index, h):
        """The written-out step is the array step of the tableau's
        fractions, each stage sum taken left to right over its nonzero
        entries: seven stages, the bits of y5 and of the rates at y5, and
        an error norm equal to numpy's root mean square of the tableau's
        error at the default tolerances."""
        entry = get_example(name)
        phase = entry.sample_phases[index]
        try:
            y5, err, k7 = _array_dp_step(lambda s: magnetic_rhs(entry.system, s), phase, h)
        except (DomainError, SingularMetric):
            assume(False)
        stages, got_y5, norm, _, got_k7 = flow._dp_step(
            entry.system, phase.tolist(), h, 1e-12, 1e-11, None)
        assert stages == 7
        assert np.array(got_y5).tobytes() == y5.tobytes()
        assert np.array(got_k7).tobytes() == k7.tobytes()
        assert norm == _numpy_error_norm(err, phase, y5, 1e-12, 1e-11)


# DOP853: scipy's transcription of Hairer's coefficients, the 12 stage
# rows and the weights of the eighth-order solution and of the fifth- and
# third-order error estimates (the entries of stage 13 are zero)
D8_ROWS = dop853_coefficients.A[:12, :12]
D8_B, D8_E5, D8_E3 = dop853_coefficients.B, dop853_coefficients.E5, dop853_coefficients.E3


def _array_dop853_step(rhs, y, h, f=None):
    """One DOP853 step on arrays, as a loop over the tableau rows with each
    stage sum taken left to right over its nonzero entries: returns (y8,
    fifth-order error sum, third-order error sum, rates at y8)."""
    k = [np.array(rhs(y) if f is None else f)]
    for row in D8_ROWS[1:]:
        k.append(np.array(rhs(y + h * _left_to_right(row[:len(k)], k))))
    y8 = y + h * _left_to_right(D8_B, k)
    return y8, _left_to_right(D8_E5[:12], k), _left_to_right(D8_E3[:12], k), np.array(rhs(y8))


def _dop853_norm(e5, e3, y, y8, h, abs_tol, rel_tol):
    """Hairer's combined error norm |h| s5 / sqrt((s5 + 0.01 s3) * 4) for
    the error sums over abs_tol + rel_tol * max(|y|, |y8|), with the
    squares summed left to right."""
    scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y8))
    s5 = s3 = 0.0
    for q5, q3 in zip((e5 / scale).tolist(), (e3 / scale).tolist()):
        s5, s3 = s5 + q5 * q5, s3 + q3 * q3
    return abs(h) * s5 / math.sqrt((s5 + 0.01 * s3) * 4)


class TestDop853Step:
    def test_literals_are_scipys_coefficients(self):
        """flow._DOP853 stores each stage row entry a_ij, weight b_j and
        fifth- and third-order error weight as the float of scipy's DOP853
        tables, bit for bit; every nonzero entry is stored and no zero
        one."""
        def nonzero(values):
            return {j: value for j, value in enumerate(values.tolist(), start=1) if value}

        rows = {i: nonzero(D8_ROWS[i - 1, :i - 1]) for i in range(2, 13)}
        weights, e5, e3 = nonzero(D8_B), nonzero(D8_E5), nonzero(D8_E3)
        assert D8_E5[12] == D8_E3[12] == 0.0
        assert (sum(map(len, rows.values())), len(weights), len(e5), len(e3)) == (50, 8, 8, 8)
        pair = flow._DOP853
        assert _hex_rows(pair.rows) == _hex_rows(rows)
        assert (_hex_rows(dict(enumerate((pair.weights, *pair.errors))))
                == _hex_rows(dict(enumerate((weights, e5, e3)))))
        assert pair.first_given

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        name=st.sampled_from(["ex1", "ex2", "ex2b", "ex3", "ex4", "ex5", "ex6"]),
        index=st.integers(0, 2),
        h=st.floats(1e-4, 0.5),
        given_rates=st.booleans(),
    )
    def test_step_matches_the_tableau_bit_for_bit(self, name, index, h, given_rates):
        """The written-out step is the tableau loop over scipy's tables:
        13 stages, or 12 when the rates at y are given, the bits of y8
        and of the rates at y8, and the error norm of the loop's sums."""
        entry = get_example(name)
        phase = entry.sample_phases[index]
        f = magnetic_rhs(entry.system, phase) if given_rates else None
        try:
            y8, e5, e3, k13 = _array_dop853_step(
                lambda s: magnetic_rhs(entry.system, s), phase, h, f)
        except (DomainError, SingularMetric):
            assume(False)
        stages, got_y8, norm, _, got_k13 = flow._dop853_step(
            entry.system, phase.tolist(), h, 1e-12, 1e-11, f)
        assert stages == 12 if given_rates else 13
        assert np.array(got_y8).tobytes() == y8.tobytes()
        assert np.array(got_k13).tobytes() == k13.tobytes()
        assert norm == _dop853_norm(e5, e3, phase, y8, h, 1e-12, 1e-11)

    def test_error_norm_is_scipys(self, monkeypatch):
        """For 13 stage rates drawn at random, the step's error norm is
        scipy's DOP853 norm on the same stages and scale to 1e-12: the
        two sum the estimates in different orders."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            rates = rng.uniform(-10.0, 10.0, (13, 4))
            y, h = rng.uniform(-10.0, 10.0, 4).tolist(), float(rng.uniform(1e-3, 1.0))
            abs_tol, rel_tol = 10.0 ** rng.uniform(-12.0, 0.0, 2)
            monkeypatch.setattr(flow, "magnetic_rhs", _replay(rates[1:].tolist()))
            _, y8, norm, _, _ = flow._dop853_step(None, y, h, abs_tol, rel_tol, rates[0].tolist())
            scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y8))
            want = DOP853._estimate_error_norm(DOP853, rates, h, scale)
            assert abs(norm - want) <= 1e-12 * want

    def test_error_norm_ends(self, monkeypatch):
        """Zero error sums give a norm of 0; error sums whose squares
        overflow give inf, which rejects the step, where the formula
        alone would give inf / inf = NaN.  A rate of 1e200 at stage 12 in
        the first component leaves y8 finite."""
        zero = [[0.0] * 4] * 12
        monkeypatch.setattr(flow, "magnetic_rhs", _replay(zero))
        _, _, norm, _, _ = flow._dop853_step(None, [1.0] * 4, 0.5, 1e-12, 1e-11, [0.0] * 4)
        assert norm == 0.0
        big = [[0.0] * 4] * 10 + [[1e200, 0.0, 0.0, 0.0], [0.0] * 4]
        monkeypatch.setattr(flow, "magnetic_rhs", _replay(big))
        stages, y8, norm, _, _ = flow._dop853_step(None, [1.0] * 4, 0.5, 1e-200, 1e-200, [0.0] * 4)
        assert stages == 12 and all(map(math.isfinite, y8))
        assert norm == math.inf

    def test_eighth_order_on_the_larmor_circle(self):
        """Fixed steps of h on ex1's circle: halving h divides the error
        at t = 4 against the closed form by about 2^8 = 256."""
        ex1 = get_example("ex1").system
        phase0 = (0.0, 0.0, 1.0, 0.0)
        errors = []
        for n in (4, 8, 16):
            y, f = list(phase0), None
            for _ in range(n):
                _, y, _, _, f = flow._dop853_step(ex1, y, 4.0 / n, 1e-12, 1e-11, f)
            errors.append(float(np.max(np.abs(np.array(y) - larmor_orbit(phase0, 4.0)))))
        for coarse, fine in zip(errors, errors[1:]):
            assert 128.0 <= coarse / fine <= 512.0, errors


class TestGeneratedSteps:
    @pytest.mark.parametrize("name", ["_dp_step", "_dop853_step"])
    def test_a_stage_runs_in_the_module_and_shows_its_line(self, monkeypatch, name):
        """Each embedded step is compiled with flow's globals, so a stage
        calls the magnetic_rhs patched into flow, and a traceback through
        the stage and inspect.getsource both show its generated line."""
        step = getattr(flow, name)
        assert step.__globals__ is vars(flow)

        def raising(system, phase):
            raise RuntimeError("stage 1 raised")

        monkeypatch.setattr(flow, "magnetic_rhs", raising)
        with pytest.raises(RuntimeError, match="stage 1 raised") as info:
            step(None, [1.0] * 4, 0.1, 1e-12, 1e-11, None)
        frame = traceback.extract_tb(info.value.__traceback__)[-2]
        assert (frame.name, frame.filename) == (name, step.__code__.co_filename)
        assert frame.line.startswith("k1_1, k1_2, k1_3, k1_4 = ")
        assert frame.line.endswith("magnetic_rhs(system, y)")
        assert inspect.getsource(step).splitlines()[frame.lineno - 1].strip() == frame.line

    @pytest.mark.parametrize("name", ["_dp_step", "_dop853_step"])
    @pytest.mark.parametrize("given", [False, True])
    @pytest.mark.parametrize("raise_call", [None, 1, 2])
    def test_a_step_hands_back_the_rates_at_its_start(self, monkeypatch, name, given, raise_call):
        """A step returns the stages it called, then the rates at y: stage
        1's, or the ``f`` given where stage 1 was not evaluated or raised,
        so None only where stage 1 raised with no f given.  The rates at
        the end point come last, None on a raise."""
        calls = []

        def stand_in(system, phase):
            calls.append(phase)
            if len(calls) == raise_call:
                raise DomainError("raised on purpose")
            return [float(len(calls))] * 4

        monkeypatch.setattr(flow, "magnetic_rhs", stand_in)
        f = [0.5] * 4 if given else None
        stages, z, _, at_y, at_z = getattr(flow, name)(None, [1.0] * 4, 0.1, 1e-12, 1e-11, f)
        assert stages == len(calls)
        evaluated = name == "_dp_step" or not given
        if evaluated and raise_call != 1:
            assert at_y == [1.0] * 4
        else:
            assert at_y is f
        if raise_call is None:
            assert len(z) == 4 and at_z == [float(stages)] * 4
        else:
            assert z is None and at_z is None


def _on_level(system, rho, psi, phi):
    return (rho, psi, *momentum_on_level(system, rho, psi, phi))


def _half_plane(x_b):
    """ex1's uniform field on the chart x < x_b."""
    ex1 = get_example("ex1").system
    domain = ChartDomain(bbox=(-8.0, x_b, -8.0, 8.0), predicate=lambda x, y: x < x_b)
    return dataclasses.replace(ex1, domain=domain, name=f"ex1 on x < {x_b}")


def _larmor_crossing(phase0, x_b):
    """First t > 0 with x(t) = x_b on the Larmor circle of B = 1:
    x(t) = x0 + p1 sin t + p2 (1 - cos t), so p1 sin t - p2 cos t =
    r sin(t - alpha) = x_b - x0 - p2."""
    x0, _, p1, p2 = phase0
    r, alpha = math.hypot(p1, p2), math.atan2(p2, p1)
    arc = math.asin((x_b - x0 - p2) / r)
    return min((alpha + arc) % (2.0 * math.pi), (alpha + math.pi - arc) % (2.0 * math.pi))


class TestChartExit:
    """The adaptive method ends an orbit that leaves its chart at a
    recorded state inside the chart, next to the crossing."""

    @pytest.mark.parametrize("phase0, x_b", [
        ((0.0, 0.0, 1.0, 0.0), 0.5),
        ((0.2, -0.3, 0.8, 0.6), 1.0),
        ((0.0, 0.0, -0.6, 0.8), 0.9),
    ])
    def test_larmor_half_plane_crossing(self, phase0, x_b):
        """The exit time is the closed-form crossing to 1e-9."""
        system = _half_plane(x_b)
        t_cross = _larmor_crossing(phase0, x_b)
        np.testing.assert_allclose(larmor_orbit(phase0, t_cross)[0], x_b, rtol=1e-14)
        trajectory = integrate(system, phase0, TrajectoryConfig(t_end=10.0))
        assert trajectory.domain_exit
        assert trajectory.exit_time == trajectory.times[-1]
        assert abs(trajectory.exit_time - t_cross) <= 1e-9
        last = trajectory.states[-1]
        assert system.domain.contains(last[0], last[1])
        np.testing.assert_allclose(last, larmor_orbit(phase0, trajectory.exit_time), atol=1e-10)

    @pytest.mark.parametrize("case", ["ex6", "elliptic-half"])
    def test_crossing_matches_solve_ivp(self, case, elliptic_half):
        """On a curved chart the exit time is scipy's event location on a
        DOP853 solution at tolerance 1e-12, to 1e-9."""
        if case == "ex6":
            system, phase0, t_end, edge = get_example("ex6").system, (1.0, 0.6, 1.0, 0.5), 20.0, 0.02
        else:
            system, t_end, edge = elliptic_half, 1.0, 3.0
            phase0 = _on_level(elliptic_half, 1.2, 0.3, 0.7)

        def at_edge(t, y):
            return y[0] - edge

        at_edge.terminal = True
        # the reference runs past the chart predicate to meet the event
        unbounded = dataclasses.replace(system, domain=ChartDomain(system.domain.bbox))
        solution = solve_ivp(lambda t, y: magnetic_rhs(unbounded, y),
                             (0.0, t_end), list(phase0), method="DOP853",
                             rtol=1e-12, atol=1e-12, events=at_edge)
        (t_cross,) = solution.t_events[0]
        trajectory = integrate(system, phase0, TrajectoryConfig(t_end=t_end))
        assert trajectory.domain_exit
        assert trajectory.exit_time == trajectory.times[-1]
        assert abs(trajectory.exit_time - t_cross) <= 1e-9
        assert system.domain.contains(trajectory.states[-1][0], trajectory.states[-1][1])

    def test_singular_metric_inside_the_chart_is_a_flagged_exit(self):
        """g22 = 1 - x degenerates on x = 1 in a chart without a predicate.
        The tangent stays inside, so the step is halved, and the run ends
        as a flagged exit once the step underflows."""
        metric = Metric(components=lambda x, y: (1.0, 0.0, 1.0 - x),
                        partials=lambda x, y: ((0.0, 0.0, -1.0), (0.0, 0.0, 0.0)))
        system = MagneticSystem(metric=metric, field=lambda x, y: 0.0,
                                domain=ChartDomain(bbox=(-2.0, 2.0, -2.0, 2.0)),
                                energy=1.0, name="degenerate on x = 1")
        trajectory = integrate(system, (0.0, 0.0, 1.0, 0.0), TrajectoryConfig(t_end=2.0))
        assert trajectory.domain_exit
        assert trajectory.exit_time == trajectory.times[-1]
        assert 1.0 - 1e-9 < trajectory.exit_time < 1.0

    def test_singular_start_is_a_flagged_exit(self):
        """A start on a degenerate metric ends at t = 0: stage 1 of the
        first trial step raises there, one boundary rejection after one
        call."""
        metric = Metric(components=lambda x, y: (1.0, 0.0, -x),
                        partials=lambda x, y: ((0.0, 0.0, -1.0), (0.0, 0.0, 0.0)))
        system = MagneticSystem(metric=metric, field=lambda x, y: 0.0,
                                domain=ChartDomain(bbox=(-2.0, 2.0, -2.0, 2.0)),
                                energy=1.0, name="degenerate at x >= 0")
        trajectory = integrate(system, (0.0, 0.0, 1.0, 0.0), TrajectoryConfig(t_end=1.0))
        assert trajectory.domain_exit and trajectory.exit_time == 0.0
        assert (trajectory.rejected_boundary, trajectory.rhs_evals, len(trajectory)) == (1, 1, 1)


class TestDop853Exits:
    """dop853 ends an orbit that leaves its chart as embedded_rk45 does:
    the boundary handling is shared, so only the steps that reach the
    edge differ."""

    @pytest.mark.parametrize("name, t_end", [("ex3", 60.0), ("ex5", 1000.0), ("ex6", 60.0)])
    def test_exit_times_agree_with_dormand_prince(self, name, t_end):
        """Every sample orbit leaves the chart; the two methods' exit
        times agree to 1e-8 relative, and each last state is inside."""
        entry = get_example(name)
        contains = entry.system.domain.contains
        for phase in entry.sample_phases:
            dp5, dop853 = (integrate(entry.system, phase, TrajectoryConfig(t_end=t_end, method=m))
                           for m in ("embedded_rk45", "dop853"))
            assert dp5.domain_exit and dop853.domain_exit
            assert dop853.exit_time == dop853.times[-1]
            assert abs(dop853.exit_time - dp5.exit_time) <= 1e-8 * dp5.exit_time
            assert contains(dop853.states[-1][0], dop853.states[-1][1])

    @pytest.mark.parametrize("phase0, x_b", [
        ((0.0, 0.0, 1.0, 0.0), 0.5),
        ((0.2, -0.3, 0.8, 0.6), 1.0),
    ])
    def test_larmor_half_plane_crossing(self, phase0, x_b):
        """The exit time is the closed-form crossing to 1e-9."""
        system = _half_plane(x_b)
        trajectory = integrate(system, phase0, TrajectoryConfig(t_end=10.0, method="dop853"))
        assert trajectory.domain_exit
        assert abs(trajectory.exit_time - _larmor_crossing(phase0, x_b)) <= 1e-9
        last = trajectory.states[-1]
        assert system.domain.contains(last[0], last[1])
        np.testing.assert_allclose(last, larmor_orbit(phase0, trajectory.exit_time), atol=1e-10)

    def test_singular_start_is_a_flagged_exit(self):
        """A start on a degenerate metric ends at t = 0: stage 1 of the
        first trial step raises there, one boundary rejection after one
        call, as for embedded_rk45."""
        metric = Metric(components=lambda x, y: (1.0, 0.0, -x),
                        partials=lambda x, y: ((0.0, 0.0, -1.0), (0.0, 0.0, 0.0)))
        system = MagneticSystem(metric=metric, field=lambda x, y: 0.0,
                                domain=ChartDomain(bbox=(-2.0, 2.0, -2.0, 2.0)),
                                energy=1.0, name="degenerate at x >= 0")
        config = TrajectoryConfig(t_end=1.0, method="dop853")
        trajectory = integrate(system, (0.0, 0.0, 1.0, 0.0), config)
        assert trajectory.domain_exit and trajectory.exit_time == 0.0
        assert (trajectory.rejected_boundary, trajectory.rhs_evals, len(trajectory)) == (1, 1, 1)


class TestFixedStepEnds:
    """How a fixed-step run ends: at a chart exit found by a stage or by
    the end point, and with the final state recorded whatever
    ``record_every`` is."""

    @staticmethod
    def _free_towards(x_b):
        """Free motion on the chart x < x_b."""
        free = _free_system()
        return dataclasses.replace(free, domain=ChartDomain(
            bbox=(-2.0, x_b, -2.0, 2.0), predicate=lambda x, y: x < x_b))

    def _stage_exit(self, record_every):
        # unit speed along x from x = 0 in steps of 0.3: the fourth step's
        # second stage, at x = 1.05, is the first point outside x < 1
        config = TrajectoryConfig(t_end=2.0, method="fixed_rk4", step=0.3,
                                  record_every=record_every)
        return integrate(self._free_towards(1.0), (0.0, 0.0, 1.0, 0.0), config)

    def test_stage_outside_the_chart_ends_the_run(self):
        """The run ends at the last whole step, after the two calls of the
        step whose stage left the chart."""
        trajectory = self._stage_exit(1)
        assert trajectory.domain_exit
        assert trajectory.exit_time == trajectory.times[-1] == 0.3 + 0.3 + 0.3
        assert (trajectory.accepted, trajectory.rhs_evals, len(trajectory)) == (3, 4 * 3 + 2, 4)
        assert trajectory.states[-1].tolist() == [0.3 + 0.3 + 0.3, 0.0, 1.0, 0.0]

    def test_end_point_outside_the_chart_ends_the_run(self):
        """A chart that lacks only the end point of the first step: its four
        stages are inside, and the end-point test stops the run at t = 0."""
        ex1 = get_example("ex1").system
        phase0 = (0.0, 0.0, 1.0, 0.0)
        one_step = TrajectoryConfig(t_end=0.5, method="fixed_rk4", step=0.5)
        end = tuple(integrate(ex1, phase0, one_step).states[-1, :2].tolist())
        holed = dataclasses.replace(ex1, domain=ChartDomain(
            bbox=ex1.domain.bbox, predicate=lambda x, y: (x, y) != end))
        config = TrajectoryConfig(t_end=2.0, method="fixed_rk4", step=0.5)
        trajectory = integrate(holed, phase0, config)
        assert trajectory.domain_exit and trajectory.exit_time == 0.0
        assert (trajectory.accepted, trajectory.rhs_evals, len(trajectory)) == (0, 4, 1)

    def test_final_state_recorded_at_t_end(self):
        """Four steps with record_every = 3 keep t = 0.75 and then the
        final state at t = 1, the same state an every-step run ends on."""
        ex1 = get_example("ex1").system
        runs = [integrate(ex1, (0.0, 0.0, 1.0, 0.0), TrajectoryConfig(
            t_end=1.0, method="fixed_rk4", step=0.25, record_every=every)) for every in (1, 3)]
        assert runs[1].times.tolist() == [0.0, 0.75, 1.0]
        assert runs[1].states[-1].tolist() == runs[0].states[-1].tolist()
        assert not runs[1].domain_exit

    def test_final_state_recorded_on_exit(self):
        """Three steps before the exit with record_every = 2 keep t = 0.6
        and then the last state inside the chart."""
        every_step, thinned = self._stage_exit(1), self._stage_exit(2)
        assert thinned.times.tolist() == [0.0, 0.3 + 0.3, 0.3 + 0.3 + 0.3]
        assert thinned.states[-1].tolist() == every_step.states[-1].tolist()
        assert thinned.exit_time == thinned.times[-1]


class TestConservationDrift:
    def test_linear_invariant_long_run(self):
        """Example 1's integral holds to 1e-8 over t in [0, 100]."""
        ex1 = get_example("ex1")
        trajectory = integrate(ex1.system, ex1.sample_phases[0],
                               TrajectoryConfig(t_end=100.0))
        report = conservation_drift(ex1.system, trajectory, ex1.integrals[0])
        assert report.max_abs_drift <= 1e-8

    def test_hamiltonian_long_run(self):
        """H stays within the integrator tolerance over t in [0, 100]."""
        ex1 = get_example("ex1")
        trajectory = integrate(ex1.system, ex1.sample_phases[0],
                               TrajectoryConfig(t_end=100.0))
        report = conservation_drift(
            ex1.system, trajectory, lambda s: hamiltonian(ex1.system, s))
        assert report.max_abs_drift <= 1e-9

    def test_quadratic_integral_short_run(self):
        """Example 3's integral holds to 1e-6 over t in [0, 10]."""
        ex3 = get_example("ex3")
        trajectory = integrate(ex3.system, ex3.sample_phases[0],
                               TrajectoryConfig(t_end=10.0))
        report = conservation_drift(ex3.system, trajectory, ex3.integrals[0])
        assert report.max_abs_drift <= 1e-6

    def test_initial_value_recorded(self):
        """The report keeps the value at the first recorded state."""
        ex1 = get_example("ex1")
        trajectory = integrate(ex1.system, (0.0, 0.0, 1.0, 0.0),
                               TrajectoryConfig(t_end=1.0))
        report = conservation_drift(ex1.system, trajectory, ex1.integrals[0])
        np.testing.assert_allclose(report.initial_value, math.cos(1.0), rtol=1e-12)

    def test_series_matches_the_scalar_on_each_row(self):
        """The drift of H and of every integral, on all seven catalog
        entries and an elliptic-half bundle, evaluated once on chart
        columns, is bit-identical to the scalar called on each state as an
        ndarray row."""
        cases = [(entry.system, entry.sample_phases[0], entry.integrals)
                 for entry in list_examples()]
        bundle = build_bundle(EllipticHalf())
        system = bundle.as_system()
        cases.append((system, (1.2, 0.5, *momentum_on_level(system, 1.2, 0.5, 0.9)),
                      (bundle.as_integral(),)))
        for system, phase0, integrals in cases:
            trajectory = integrate(system, phase0, TrajectoryConfig(t_end=2.0))
            assert len(trajectory) > 5
            for scalar in (hamiltonian_integral(system), *integrals):
                report = conservation_drift(system, trajectory, scalar)
                values = np.array([scalar(row) for row in trajectory.states])
                assert report.drift_series.tobytes() == (values - values[0]).tobytes()
                assert report.initial_value == values[0]
                assert report.max_abs_drift == float(np.max(np.abs(values - values[0])))

    def test_scalar_receives_chart_columns_once(self):
        """``scalar`` is called once, with the recorded states as four
        (N, 1) chart columns."""
        ex1 = get_example("ex1")
        trajectory = integrate(ex1.system, ex1.sample_phases[0], TrajectoryConfig(t_end=1.0))
        seen = []

        def scalar(state):
            seen.append(state)
            return state[2]

        report = conservation_drift(ex1.system, trajectory, scalar)
        assert len(seen) == 1
        assert [np.shape(column) for column in seen[0]] == [(len(trajectory), 1)] * 4
        for k, column in enumerate(seen[0]):
            assert column[:, 0].tolist() == trajectory.states[:, k].tolist()
        assert report.drift_series.tolist() == (trajectory.states[:, 2]
                                                - trajectory.states[0, 2]).tolist()

    @staticmethod
    def _marked_state(k=7):
        """An ex1 trajectory and the x of its k-th state, which no other
        recorded state shares."""
        ex1 = get_example("ex1")
        trajectory = integrate(ex1.system, ex1.sample_phases[1], TrajectoryConfig(t_end=2.0))
        x_k = trajectory.states[k, 0]
        assert (trajectory.states[:, 0] == x_k).sum() == 1
        return ex1, trajectory, x_k

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_raising_state_names_its_time(self):
        """An integral whose ``func`` raises at the k-th state only fails
        the drift with EvaluationError at that state's time, and no
        RuntimeWarning escapes."""
        k = 7
        ex1, trajectory, x_k = self._marked_state(k)

        def func(s):
            if np.any(s[0] == x_k):
                raise ValueError("undefined at x_k")
            return s[2]

        integral = FirstIntegral("F", "rational", func, grad=lambda s: (0.0, 0.0, 0.0, 0.0))
        with pytest.raises(EvaluationError, match=re.escape(f"t = {trajectory.times[k]}: ")):
            conservation_drift(ex1.system, trajectory, integral)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_value_names_its_time(self):
        """A value that is infinite at the k-th state only fails the drift
        with EvaluationError at that state's time."""
        k = 7
        ex1, trajectory, x_k = self._marked_state(k)
        with pytest.raises(EvaluationError,
                           match=re.escape(f"non-finite at t = {trajectory.times[k]}")):
            conservation_drift(ex1.system, trajectory,
                               lambda s: np.where(s[0] == x_k, np.inf, s[2]))

    def test_broken_scalar_wrapped(self):
        """A scalar that raises becomes EvaluationError, not a crash."""
        ex1 = get_example("ex1")
        trajectory = integrate(ex1.system, (0.0, 0.0, 1.0, 0.0),
                               TrajectoryConfig(t_end=0.5))

        def broken(state):
            raise ZeroDivisionError("boom")

        with pytest.raises(EvaluationError, match=re.escape(f"t = {trajectory.times[0]}: boom")):
            conservation_drift(ex1.system, trajectory, broken)


class TestConvergenceOrder:
    def test_nonlinear_examples_are_fourth_order(self):
        """Integral drift shrinks at order 4 +/- 0.5 on Examples 5 and 6."""
        for name in ("ex5", "ex6"):
            entry = get_example(name)
            order = convergence_order(entry.system, entry.sample_phases[0],
                                      entry.integrals[0], [0.01, 0.005, 0.0025])
            assert 3.5 <= order <= 4.5, (name, order)

    def test_exactly_conserved_scalar_is_flagged(self):
        """A roundoff-flat drift yields nan instead of a bogus slope."""
        ex1 = get_example("ex1")
        order = convergence_order(ex1.system, (0.0, 0.0, 1.0, 0.4),
                                  ex1.integrals[0], [0.01, 0.005, 0.0025])
        assert math.isnan(order)

    def test_needs_three_steps(self):
        """Fewer than three step sizes cannot fix a slope."""
        ex1 = get_example("ex1")
        with pytest.raises(ValueError):
            convergence_order(ex1.system, (0.0, 0.0, 1.0, 0.0),
                              ex1.integrals[0], [0.01, 0.005])

    def test_global_error_order_on_circular_orbit(self):
        """Against the closed-form orbit the scheme shows its global order."""
        ex1 = get_example("ex1")
        phase0 = (0.0, 0.0, 1.0, 0.4)
        steps = [0.01, 0.005, 0.0025]
        errors = []
        for h in steps:
            config = TrajectoryConfig(t_end=10.0, method="fixed_rk4", step=h)
            trajectory = integrate(ex1.system, phase0, config)
            worst = max(
                float(np.max(np.abs(np.asarray(s) - larmor_orbit(phase0, t))))
                for t, s in zip(trajectory.times, trajectory.states))
            errors.append(worst)
        slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert 3.5 <= slope <= 4.5


class TestFixedStepScaling:
    @pytest.mark.parametrize("name", ["ex2", "ex2b", "ex4", "ex5", "ex6"])
    def test_halving_divides_drift_by_sixteen(self, name):
        """Fixed-step drift falls by 16 within +/- 50% when h is halved."""
        entry = get_example(name)
        phase0 = entry.sample_phases[0]
        drifts = []
        for h in (0.01, 0.005):
            config = TrajectoryConfig(t_end=10.0, method="fixed_rk4", step=h)
            trajectory = integrate(entry.system, phase0, config)
            report = conservation_drift(entry.system, trajectory, entry.integrals[0])
            drifts.append(report.max_abs_drift)
        ratio = drifts[0] / drifts[1]
        assert 8.0 <= ratio <= 24.0, (name, ratio)
