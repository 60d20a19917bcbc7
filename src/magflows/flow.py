"""Integration of the magnetic geodesic flow.

The equations of motion are the magnetic Hamiltonian vector field X_H:

    dq1/dt = dH/dp1,          dq2/dt = dH/dp2,
    dp1/dt = -dH/dq1 + Omega * dH/dp2,
    dp2/dt = -dH/dq2 - Omega * dH/dp1,

with H = (1/2) p^T G(q)^{-1} p.  :func:`magnetic_rhs` adds only the domain
check: it evaluates the chart point's local geometry once
(:meth:`magflows.geometry.MagneticSystem.local_geometry`), and H's
gradient from :func:`magflows.geometry.hamiltonian_gradient` and X_H from
:func:`magflows.geometry.vector_field` both read that one evaluation.

Two steppers are provided: the classic fixed-step fourth-order scheme and
a Dormand-Prince embedded 4(5) pair with a proportional step controller
(safety 0.9, growth factor clamped to [0.2, 5.0]).  Both step on lists of
four Python floats, and every stage sum is written out left to right, so
the bits of a trajectory depend only on IEEE double arithmetic and not on
the BLAS kernel numpy picks at run time.  Trajectories that leave the
chart domain stop early and carry a ``domain_exit`` flag rather than
raising.  A :class:`Trajectory` also counts its right-hand-side
evaluations and its rejected steps by cause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, EvaluationError, SingularMetric, StepFailure
from .geometry import MagneticSystem, hamiltonian_gradient, vector_field

__all__ = [
    "TrajectoryConfig",
    "Trajectory",
    "ConservationReport",
    "magnetic_rhs",
    "integrate",
    "conservation_drift",
    "convergence_order",
]


@dataclass(frozen=True)
class TrajectoryConfig:
    """Integration settings.

    ``method`` is ``"fixed_rk4"`` (requires ``step``) or
    ``"embedded_rk45"`` (uses ``rel_tol``/``abs_tol``).  ``record_every``
    keeps every n-th accepted state; the initial and final states are
    always recorded.  Times and tolerances must be finite.
    """

    t_end: float
    method: str = "embedded_rk45"
    step: Optional[float] = None
    rel_tol: float = 1e-11
    abs_tol: float = 1e-12
    record_every: int = 1

    def __post_init__(self):
        for name in ("t_end", "step", "rel_tol", "abs_tol"):
            value = getattr(self, name)
            # an infinite t_end makes the minimum step infinite, and halving
            # an infinite step never ends
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.method not in ("fixed_rk4", "embedded_rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "fixed_rk4":
            if self.step is None or not self.step > 0.0:
                raise ValueError("fixed_rk4 requires a positive step")
        else:
            if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
                raise ValueError("adaptive tolerances must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Recorded solution curve with its work counts.

    ``rhs_evals`` counts the calls of :func:`magnetic_rhs`, one that raised
    included.  Rejected trial steps are counted by cause: the error
    estimate was above the tolerance (``rejected_error``), a stage or the
    end point was outside the chart (``rejected_boundary``), or the end
    state was not finite (``rejected_nonfinite``).
    """

    times: np.ndarray
    states: np.ndarray
    accepted: int
    rejected_error: int
    rejected_boundary: int
    rejected_nonfinite: int
    rhs_evals: int
    domain_exit: bool = False
    exit_time: Optional[float] = None

    def __len__(self) -> int:
        return len(self.times)

    @property
    def rejected(self) -> int:
        return self.rejected_error + self.rejected_boundary + self.rejected_nonfinite

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class ConservationReport:
    """Drift of a scalar along a trajectory."""

    initial_value: float
    max_abs_drift: float
    drift_series: np.ndarray = field(repr=False)


def magnetic_rhs(system: MagneticSystem, phase, check_domain: bool = True) -> np.ndarray:
    """Right-hand side (dq1, dq2, dp1, dp2) = X_H of the flow at a phase point."""
    if isinstance(phase, np.ndarray):
        phase = phase.tolist()
    x, y, p1, p2 = map(float, phase)
    if check_domain:
        system.require_inside(x, y)
    local = system.local_geometry(x, y)
    return vector_field(system, x, y, hamiltonian_gradient(system, (x, y, p1, p2), local), local)


# Dormand-Prince 4(5) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# Table II.5.2): the stage rows _A; the fifth-order weights _B, which are
# also the stage-7 row, so stage 7 is evaluated at the new state; and the
# error weights _E = b5 - b4 as exact fractions.  Zero entries are left out.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
)

_SAFETY = 0.9
_SHRINK_LIMIT = 0.2
_GROWTH_LIMIT = 5.0
_MIN_STEP_FRACTION = 1e-12


def _rk4_step(rhs, y, h):
    half = 0.5 * h
    k1 = rhs(y)
    k2 = rhs([v + half * a for v, a in zip(y, k1)])
    k3 = rhs([v + half * b for v, b in zip(y, k2)])
    k4 = rhs([v + h * c for v, c in zip(y, k3)])
    sixth = h / 6.0
    return [v + sixth * (a + 2.0 * b + 2.0 * c + d) for v, a, b, c, d in zip(y, k1, k2, k3, k4)]


def _dp_step(rhs, y, h):
    """One Dormand-Prince trial step: returns (y5, error estimate)."""
    k1 = rhs(y)
    k2 = rhs([v + h * (_A21 * a) for v, a in zip(y, k1)])
    k3 = rhs([v + h * (_A31 * a + _A32 * b) for v, a, b in zip(y, k1, k2)])
    k4 = rhs([v + h * (_A41 * a + _A42 * b + _A43 * c) for v, a, b, c in zip(y, k1, k2, k3)])
    k5 = rhs([v + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
              for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
    k6 = rhs([v + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
              for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
    y5 = [v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * f)
          for v, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)]
    k7 = rhs(y5)
    err = [h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * g)
           for a, c, d, e, f, g in zip(k1, k3, k4, k5, k6, k7)]
    return y5, err


def _error_norm(err, y, y_new, abs_tol, rel_tol):
    """Root mean square of err / (abs_tol + rel_tol * max(|y|, |y_new|)).

    The squares are summed left to right, as numpy's mean of four values
    does; ``q * q`` overflows to inf where ``q ** 2`` would raise.
    """
    total = 0.0
    for e, a, b in zip(err, y, y_new):
        q = e / (abs_tol + rel_tol * max(abs(a), abs(b)))
        total += q * q
    return math.sqrt(total / 4)


class _Recorder:
    """Every ``every``-th accepted state, kept as lists of floats, and the
    work counts of one run."""

    def __init__(self, y0, every):
        self.every = every
        self.times = [0.0]
        self.states = [y0]
        self.accepted = 0
        self.rejected_error = self.rejected_boundary = self.rejected_nonfinite = 0
        self.rhs_evals = 0
        self.exit_time = None

    def push(self, t, y):
        self.accepted += 1
        if self.accepted % self.every == 0:
            self.times.append(t)
            self.states.append(y)

    def build(self, t, y):
        """The trajectory, ending with the state y at time t."""
        if self.times[-1] != t:
            self.times.append(t)
            self.states.append(y)
        return Trajectory(
            times=np.array(self.times),
            states=np.array(self.states),
            accepted=self.accepted,
            rejected_error=self.rejected_error,
            rejected_boundary=self.rejected_boundary,
            rejected_nonfinite=self.rejected_nonfinite,
            rhs_evals=self.rhs_evals,
            domain_exit=self.exit_time is not None,
            exit_time=self.exit_time,
        )


def integrate(system: MagneticSystem, phase0, config: TrajectoryConfig) -> Trajectory:
    """Integrate the flow from ``phase0`` for ``config.t_end`` time units.

    Raises
    ------
    DomainError
        If the initial point is outside the domain.
    StepFailure
        If the adaptive controller underflows its minimum step for a
        reason other than a domain boundary, or a state goes non-finite.
    """
    phase = np.asarray(phase0, dtype=float)
    if phase.shape != (4,):
        raise ValueError("phase0 must have four components (x, y, p1, p2)")
    y = phase.tolist()
    system.require_inside(y[0], y[1])
    rec = _Recorder(y, config.record_every)

    def rhs(state):
        rec.rhs_evals += 1
        return magnetic_rhs(system, state).tolist()

    if config.method == "fixed_rk4":
        t, y = _integrate_fixed(system, y, rhs, rec, config)
    else:
        t, y = _integrate_adaptive(y, rhs, rec, config)
    return rec.build(t, y)


def _integrate_fixed(system, y, rhs, rec, config):
    t = 0.0
    t_end = config.t_end
    step = config.step
    while t < t_end * (1.0 - 1e-14):
        h = min(step, t_end - t)
        try:
            y_new = _rk4_step(rhs, y, h)
        except (DomainError, SingularMetric):
            rec.exit_time = t
            break
        if not all(map(math.isfinite, y_new)):
            raise StepFailure(f"non-finite state at t = {t + h}")
        if not system.domain.contains(y_new[0], y_new[1]):
            rec.exit_time = t
            break
        t += h
        y = y_new
        rec.push(t, y)
    return t, y


def _integrate_adaptive(y, rhs, rec, config):
    t = 0.0
    t_end = config.t_end
    h_min = _MIN_STEP_FRACTION * t_end
    h = min(1e-3 * t_end, t_end)
    while t < t_end * (1.0 - 1e-14):
        h = min(h, t_end - t)
        if h < h_min:
            raise StepFailure(f"step underflow at t = {t}: h = {h}")
        try:
            y_new, err = _dp_step(rhs, y, h)
        except (DomainError, SingularMetric):
            # a stage left the chart (stage 7 is evaluated at y_new, so this
            # covers the end point too); could be an overshoot of an open
            # boundary: shrink and retry, give up (flagged, not raised) once
            # the step underflows
            h *= 0.5
            rec.rejected_boundary += 1
            if h < h_min:
                rec.exit_time = t
                break
            continue
        if not all(map(math.isfinite, y_new)):
            h *= 0.5
            rec.rejected_nonfinite += 1
            if h < h_min:
                raise StepFailure(f"non-finite state at t = {t}")
            continue
        err_norm = _error_norm(err, y, y_new, config.abs_tol, config.rel_tol)
        if err_norm <= 1.0:
            t += h
            y = y_new
            rec.push(t, y)
            factor = _GROWTH_LIMIT if err_norm == 0.0 else _SAFETY * err_norm ** -0.2
        else:
            rec.rejected_error += 1
            factor = max(_SHRINK_LIMIT, _SAFETY * err_norm ** -0.2)
        h *= min(_GROWTH_LIMIT, max(_SHRINK_LIMIT, factor))
    return t, y


def conservation_drift(
    system: MagneticSystem, trajectory: Trajectory, scalar: Callable
) -> ConservationReport:
    """Evaluate ``scalar`` at every recorded state and report its drift.

    ``scalar`` takes a length-4 phase vector.  A raised exception or a
    non-finite value anywhere along the trajectory becomes
    :class:`EvaluationError`.
    """
    values = np.empty(len(trajectory))
    for i, state in enumerate(trajectory.states):
        try:
            v = float(scalar(state))
        except Exception as exc:
            raise EvaluationError(
                f"scalar undefined at t = {trajectory.times[i]}: {exc}"
            ) from exc
        if not np.isfinite(v):
            raise EvaluationError(
                f"scalar non-finite at t = {trajectory.times[i]}"
            )
        values[i] = v
    drift = values - values[0]
    return ConservationReport(
        initial_value=float(values[0]),
        max_abs_drift=float(np.max(np.abs(drift))),
        drift_series=drift,
    )


def convergence_order(
    system: MagneticSystem,
    phase0,
    scalar: Callable,
    steps: Sequence[float],
    t_end: float = 10.0,
) -> float:
    """Observed order of fixed-step drift decay for a conserved scalar.

    Integrates with the fixed-step scheme at each step size, measures the
    maximum drift of ``scalar`` and returns the least-squares slope of
    log(drift) against log(step).  Returns ``nan`` when the regression is
    degenerate: a drift at the round-off floor (an exactly conserved
    scalar) carries no order information.
    """
    steps = list(steps)
    if len(steps) < 3:
        raise ValueError("need at least 3 step sizes")
    drifts = []
    for h in steps:
        config = TrajectoryConfig(t_end=t_end, method="fixed_rk4", step=float(h))
        traj = integrate(system, phase0, config)
        if traj.domain_exit:
            raise StepFailure(f"orbit left the domain at step size {h}")
        drifts.append(conservation_drift(system, traj, scalar).max_abs_drift)
    drifts = np.asarray(drifts)
    if np.any(drifts < 1e-14):
        return float("nan")
    slope = np.polyfit(np.log(np.asarray(steps, dtype=float)), np.log(drifts), 1)[0]
    return float(slope)
