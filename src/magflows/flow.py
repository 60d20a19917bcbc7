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
(safety 0.9, growth factor clamped to [0.2, 5.0]).  Trajectories that
leave the chart domain stop early and carry a ``domain_exit`` flag rather
than raising.
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
    always recorded.
    """

    t_end: float
    method: str = "embedded_rk45"
    step: Optional[float] = None
    rel_tol: float = 1e-11
    abs_tol: float = 1e-12
    record_every: int = 1

    def __post_init__(self):
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
    """Recorded solution curve with step statistics."""

    times: np.ndarray
    states: np.ndarray
    accepted: int
    rejected: int
    domain_exit: bool = False
    exit_time: Optional[float] = None

    def __len__(self) -> int:
        return len(self.times)

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
    x, y, p1, p2 = map(float, phase)
    if check_domain:
        system.require_inside(x, y)
    local = system.local_geometry(x, y)
    return vector_field(system, x, y, hamiltonian_gradient(system, (x, y, p1, p2), local), local)


# Dormand-Prince 4(5) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)

_SAFETY = 0.9
_SHRINK_LIMIT = 0.2
_GROWTH_LIMIT = 5.0
_MIN_STEP_FRACTION = 1e-12


def _rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _dp_step(rhs, y, h):
    """One Dormand-Prince trial step: returns (y5, error_vector)."""
    k = np.empty((7, y.size))
    k[0] = rhs(y)
    for i in range(1, 7):
        k[i] = rhs(y + h * (_DP_A[i] @ k[:i]))
    y5 = y + h * (_DP_B5 @ k)
    err = h * ((_DP_B5 - _DP_B4) @ k)
    return y5, err


class _Recorder:
    def __init__(self, y0, every):
        self.every = every
        self.times = [0.0]
        self.states = [np.array(y0)]
        self.count = 0

    def push(self, t, y):
        self.count += 1
        if self.count % self.every == 0:
            self.times.append(t)
            self.states.append(np.array(y))

    def finish(self, t, y):
        if self.times[-1] != t:
            self.times.append(t)
            self.states.append(np.array(y))

    def build(self, accepted, rejected, domain_exit, exit_time):
        return Trajectory(
            times=np.asarray(self.times),
            states=np.asarray(self.states),
            accepted=accepted,
            rejected=rejected,
            domain_exit=domain_exit,
            exit_time=exit_time,
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
    y = np.asarray(phase0, dtype=float)
    if y.shape != (4,):
        raise ValueError("phase0 must have four components (x, y, p1, p2)")
    system.require_inside(y[0], y[1])

    def rhs(state):
        return magnetic_rhs(system, state)

    if config.method == "fixed_rk4":
        return _integrate_fixed(system, y, rhs, config)
    return _integrate_adaptive(system, y, rhs, config)


def _integrate_fixed(system, y, rhs, config):
    rec = _Recorder(y, config.record_every)
    t = 0.0
    t_end = config.t_end
    step = config.step
    accepted = 0
    domain_exit = False
    exit_time = None
    while t < t_end * (1.0 - 1e-14):
        h = min(step, t_end - t)
        try:
            y_new = _rk4_step(rhs, y, h)
        except (DomainError, SingularMetric):
            domain_exit, exit_time = True, t
            break
        if not np.all(np.isfinite(y_new)):
            raise StepFailure(f"non-finite state at t = {t + h}")
        if not system.domain.contains(y_new[0], y_new[1]):
            domain_exit, exit_time = True, t
            break
        t += h
        y = y_new
        accepted += 1
        rec.push(t, y)
    rec.finish(t, y)
    return rec.build(accepted, 0, domain_exit, exit_time)


def _integrate_adaptive(system, y, rhs, config):
    rec = _Recorder(y, config.record_every)
    t = 0.0
    t_end = config.t_end
    h_min = _MIN_STEP_FRACTION * t_end
    h = min(1e-3 * t_end, t_end)
    accepted = rejected = 0
    domain_exit = False
    exit_time = None
    while t < t_end * (1.0 - 1e-14):
        h = min(h, t_end - t)
        if h < h_min:
            raise StepFailure(f"step underflow at t = {t}: h = {h}")
        boundary = False
        try:
            y_new, err = _dp_step(rhs, y, h)
            if not system.domain.contains(y_new[0], y_new[1]):
                boundary = True
        except (DomainError, SingularMetric):
            boundary = True
        if boundary:
            # could be an overshoot of an open boundary: shrink and retry,
            # give up (flagged, not raised) once the step underflows
            h *= 0.5
            rejected += 1
            if h < h_min:
                domain_exit, exit_time = True, t
                break
            continue
        if not np.all(np.isfinite(y_new)):
            h *= 0.5
            rejected += 1
            if h < h_min:
                raise StepFailure(f"non-finite state at t = {t}")
            continue
        scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = math.sqrt(float(np.mean((err / scale) ** 2)))
        if err_norm <= 1.0:
            t += h
            y = y_new
            accepted += 1
            rec.push(t, y)
            factor = _GROWTH_LIMIT if err_norm == 0.0 else _SAFETY * err_norm ** -0.2
        else:
            rejected += 1
            factor = max(_SHRINK_LIMIT, _SAFETY * err_norm ** -0.2)
        h *= min(_GROWTH_LIMIT, max(_SHRINK_LIMIT, factor))
    rec.finish(t, y)
    return rec.build(accepted, rejected, domain_exit, exit_time)


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
