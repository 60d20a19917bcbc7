"""Integration of the magnetic geodesic flow.

The equations of motion are the magnetic Hamiltonian vector field X_H:

    dq1/dt = dH/dp1,          dq2/dt = dH/dp2,
    dp1/dt = -dH/dq1 + Omega * dH/dp2,
    dp2/dt = -dH/dq2 - Omega * dH/dp1,

with H = (1/2) p^T G(q)^{-1} p.  :func:`magnetic_rhs` is the chart
domain's own test, one evaluation of the chart point's local geometry
(:meth:`magflows.geometry.MagneticSystem.local_geometry`: one ``local``
call on ex3-ex6 and the rational bundles, the metric and field on ex1,
ex2 and ex2b) and one call of the kernel
:func:`magflows.geometry.hamiltonian_flow`, which forms dH and X_H from it
in one frame.  The whole path runs on Python floats: G^{-1} is three
floats and X_H a list of four, so a stage of either stepper builds no
ndarray.

Two steppers are provided: the classic fixed-step fourth-order scheme and
a Dormand-Prince embedded 4(5) pair with a proportional step controller
(safety 0.9, growth factor clamped to [0.2, 5.0]).  Both step on four
named Python floats per stage, and every stage sum is written out left to
right, so the bits of a trajectory depend only on IEEE double arithmetic
and not on the BLAS kernel numpy picks at run time.  Each stage is one
call of :func:`magnetic_rhs`, looked up as this module's global, and each
step returns the number of stages it evaluated, up to one that raised.

Trajectories that leave the chart domain stop early and carry a
``domain_exit`` flag rather than raising.  The fixed-step scheme stops at
its last whole step inside the chart.  The adaptive one locates the chart
edge: when a stage of a trial step falls outside the chart, the tangent
line (q1, q2) + s (dq1/dt, dq2/dt) at the last accepted state is bisected
on the chart predicate, which needs no further right-hand-side call (the
rates at that state are stage 7 of the step that reached it).  The next
trial step goes to 0.99 of the predicted crossing, and the run ends once
the predicted crossing is within 1e-11 * t_end.  The last recorded state
therefore lies inside the chart, and its time is ``exit_time``.  When the
tangent stays inside the chart over the failed step (a singular metric
inside the chart, or a path bending out), the step is halved instead, and
a step below 1e-12 * t_end ends the run as a flagged exit.  A
:class:`Trajectory` counts its right-hand-side calls and rejected steps by
cause.  :func:`conservation_drift` reads a scalar on all its states at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, EvaluationError, SingularMetric, StepFailure
from .geometry import MagneticSystem, hamiltonian_flow

__all__ = [
    "TrajectoryConfig",
    "Trajectory",
    "ConservationReport",
    "magnetic_rhs",
    "integrate",
    "conservation_drift",
]


@dataclass(frozen=True)
class TrajectoryConfig:
    """Integration settings.

    ``method`` is ``"fixed_rk4"`` (requires a ``step`` of at least
    ``t_end`` / 1e7, so that a run takes at most 1e7 steps, and refuses
    tolerances) or ``"embedded_rk45"`` (uses ``rel_tol``/``abs_tol``,
    by default 1e-11 and 1e-12, and refuses a ``step``).  ``record_every``
    keeps every n-th accepted state; the initial and final states are
    always recorded.  Times and tolerances must be finite.
    """

    t_end: float
    method: str = "embedded_rk45"
    step: Optional[float] = None
    rel_tol: Optional[float] = None
    abs_tol: Optional[float] = None
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
            # 1e7 steps take minutes, 1e12 months, and a tiny step stops t advancing
            if self.step is None or not self.step >= self.t_end / _MAX_FIXED_STEPS:
                raise ValueError(f"fixed_rk4 requires a step of at least "
                                 f"t_end / {_MAX_FIXED_STEPS:.0f}, got {self.step}")
            if self.rel_tol is not None or self.abs_tol is not None:
                raise ValueError("fixed_rk4 takes no rel_tol or abs_tol; they are for embedded_rk45")
        else:
            if self.step is not None:
                raise ValueError("embedded_rk45 chooses its own steps; a step is only for fixed_rk4")
            # frozen: the adaptive defaults go in through object.__setattr__
            object.__setattr__(self, "rel_tol", 1e-11 if self.rel_tol is None else self.rel_tol)
            object.__setattr__(self, "abs_tol", 1e-12 if self.abs_tol is None else self.abs_tol)
            if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
                raise ValueError("adaptive tolerances must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Recorded solution curve with its work counts.

    ``rhs_evals`` counts the calls of :func:`magnetic_rhs`, one that raised
    included: the stages of each step (7 or 4, or k when stage k raised)
    and a tangent's call at a state no step gave the rates of.  Rejected
    trial steps are counted by cause: the error estimate was above the
    tolerance (``rejected_error``), a stage or the end point was outside
    the chart (``rejected_boundary``), or the end state was not finite
    (``rejected_nonfinite``).

    ``exit_time`` is None for a run that reached ``t_end``.  For one that
    left the chart it is the time of the last recorded state, which lies
    inside the chart: for the adaptive method within 1e-11 * t_end of the
    crossing predicted along the tangent there (or at a step underflow,
    where a singular metric stopped the run inside the chart), for the
    fixed-step method at the last whole step inside.
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


@dataclass(frozen=True)
class ConservationReport:
    """Drift of a scalar along a trajectory."""

    initial_value: float
    max_abs_drift: float
    drift_series: np.ndarray = field(repr=False)


def magnetic_rhs(system: MagneticSystem, phase) -> list:
    """Right-hand side [dq1, dq2, dp1, dp2] = X_H of the flow at a phase
    point, as a list of four floats: one stage of either stepper, the
    chart domain's test (DomainError outside), one ``local_geometry`` and
    one ``hamiltonian_flow``.  An ndarray phase is read through ``tolist``;
    the components of any other sequence are used as given."""
    if isinstance(phase, np.ndarray):
        phase = phase.tolist()
    x, y, p1, p2 = phase
    if not system.domain.contains(x, y):
        raise DomainError(f"point ({x}, {y}) outside the working domain")
    return hamiltonian_flow(system.local_geometry(x, y), p1, p2)


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
# the most steps a fixed-step run may take
_MAX_FIXED_STEPS = 1e7
# a run that leaves the chart ends once the predicted crossing is within
# _EXIT_FRACTION * t_end; each step towards it goes _APPROACH of the way
_EXIT_FRACTION = 1e-11
_APPROACH = 0.99


def _rk4_step(system, y, h):
    """One classic step: (4, new state), or (k, None) if stage k raised."""
    half = 0.5 * h
    y1, y2, y3, y4 = y
    stage = 1
    try:
        a1, a2, a3, a4 = magnetic_rhs(system, y)
        stage = 2
        b1, b2, b3, b4 = magnetic_rhs(
            system, [y1 + half * a1, y2 + half * a2, y3 + half * a3, y4 + half * a4])
        stage = 3
        c1, c2, c3, c4 = magnetic_rhs(
            system, [y1 + half * b1, y2 + half * b2, y3 + half * b3, y4 + half * b4])
        stage = 4
        d1, d2, d3, d4 = magnetic_rhs(system, [y1 + h * c1, y2 + h * c2, y3 + h * c3, y4 + h * c4])
    except (DomainError, SingularMetric):
        return stage, None
    sixth = h / 6.0
    return 4, [y1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
               y2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
               y3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
               y4 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4)]


def _dp_step(system, y, h, abs_tol, rel_tol):
    """One Dormand-Prince trial step: (7, y5, error norm, rates at y5), or
    (k, None, None, None) when stage k raised DomainError or SingularMetric.
    Stage j's rates are the floats named by the j-th letter.  The norm is
    the RMS of e / (abs_tol + rel_tol * max(|y|, |y5|)) for the error e,
    summed left to right as numpy's mean of four values; ``q * q``
    overflows to inf where ``q ** 2`` would raise."""
    y1, y2, y3, y4 = y
    stage = 1
    try:
        a1, a2, a3, a4 = magnetic_rhs(system, y)
        stage = 2
        b1, b2, b3, b4 = magnetic_rhs(
            system, [y1 + h * (_A21 * a1), y2 + h * (_A21 * a2),
                     y3 + h * (_A21 * a3), y4 + h * (_A21 * a4)])
        stage = 3
        c1, c2, c3, c4 = magnetic_rhs(
            system, [y1 + h * (_A31 * a1 + _A32 * b1), y2 + h * (_A31 * a2 + _A32 * b2),
                     y3 + h * (_A31 * a3 + _A32 * b3), y4 + h * (_A31 * a4 + _A32 * b4)])
        stage = 4
        d1, d2, d3, d4 = magnetic_rhs(
            system, [y1 + h * (_A41 * a1 + _A42 * b1 + _A43 * c1),
                     y2 + h * (_A41 * a2 + _A42 * b2 + _A43 * c2),
                     y3 + h * (_A41 * a3 + _A42 * b3 + _A43 * c3),
                     y4 + h * (_A41 * a4 + _A42 * b4 + _A43 * c4)])
        stage = 5
        e1, e2, e3, e4 = magnetic_rhs(
            system, [y1 + h * (_A51 * a1 + _A52 * b1 + _A53 * c1 + _A54 * d1),
                     y2 + h * (_A51 * a2 + _A52 * b2 + _A53 * c2 + _A54 * d2),
                     y3 + h * (_A51 * a3 + _A52 * b3 + _A53 * c3 + _A54 * d3),
                     y4 + h * (_A51 * a4 + _A52 * b4 + _A53 * c4 + _A54 * d4)])
        stage = 6
        f1, f2, f3, f4 = magnetic_rhs(
            system, [y1 + h * (_A61 * a1 + _A62 * b1 + _A63 * c1 + _A64 * d1 + _A65 * e1),
                     y2 + h * (_A61 * a2 + _A62 * b2 + _A63 * c2 + _A64 * d2 + _A65 * e2),
                     y3 + h * (_A61 * a3 + _A62 * b3 + _A63 * c3 + _A64 * d3 + _A65 * e3),
                     y4 + h * (_A61 * a4 + _A62 * b4 + _A63 * c4 + _A64 * d4 + _A65 * e4)])
        z1 = y1 + h * (_B1 * a1 + _B3 * c1 + _B4 * d1 + _B5 * e1 + _B6 * f1)
        z2 = y2 + h * (_B1 * a2 + _B3 * c2 + _B4 * d2 + _B5 * e2 + _B6 * f2)
        z3 = y3 + h * (_B1 * a3 + _B3 * c3 + _B4 * d3 + _B5 * e3 + _B6 * f3)
        z4 = y4 + h * (_B1 * a4 + _B3 * c4 + _B4 * d4 + _B5 * e4 + _B6 * f4)
        stage = 7
        k7 = magnetic_rhs(system, [z1, z2, z3, z4])
    except (DomainError, SingularMetric):
        return stage, None, None, None
    g1, g2, g3, g4 = k7
    q1 = (h * (_E1 * a1 + _E3 * c1 + _E4 * d1 + _E5 * e1 + _E6 * f1 + _E7 * g1)
          / (abs_tol + rel_tol * max(abs(y1), abs(z1))))
    q2 = (h * (_E1 * a2 + _E3 * c2 + _E4 * d2 + _E5 * e2 + _E6 * f2 + _E7 * g2)
          / (abs_tol + rel_tol * max(abs(y2), abs(z2))))
    q3 = (h * (_E1 * a3 + _E3 * c3 + _E4 * d3 + _E5 * e3 + _E6 * f3 + _E7 * g3)
          / (abs_tol + rel_tol * max(abs(y3), abs(z3))))
    q4 = (h * (_E1 * a4 + _E3 * c4 + _E4 * d4 + _E5 * e4 + _E6 * f4 + _E7 * g4)
          / (abs_tol + rel_tol * max(abs(y4), abs(z4))))
    return 7, [z1, z2, z3, z4], math.sqrt((q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4) / 4), k7


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
        If the adaptive controller underflows its minimum step on the
        error estimate or on non-finite states, or a fixed step gives a
        non-finite state.
    """
    phase = np.asarray(phase0, dtype=float)
    if phase.shape != (4,):
        raise ValueError("phase0 must have four components (x, y, p1, p2)")
    y = phase.tolist()
    system.require_inside(y[0], y[1])
    rec = _Recorder(y, config.record_every)
    if config.method == "fixed_rk4":
        t, y = _integrate_fixed(system, y, rec, config)
    else:
        t, y = _integrate_adaptive(system, y, rec, config)
    return rec.build(t, y)


def _integrate_fixed(system, y, rec, config):
    t = 0.0
    t_end = config.t_end
    step = config.step
    while t < t_end * (1.0 - 1e-14):
        h = min(step, t_end - t)
        stages, y_new = _rk4_step(system, y, h)
        rec.rhs_evals += stages
        if y_new is None:
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


def _tangent_exit(contains, y, f, s_out, width):
    """Where the tangent line (q1, q2) + s (dq1, dq2) of the state y with
    rates f leaves the chart, by bisection of ``contains`` on [0, s_out]:
    (s_in, s_out), the line inside at s_in and outside at s_out, with
    s_out - s_in <= width; None when the line is inside at s_out."""
    x, q, dx, dq = y[0], y[1], f[0], f[1]
    if contains(x + s_out * dx, q + s_out * dq):
        return None
    s_in = 0.0
    while s_out - s_in > width:
        s = 0.5 * (s_in + s_out)
        if contains(x + s * dx, q + s * dq):
            s_in = s
        else:
            s_out = s
    return s_in, s_out


def _integrate_adaptive(system, y, rec, config):
    contains = system.domain.contains
    t = 0.0
    t_end = config.t_end
    abs_tol, rel_tol = config.abs_tol, config.rel_tol
    h_min = _MIN_STEP_FRACTION * t_end
    exit_tol = _EXIT_FRACTION * t_end
    h = min(1e-3 * t_end, t_end)
    f = None  # the rates at y: stage 7 of the step that reached y
    while t < t_end * (1.0 - 1e-14):
        h = min(h, t_end - t)
        if h < h_min:
            raise StepFailure(f"step underflow at t = {t}: h = {h}")
        stages, y_new, err_norm, f_new = _dp_step(system, y, h, abs_tol, rel_tol)
        rec.rhs_evals += stages
        if y_new is None:
            # a stage left the chart or met a singular metric (stage 7 is
            # evaluated at y_new, so this covers the end point too): find
            # where the tangent at y leaves the chart and step to just
            # inside that point, or end the run once it is close enough
            rec.rejected_boundary += 1
            if f is None:
                rec.rhs_evals += 1
                try:
                    f = magnetic_rhs(system, y)
                except (DomainError, SingularMetric):
                    rec.exit_time = t
                    break
            bracket = _tangent_exit(contains, y, f, h, 0.25 * exit_tol)
            if bracket is None:
                # the tangent stays inside: a singular metric inside the
                # chart, or a path that bends out; halve, and give up
                # (flagged, not raised) once the step underflows
                h *= 0.5
                if h < h_min:
                    rec.exit_time = t
                    break
                continue
            s_in, s_out = bracket
            if s_out <= exit_tol:
                rec.exit_time = t
                break
            h = _APPROACH * s_in
            continue
        if not all(map(math.isfinite, y_new)):
            h *= 0.5
            rec.rejected_nonfinite += 1
            if h < h_min:
                raise StepFailure(f"non-finite state at t = {t}")
            continue
        if err_norm <= 1.0:
            t += h
            y = y_new
            f = f_new
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
    """Evaluate ``scalar`` on all recorded states in one call and report its drift.

    ``scalar`` receives the N states as chart columns (x, y, p1, p2) of
    shape (N, 1) and returns values that broadcast to (N, 1), as
    :func:`magflows.geometry.hamiltonian` and a FirstIntegral do, with the
    bits of one call per state.  A raised exception or a non-finite value
    becomes :class:`EvaluationError` naming the time of the first state
    that raises on its own or is not finite.
    """
    times = trajectory.times.tolist()
    columns = tuple(column[:, None] for column in trajectory.states.T)
    try:
        values = np.broadcast_to(np.asarray(scalar(columns), dtype=float), (len(times), 1))[:, 0]
    except Exception as exc:
        t = _first_raising(scalar, columns, times)
        raise EvaluationError(f"scalar undefined at t = {t}: {exc}") from exc
    finite = np.isfinite(values)
    if not finite.all():
        raise EvaluationError(f"scalar non-finite at t = {times[int(np.argmin(finite))]}")
    drift = values - values[0]
    return ConservationReport(
        initial_value=float(values[0]),
        max_abs_drift=float(np.max(np.abs(drift))),
        drift_series=drift,
    )


def _first_raising(scalar, columns, times):
    """The time of the first state at which ``scalar`` raises on its own, or None."""
    for i, t in enumerate(times):
        try:
            scalar(tuple(column[i:i + 1] for column in columns))
        except Exception:
            return t
