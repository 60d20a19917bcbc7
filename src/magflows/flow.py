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
floats and X_H a list of four, so a stage of any stepper builds no
ndarray.

Three steppers are provided (:data:`METHODS`): the classic fixed-step
fourth-order scheme and two embedded pairs sharing one proportional step
controller (safety 0.9, growth factor clamped to [0.2, 5.0]), the
Dormand-Prince 4(5) pair (``embedded_rk45``, the default; step exponent
-1/5) and Hairer's eighth-order DOP853 (``dop853``; exponent -1/8).
DOP853 takes its stage 1 from the rates at the step's start, which the
last stage of the step before evaluated ("first same as last"), so it
makes 12 calls per trial step; the Dormand-Prince step evaluates all 7 of
its stages on every trial.  Every stepper steps on four named Python
floats per stage, and every stage sum is written out left to right, so
the bits of a trajectory depend only on IEEE double arithmetic and not on
the BLAS kernel numpy picks at run time.  Each stage is one call of
:func:`magnetic_rhs`, looked up as this module's global, and each step
returns the number of stages it evaluated, up to one that raised.

Trajectories that leave the chart domain stop early and carry a
``domain_exit`` flag rather than raising.  The fixed-step scheme stops at
its last whole step inside the chart.  The adaptive ones locate the chart
edge in one shared loop: when a stage of a trial step falls outside the
chart, the tangent line (q1, q2) + s (dq1/dt, dq2/dt) at the last accepted
state is bisected on the chart predicate, which needs no further
right-hand-side call (the rates at that state are the last stage of the
step that reached it).  The next trial step goes to 0.99 of the predicted
crossing, and the run ends once the predicted crossing is within
1e-11 * t_end.  The last recorded state therefore lies inside the chart,
and its time is ``exit_time``.  When the tangent stays inside the chart
over the failed step (a singular metric inside the chart, or a path
bending out), the step is halved instead, and a step below 1e-12 * t_end
ends the run as a flagged exit.  A
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
    "METHODS",
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

    ``method`` is one of :data:`METHODS`: ``"fixed_rk4"`` (requires a
    ``step`` of at least ``t_end`` / 1e7, so that a run takes at most 1e7
    steps, and refuses tolerances), or one of the adaptive methods
    ``"embedded_rk45"`` and ``"dop853"`` (use ``rel_tol``/``abs_tol``,
    by default 1e-11 and 1e-12, and refuse a ``step``).  ``record_every``
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
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "fixed_rk4":
            # 1e7 steps take minutes, 1e12 months, and a tiny step stops t advancing
            if self.step is None or not self.step >= self.t_end / _MAX_FIXED_STEPS:
                raise ValueError(f"fixed_rk4 requires a step of at least "
                                 f"t_end / {_MAX_FIXED_STEPS:.0f}, got {self.step}")
            if self.rel_tol is not None or self.abs_tol is not None:
                raise ValueError("fixed_rk4 takes no rel_tol or abs_tol; "
                                 "they are for the adaptive methods")
        else:
            if self.step is not None:
                raise ValueError(f"{self.method} chooses its own steps; "
                                 "a step is only for fixed_rk4")
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
    included: the stages of each step and a tangent's call at a state no
    step gave the rates of.  A trial step of ``embedded_rk45`` makes 7
    calls and one of ``fixed_rk4`` 4, or k when stage k raised.  One of
    ``dop853`` makes 12, or k - 1, as its stage 1 is the rates at its
    start; it evaluates them itself, as a 13th call, only where no step
    or tangent has given them, which is at the initial state until a
    step from there is accepted.  Rejected
    trial steps are counted by cause: the error estimate was above the
    tolerance (``rejected_error``), a stage or the end point was outside
    the chart (``rejected_boundary``), or the end state was not finite
    (``rejected_nonfinite``).

    ``exit_time`` is None for a run that reached ``t_end``.  For one that
    left the chart it is the time of the last recorded state, which lies
    inside the chart: for the adaptive methods within 1e-11 * t_end of the
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

# DOP853, Hairer's eighth-order pair (Hairer, Norsett & Wanner, Solving
# ODEs I, ch. II; the coefficients of scipy.integrate's DOP853, which
# transcribes Hairer's Fortran code): the stage rows _D8A, the
# eighth-order weights _D8B and the fifth- and third-order error weights
# _D8E5 and _D8E3.  Zero entries are left out; stages 2-5 have no weight,
# and the third-order weights of stages 6, 7, 8, 10 and 11 are the _D8B.
_D8A2_1 = 0.05260015195876773
_D8A3_1, _D8A3_2 = 0.0197250569845379, 0.0591751709536137
_D8A4_1, _D8A4_3 = 0.02958758547680685, 0.08876275643042054
_D8A5_1, _D8A5_3, _D8A5_4 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_D8A6_1, _D8A6_4, _D8A6_5 = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
_D8A7_1, _D8A7_4, _D8A7_5 = 0.037109375, 0.17025221101954405, 0.06021653898045596
_D8A7_6 = -0.017578125
_D8A8_1, _D8A8_4, _D8A8_5 = 0.03709200011850479, 0.17038392571223998, 0.10726203044637328
_D8A8_6, _D8A8_7 = -0.015319437748624402, 0.008273789163814023
_D8A9_1, _D8A9_4, _D8A9_5 = 0.6241109587160757, -3.3608926294469414, -0.868219346841726
_D8A9_6, _D8A9_7, _D8A9_8 = 27.59209969944671, 20.154067550477894, -43.48988418106996
_D8A10_1, _D8A10_4, _D8A10_5 = 0.47766253643826434, -2.4881146199716677, -0.590290826836843
_D8A10_6, _D8A10_7, _D8A10_8 = 21.230051448181193, 15.279233632882423, -33.28821096898486
_D8A10_9 = -0.020331201708508627
_D8A11_1, _D8A11_4, _D8A11_5 = -0.9371424300859873, 5.186372428844064, 1.0914373489967295
_D8A11_6, _D8A11_7, _D8A11_8 = -8.149787010746927, -18.52006565999696, 22.739487099350505
_D8A11_9, _D8A11_10 = 2.4936055526796523, -3.0467644718982196
_D8A12_1, _D8A12_4, _D8A12_5 = 2.273310147516538, -10.53449546673725, -2.0008720582248625
_D8A12_6, _D8A12_7, _D8A12_8 = -17.9589318631188, 27.94888452941996, -2.8589982771350235
_D8A12_9, _D8A12_10, _D8A12_11 = -8.87285693353063, 12.360567175794303, 0.6433927460157636
_D8B1, _D8B6, _D8B7 = 0.054293734116568765, 4.450312892752409, 1.8915178993145003
_D8B8, _D8B9, _D8B10 = -5.801203960010585, 0.3111643669578199, -0.1521609496625161
_D8B11, _D8B12 = 0.20136540080403034, 0.04471061572777259
_D8E5_1, _D8E5_6, _D8E5_7 = 0.01312004499419488, -1.2251564463762044, -0.4957589496572502
_D8E5_8, _D8E5_9, _D8E5_10 = 1.6643771824549864, -0.35032884874997366, 0.3341791187130175
_D8E5_11, _D8E5_12 = 0.08192320648511571, -0.022355307863886294
_D8E3_1, _D8E3_9, _D8E3_12 = -0.18980075407240762, -0.4226823213237919, 0.02265179219836082
_D8E3_6, _D8E3_7, _D8E3_8, _D8E3_10, _D8E3_11 = _D8B6, _D8B7, _D8B8, _D8B10, _D8B11

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


def _dp_step(system, y, h, abs_tol, rel_tol, f=None):
    """One Dormand-Prince trial step: (7, y5, error norm, rates at y5), or
    (k, None, None, None) when stage k raised DomainError or SingularMetric.
    Stage 1 is evaluated on every trial step; ``f``, the rates at y, is
    taken only so that both adaptive steps share one signature.
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


def _dop853_step(system, y, h, abs_tol, rel_tol, f=None):
    """One DOP853 trial step: (stages evaluated, y8, error norm, rates at
    y8), or (k, None, None, None) when a stage raised DomainError or
    SingularMetric at the k-th evaluation.  Stage 1 is ``f``, the rates at
    y, and is evaluated only when f is None, so a step makes 12
    evaluations (13 without f); stage 13 is evaluated at y8, so a step
    whose end point leaves the chart raises there, and its rates are the
    next step's stage 1.  Stage j's rates are the floats aj, bj, cj, dj.  The norm is Hairer's
    combined estimate |h| s5 / sqrt((s5 + 0.01 s3) * 4), where s5 and s3
    are the sums of the squares of the fifth- and third-order error
    estimates over abs_tol + rel_tol * max(|y|, |y8|), each written out
    left to right; it is 0 when both sums are 0 and inf when the
    denominator overflows, where inf / inf would give NaN."""
    y1, y2, y3, y4 = y
    given = f is not None
    stage = 1
    try:
        a1, b1, c1, d1 = f if given else magnetic_rhs(system, y)
        stage = 2
        a2, b2, c2, d2 = magnetic_rhs(system, [
            y1 + h * (_D8A2_1 * a1),
            y2 + h * (_D8A2_1 * b1),
            y3 + h * (_D8A2_1 * c1),
            y4 + h * (_D8A2_1 * d1)])
        stage = 3
        a3, b3, c3, d3 = magnetic_rhs(system, [
            y1 + h * (_D8A3_1 * a1 + _D8A3_2 * a2),
            y2 + h * (_D8A3_1 * b1 + _D8A3_2 * b2),
            y3 + h * (_D8A3_1 * c1 + _D8A3_2 * c2),
            y4 + h * (_D8A3_1 * d1 + _D8A3_2 * d2)])
        stage = 4
        a4, b4, c4, d4 = magnetic_rhs(system, [
            y1 + h * (_D8A4_1 * a1 + _D8A4_3 * a3),
            y2 + h * (_D8A4_1 * b1 + _D8A4_3 * b3),
            y3 + h * (_D8A4_1 * c1 + _D8A4_3 * c3),
            y4 + h * (_D8A4_1 * d1 + _D8A4_3 * d3)])
        stage = 5
        a5, b5, c5, d5 = magnetic_rhs(system, [
            y1 + h * (_D8A5_1 * a1 + _D8A5_3 * a3 + _D8A5_4 * a4),
            y2 + h * (_D8A5_1 * b1 + _D8A5_3 * b3 + _D8A5_4 * b4),
            y3 + h * (_D8A5_1 * c1 + _D8A5_3 * c3 + _D8A5_4 * c4),
            y4 + h * (_D8A5_1 * d1 + _D8A5_3 * d3 + _D8A5_4 * d4)])
        stage = 6
        a6, b6, c6, d6 = magnetic_rhs(system, [
            y1 + h * (_D8A6_1 * a1 + _D8A6_4 * a4 + _D8A6_5 * a5),
            y2 + h * (_D8A6_1 * b1 + _D8A6_4 * b4 + _D8A6_5 * b5),
            y3 + h * (_D8A6_1 * c1 + _D8A6_4 * c4 + _D8A6_5 * c5),
            y4 + h * (_D8A6_1 * d1 + _D8A6_4 * d4 + _D8A6_5 * d5)])
        stage = 7
        a7, b7, c7, d7 = magnetic_rhs(system, [
            y1 + h * (_D8A7_1 * a1 + _D8A7_4 * a4 + _D8A7_5 * a5 + _D8A7_6 * a6),
            y2 + h * (_D8A7_1 * b1 + _D8A7_4 * b4 + _D8A7_5 * b5 + _D8A7_6 * b6),
            y3 + h * (_D8A7_1 * c1 + _D8A7_4 * c4 + _D8A7_5 * c5 + _D8A7_6 * c6),
            y4 + h * (_D8A7_1 * d1 + _D8A7_4 * d4 + _D8A7_5 * d5 + _D8A7_6 * d6)])
        stage = 8
        a8, b8, c8, d8 = magnetic_rhs(system, [
            y1 + h * (_D8A8_1 * a1 + _D8A8_4 * a4 + _D8A8_5 * a5 + _D8A8_6 * a6 + _D8A8_7 * a7),
            y2 + h * (_D8A8_1 * b1 + _D8A8_4 * b4 + _D8A8_5 * b5 + _D8A8_6 * b6 + _D8A8_7 * b7),
            y3 + h * (_D8A8_1 * c1 + _D8A8_4 * c4 + _D8A8_5 * c5 + _D8A8_6 * c6 + _D8A8_7 * c7),
            y4 + h * (_D8A8_1 * d1 + _D8A8_4 * d4 + _D8A8_5 * d5 + _D8A8_6 * d6 + _D8A8_7 * d7)])
        stage = 9
        a9, b9, c9, d9 = magnetic_rhs(system, [
            y1 + h * (_D8A9_1 * a1 + _D8A9_4 * a4 + _D8A9_5 * a5 + _D8A9_6 * a6 + _D8A9_7 * a7
                      + _D8A9_8 * a8),
            y2 + h * (_D8A9_1 * b1 + _D8A9_4 * b4 + _D8A9_5 * b5 + _D8A9_6 * b6 + _D8A9_7 * b7
                      + _D8A9_8 * b8),
            y3 + h * (_D8A9_1 * c1 + _D8A9_4 * c4 + _D8A9_5 * c5 + _D8A9_6 * c6 + _D8A9_7 * c7
                      + _D8A9_8 * c8),
            y4 + h * (_D8A9_1 * d1 + _D8A9_4 * d4 + _D8A9_5 * d5 + _D8A9_6 * d6 + _D8A9_7 * d7
                      + _D8A9_8 * d8)])
        stage = 10
        a10, b10, c10, d10 = magnetic_rhs(system, [
            y1 + h * (_D8A10_1 * a1 + _D8A10_4 * a4 + _D8A10_5 * a5 + _D8A10_6 * a6 + _D8A10_7 * a7
                      + _D8A10_8 * a8 + _D8A10_9 * a9),
            y2 + h * (_D8A10_1 * b1 + _D8A10_4 * b4 + _D8A10_5 * b5 + _D8A10_6 * b6 + _D8A10_7 * b7
                      + _D8A10_8 * b8 + _D8A10_9 * b9),
            y3 + h * (_D8A10_1 * c1 + _D8A10_4 * c4 + _D8A10_5 * c5 + _D8A10_6 * c6 + _D8A10_7 * c7
                      + _D8A10_8 * c8 + _D8A10_9 * c9),
            y4 + h * (_D8A10_1 * d1 + _D8A10_4 * d4 + _D8A10_5 * d5 + _D8A10_6 * d6 + _D8A10_7 * d7
                      + _D8A10_8 * d8 + _D8A10_9 * d9)])
        stage = 11
        a11, b11, c11, d11 = magnetic_rhs(system, [
            y1 + h * (_D8A11_1 * a1 + _D8A11_4 * a4 + _D8A11_5 * a5 + _D8A11_6 * a6 + _D8A11_7 * a7
                      + _D8A11_8 * a8 + _D8A11_9 * a9 + _D8A11_10 * a10),
            y2 + h * (_D8A11_1 * b1 + _D8A11_4 * b4 + _D8A11_5 * b5 + _D8A11_6 * b6 + _D8A11_7 * b7
                      + _D8A11_8 * b8 + _D8A11_9 * b9 + _D8A11_10 * b10),
            y3 + h * (_D8A11_1 * c1 + _D8A11_4 * c4 + _D8A11_5 * c5 + _D8A11_6 * c6 + _D8A11_7 * c7
                      + _D8A11_8 * c8 + _D8A11_9 * c9 + _D8A11_10 * c10),
            y4 + h * (_D8A11_1 * d1 + _D8A11_4 * d4 + _D8A11_5 * d5 + _D8A11_6 * d6 + _D8A11_7 * d7
                      + _D8A11_8 * d8 + _D8A11_9 * d9 + _D8A11_10 * d10)])
        stage = 12
        a12, b12, c12, d12 = magnetic_rhs(system, [
            y1 + h * (_D8A12_1 * a1 + _D8A12_4 * a4 + _D8A12_5 * a5 + _D8A12_6 * a6 + _D8A12_7 * a7
                      + _D8A12_8 * a8 + _D8A12_9 * a9 + _D8A12_10 * a10 + _D8A12_11 * a11),
            y2 + h * (_D8A12_1 * b1 + _D8A12_4 * b4 + _D8A12_5 * b5 + _D8A12_6 * b6 + _D8A12_7 * b7
                      + _D8A12_8 * b8 + _D8A12_9 * b9 + _D8A12_10 * b10 + _D8A12_11 * b11),
            y3 + h * (_D8A12_1 * c1 + _D8A12_4 * c4 + _D8A12_5 * c5 + _D8A12_6 * c6 + _D8A12_7 * c7
                      + _D8A12_8 * c8 + _D8A12_9 * c9 + _D8A12_10 * c10 + _D8A12_11 * c11),
            y4 + h * (_D8A12_1 * d1 + _D8A12_4 * d4 + _D8A12_5 * d5 + _D8A12_6 * d6 + _D8A12_7 * d7
                      + _D8A12_8 * d8 + _D8A12_9 * d9 + _D8A12_10 * d10 + _D8A12_11 * d11)])
        z1 = y1 + h * (_D8B1 * a1 + _D8B6 * a6 + _D8B7 * a7 + _D8B8 * a8 + _D8B9 * a9
                       + _D8B10 * a10 + _D8B11 * a11 + _D8B12 * a12)
        z2 = y2 + h * (_D8B1 * b1 + _D8B6 * b6 + _D8B7 * b7 + _D8B8 * b8 + _D8B9 * b9
                       + _D8B10 * b10 + _D8B11 * b11 + _D8B12 * b12)
        z3 = y3 + h * (_D8B1 * c1 + _D8B6 * c6 + _D8B7 * c7 + _D8B8 * c8 + _D8B9 * c9
                       + _D8B10 * c10 + _D8B11 * c11 + _D8B12 * c12)
        z4 = y4 + h * (_D8B1 * d1 + _D8B6 * d6 + _D8B7 * d7 + _D8B8 * d8 + _D8B9 * d9
                       + _D8B10 * d10 + _D8B11 * d11 + _D8B12 * d12)
        stage = 13
        k13 = magnetic_rhs(system, [z1, z2, z3, z4])
    except (DomainError, SingularMetric):
        return stage - given, None, None, None
    w1 = abs_tol + rel_tol * max(abs(y1), abs(z1))
    u1 = (_D8E5_1 * a1 + _D8E5_6 * a6 + _D8E5_7 * a7 + _D8E5_8 * a8 + _D8E5_9 * a9
          + _D8E5_10 * a10 + _D8E5_11 * a11 + _D8E5_12 * a12) / w1
    v1 = (_D8E3_1 * a1 + _D8E3_6 * a6 + _D8E3_7 * a7 + _D8E3_8 * a8 + _D8E3_9 * a9
          + _D8E3_10 * a10 + _D8E3_11 * a11 + _D8E3_12 * a12) / w1
    w2 = abs_tol + rel_tol * max(abs(y2), abs(z2))
    u2 = (_D8E5_1 * b1 + _D8E5_6 * b6 + _D8E5_7 * b7 + _D8E5_8 * b8 + _D8E5_9 * b9
          + _D8E5_10 * b10 + _D8E5_11 * b11 + _D8E5_12 * b12) / w2
    v2 = (_D8E3_1 * b1 + _D8E3_6 * b6 + _D8E3_7 * b7 + _D8E3_8 * b8 + _D8E3_9 * b9
          + _D8E3_10 * b10 + _D8E3_11 * b11 + _D8E3_12 * b12) / w2
    w3 = abs_tol + rel_tol * max(abs(y3), abs(z3))
    u3 = (_D8E5_1 * c1 + _D8E5_6 * c6 + _D8E5_7 * c7 + _D8E5_8 * c8 + _D8E5_9 * c9
          + _D8E5_10 * c10 + _D8E5_11 * c11 + _D8E5_12 * c12) / w3
    v3 = (_D8E3_1 * c1 + _D8E3_6 * c6 + _D8E3_7 * c7 + _D8E3_8 * c8 + _D8E3_9 * c9
          + _D8E3_10 * c10 + _D8E3_11 * c11 + _D8E3_12 * c12) / w3
    w4 = abs_tol + rel_tol * max(abs(y4), abs(z4))
    u4 = (_D8E5_1 * d1 + _D8E5_6 * d6 + _D8E5_7 * d7 + _D8E5_8 * d8 + _D8E5_9 * d9
          + _D8E5_10 * d10 + _D8E5_11 * d11 + _D8E5_12 * d12) / w4
    v4 = (_D8E3_1 * d1 + _D8E3_6 * d6 + _D8E3_7 * d7 + _D8E3_8 * d8 + _D8E3_9 * d9
          + _D8E3_10 * d10 + _D8E3_11 * d11 + _D8E3_12 * d12) / w4
    s5 = u1 * u1 + u2 * u2 + u3 * u3 + u4 * u4
    s3 = v1 * v1 + v2 * v2 + v3 * v3 + v4 * v4
    denom = (s5 + 0.01 * s3) * 4
    if denom == 0.0:
        norm = 0.0
    elif denom == math.inf:
        norm = math.inf
    else:
        norm = abs(h) * s5 / math.sqrt(denom)
    return 13 - given, [z1, z2, z3, z4], norm, k13


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


# the trial step of each adaptive method and the exponent of its controller
_ADAPTIVE = {"embedded_rk45": (_dp_step, -0.2), "dop853": (_dop853_step, -0.125)}
# every integration method: the adaptive pairs, then the fixed-step scheme
METHODS = (*_ADAPTIVE, "fixed_rk4")


def _integrate_adaptive(system, y, rec, config):
    step, exponent = _ADAPTIVE[config.method]
    contains = system.domain.contains
    t = 0.0
    t_end = config.t_end
    abs_tol, rel_tol = config.abs_tol, config.rel_tol
    h_min = _MIN_STEP_FRACTION * t_end
    exit_tol = _EXIT_FRACTION * t_end
    h = min(1e-3 * t_end, t_end)
    f = None  # the rates at y: the last stage of the step that reached y
    while t < t_end * (1.0 - 1e-14):
        h = min(h, t_end - t)
        if h < h_min:
            raise StepFailure(f"step underflow at t = {t}: h = {h}")
        stages, y_new, err_norm, f_new = step(system, y, h, abs_tol, rel_tol, f)
        rec.rhs_evals += stages
        if y_new is None:
            # a stage left the chart or met a singular metric (the last
            # stage is evaluated at y_new, so this covers the end point
            # too): find where the tangent at y leaves the chart and step
            # to just inside that point, or end the run once it is close
            # enough
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
            factor = _GROWTH_LIMIT if err_norm == 0.0 else _SAFETY * err_norm ** exponent
        else:
            rec.rejected_error += 1
            factor = max(_SHRINK_LIMIT, _SAFETY * err_norm ** exponent)
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
