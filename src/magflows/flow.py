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
Dormand-Prince 4(5) pair (``embedded_rk45``, :class:`TrajectoryConfig`'s
default; step exponent -1/5) and Hairer's eighth-order DOP853
(``dop853``, which every orbit of the command line runs by default;
exponent -1/8).  Each pair is written once, as its Butcher tableau
(:class:`_Pair`), and :func:`_embedded_step` compiles its trial step
from it at import.  Every
stepper steps on four named Python floats per stage with every stage sum
written out left to right, so the bits of a trajectory depend only on
IEEE double arithmetic and not on the BLAS kernel numpy picks at run
time.  Every call of :func:`magnetic_rhs`, looked up as this module's
global, is a stage of a step, and each step returns the number of stages
it evaluated, up to one that raised, with the rates at its start and end.
DOP853 takes stage 1 from the rates at the step's start once a step has
given them (the last stage of the step before, "first same as last"), so
only its first trial step makes 13 calls and every other 12; the
Dormand-Prince step evaluates all 7 of its stages on every trial.

Trajectories that leave the chart domain stop early and carry a
``domain_exit`` flag rather than raising.  The fixed-step scheme stops
at its last whole step inside the chart.  The adaptive ones locate the
chart edge in one shared loop: when a stage of a trial step falls
outside the chart, the tangent line (q1, q2) + s (dq1/dt, dq2/dt) at the
last accepted state is bisected on the chart predicate, which needs no
further right-hand-side call (the failed step hands back the rates at
that state; where stage 1 itself raised, the run ends there).  The next
trial step goes to 0.99 of the predicted crossing, and the run ends once
the predicted crossing is within 1e-11 * t_end.  The last recorded state
therefore lies inside the chart, and its time is ``exit_time``.  When
the tangent stays inside the chart over the failed step (a singular
metric inside the chart, or a path bending out), the step is halved
instead, and a step below 1e-12 * t_end ends the run as a flagged exit.
A :class:`Trajectory` counts its right-hand-side calls and rejected
steps by cause.  :func:`conservation_drift` reads a scalar on all its
states at once.
"""

from __future__ import annotations

import linecache
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
    by default 1e-11 and 1e-12, and refuse a ``step``).  The default
    method is ``"embedded_rk45"``; the command line's ``simulate`` and
    ``verify`` integrate with ``"dop853"`` instead, which takes several
    times fewer right-hand-side calls at these tolerances.  ``record_every``
    keeps every n-th accepted state; the initial and final states are
    always recorded.  Times and tolerances must be finite, and the minimum
    step 1e-12 ``t_end`` must not round to 0.
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
        # at a minimum step of 0 the adaptive loop accepts zero-length steps for ever
        if not _MIN_STEP_FRACTION * self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, with a nonzero minimum step "
                             f"{_MIN_STEP_FRACTION:g} * t_end, got {self.t_end}")
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
    included; every call is a stage of a step.  A trial step of
    ``embedded_rk45`` makes 7 calls and one of ``fixed_rk4`` 4, or k when
    stage k raised.  The first trial step of ``dop853`` makes 13, and each
    other one 12, or k - 1, as its stage 1 is the rates at its start: the
    last stage of the step before, or stage 1 of the first trial step,
    kept across its rejections.  Where stage 1 raises at the initial
    state, the run ends there after that one call.  Rejected trial steps
    are counted by cause: the error estimate was above the tolerance
    (``rejected_error``), a stage or the end point was outside the chart
    (``rejected_boundary``), or the end state was not finite
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


@dataclass(frozen=True)
class _Pair:
    """An embedded Runge-Kutta pair's Butcher tableau, nonzero entries only:
    the rows {j: a_ij} of stages i = 2..s, the weights b_j of the solution
    z, at which stage s + 1 is evaluated, and one map of weights over
    stages 1..s + 1 per error estimate.  With ``first_given``, stage 1 is
    the rates ``f`` at the step's start whenever they are passed, and is
    evaluated only when f is None."""

    rows: dict
    weights: dict
    errors: tuple
    first_given: bool


# Dormand-Prince 4(5) (Hairer, Norsett & Wanner, Solving ODEs I, Table
# II.5.2) as exact fractions: the fifth-order weights are also the stage-7
# row, and the error weights are b5 - b4.  Stage 1 is evaluated on every
# trial step.
_DP5 = _Pair(
    rows={2: {1: 1 / 5},
          3: {1: 3 / 40, 2: 9 / 40},
          4: {1: 44 / 45, 2: -56 / 15, 3: 32 / 9},
          5: {1: 19372 / 6561, 2: -25360 / 2187, 3: 64448 / 6561, 4: -212 / 729},
          6: {1: 9017 / 3168, 2: -355 / 33, 3: 46732 / 5247, 4: 49 / 176, 5: -5103 / 18656}},
    weights={1: 35 / 384, 3: 500 / 1113, 4: 125 / 192, 5: -2187 / 6784, 6: 11 / 84},
    errors=({1: 71 / 57600, 3: -71 / 16695, 4: 71 / 1920, 5: -17253 / 339200, 6: 22 / 525,
             7: -1 / 40},),
    first_given=False,
)

# DOP853, Hairer's eighth-order pair (Hairer, Norsett & Wanner, Solving
# ODEs I, ch. II), with the coefficients of scipy.integrate's DOP853, which
# transcribes Hairer's Fortran code: the stage rows, the eighth-order
# weights, then the fifth- and third-order error weights.  Stages 2-5 have
# no weight, and the third-order weights of stages 6, 7, 8, 10 and 11 are
# the eighth-order ones.
_DOP853 = _Pair(
    rows={2: {1: 0.05260015195876773},
          3: {1: 0.0197250569845379, 2: 0.0591751709536137},
          4: {1: 0.02958758547680685, 3: 0.08876275643042054},
          5: {1: 0.2413651341592667, 3: -0.8845494793282861, 4: 0.924834003261792},
          6: {1: 0.037037037037037035, 4: 0.17082860872947386, 5: 0.12546768756682242},
          7: {1: 0.037109375, 4: 0.17025221101954405, 5: 0.06021653898045596,
              6: -0.017578125},
          8: {1: 0.03709200011850479, 4: 0.17038392571223998, 5: 0.10726203044637328,
              6: -0.015319437748624402, 7: 0.008273789163814023},
          9: {1: 0.6241109587160757, 4: -3.3608926294469414, 5: -0.868219346841726,
              6: 27.59209969944671, 7: 20.154067550477894, 8: -43.48988418106996},
          10: {1: 0.47766253643826434, 4: -2.4881146199716677, 5: -0.590290826836843,
               6: 21.230051448181193, 7: 15.279233632882423, 8: -33.28821096898486,
               9: -0.020331201708508627},
          11: {1: -0.9371424300859873, 4: 5.186372428844064, 5: 1.0914373489967295,
               6: -8.149787010746927, 7: -18.52006565999696, 8: 22.739487099350505,
               9: 2.4936055526796523, 10: -3.0467644718982196},
          12: {1: 2.273310147516538, 4: -10.53449546673725, 5: -2.0008720582248625,
               6: -17.9589318631188, 7: 27.94888452941996, 8: -2.8589982771350235,
               9: -8.87285693353063, 10: 12.360567175794303, 11: 0.6433927460157636}},
    weights={1: 0.054293734116568765, 6: 4.450312892752409, 7: 1.8915178993145003,
             8: -5.801203960010585, 9: 0.3111643669578199, 10: -0.1521609496625161,
             11: 0.20136540080403034, 12: 0.04471061572777259},
    errors=({1: 0.01312004499419488, 6: -1.2251564463762044, 7: -0.4957589496572502,
             8: 1.6643771824549864, 9: -0.35032884874997366, 10: 0.3341791187130175,
             11: 0.08192320648511571, 12: -0.022355307863886294},
            {1: -0.18980075407240762, 6: 4.450312892752409, 7: 1.8915178993145003,
             8: -5.801203960010585, 9: -0.4226823213237919, 10: -0.1521609496625161,
             11: 0.20136540080403034, 12: 0.02265179219836082}),
    first_given=True,
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


def _dp_norm(h, w1, w2, w3, w4, e1, e2, e3, e4):
    """Dormand-Prince's error norm: the RMS of h e / w for the error sums e
    over the scales w, summed left to right as numpy's mean of four values;
    ``q * q`` overflows to inf where ``q ** 2`` would raise."""
    q1, q2, q3, q4 = h * e1 / w1, h * e2 / w2, h * e3 / w3, h * e4 / w4
    return math.sqrt((q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4) / 4)


def _dop853_norm(h, w1, w2, w3, w4, u1, u2, u3, u4, v1, v2, v3, v4):
    """Hairer's combined error norm |h| s5 / sqrt((s5 + 0.01 s3) * 4), where
    s5 and s3 are the sums of the squares of the fifth- and third-order
    error sums u and v over the scales w, each written out left to right;
    0 when both sums are 0 and inf when the denominator overflows, where
    inf / inf would give NaN."""
    u1, u2, u3, u4 = u1 / w1, u2 / w2, u3 / w3, u4 / w4
    v1, v2, v3, v4 = v1 / w1, v2 / w2, v3 / w3, v4 / w4
    s5 = u1 * u1 + u2 * u2 + u3 * u3 + u4 * u4
    s3 = v1 * v1 + v2 * v2 + v3 * v3 + v4 * v4
    denom = (s5 + 0.01 * s3) * 4
    if denom == 0.0:
        return 0.0
    if denom == math.inf:
        return math.inf
    return abs(h) * s5 / math.sqrt(denom)


def _embedded_step(name, pair, norm, doc):
    """The trial step of ``pair``, compiled once from source written out as
    an unrolled step: stage i's rates are the floats ki_1 .. ki_4, each
    stage sum y_c + h * (a_i1 k1_c + ...) runs left to right over the
    nonzero entries with the coefficients as literals, and ``stage`` is set
    before each call of magnetic_rhs, for the count a raising step returns.
    The function named ``norm`` takes h, the scales abs_tol + rel_tol *
    max(|y|, |z|) and the error sums.  ``k1``, stage 1's rates, is the
    ``f`` given until stage 1 is evaluated, so a step hands back the rates
    at y whenever it has them.  The step runs in this module's globals, so
    each stage looks up magnetic_rhs here, and its source is in linecache
    for tracebacks and ``inspect``."""
    last, given = len(pair.rows) + 2, " - given" if pair.first_given else ""

    def total(weights, c):
        return " + ".join(f"{w!r} * k{j}_{c}" for j, w in sorted(weights.items()))

    def stage(i, rates):
        return [f"        stage = {i}", f"        k{i}_1, k{i}_2, k{i}_3, k{i}_4 = {rates}"]

    lines = [f"def {name}(system, y, h, abs_tol, rel_tol, f):", "    y1, y2, y3, y4 = y",
             "    k1 = f", *(["    given = f is not None"] if pair.first_given else []), "    try:",
             *stage(1, f"k1 = {'f if given else ' if pair.first_given else ''}magnetic_rhs(system, y)")]
    for i, row in pair.rows.items():
        lines += stage(i, "magnetic_rhs(system, [")
        lines += [f"            y{c} + h * ({total(row, c)})," for c in range(1, 5)] + ["        ])"]
    lines += [f"        z{c} = y{c} + h * ({total(pair.weights, c)})" for c in range(1, 5)]
    lines += [f"        stage = {last}", f"        k{last} = magnetic_rhs(system, [z1, z2, z3, z4])",
              "    except (DomainError, SingularMetric):", f"        return stage{given}, None, None, k1, None"]
    if any(last in errors for errors in pair.errors):
        lines += [f"    k{last}_1, k{last}_2, k{last}_3, k{last}_4 = k{last}"]
    lines += [f"    w{c} = abs_tol + rel_tol * max(abs(y{c}), abs(z{c}))" for c in range(1, 5)]
    lines += [f"    return {last}{given}, [z1, z2, z3, z4], {norm}(h, w1, w2, w3, w4,"]
    lines += [f"        {total(errors, c)}," for errors in pair.errors for c in range(1, 5)]
    source = "\n".join(lines + [f"    ), k1, k{last}", ""])
    filename = f"<{__name__}.{name}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    namespace[name].__doc__ = doc
    return namespace[name]


_dp_step = _embedded_step("_dp_step", _DP5, "_dp_norm", """\
One Dormand-Prince trial step: (7, y5, error norm, rates at y, rates at
y5), or (k, None, None, rates at y, None) when stage k raised DomainError
or SingularMetric.  Stage 1 is evaluated on every trial step; where it
raised, the rates at y handed back are ``f``, the rates at y or None.""")

_dop853_step = _embedded_step("_dop853_step", _DOP853, "_dop853_norm", """\
One DOP853 trial step: (stages evaluated, y8, error norm, rates at y,
rates at y8), or (k, None, None, rates at y, None) when the k-th
evaluation raised DomainError or SingularMetric.  Stage 1 is ``f``, the
rates at y, evaluated only when f is None, so a step makes 12 evaluations
(13 without f) and hands back the rates at y unless stage 1 raised, where
they are None; stage 13 is evaluated at y8, so a step whose end point
leaves the chart raises there.""")


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
    f = None  # the rates at y: the last stage of the step that reached y, or stage 1 at y
    while t < t_end * (1.0 - 1e-14):
        h = min(h, t_end - t)
        if h < h_min:
            raise StepFailure(f"step underflow at t = {t}: h = {h}")
        stages, y_new, err_norm, f, f_new = step(system, y, h, abs_tol, rel_tol, f)
        rec.rhs_evals += stages
        if y_new is None:
            # a stage left the chart or met a singular metric (the last
            # stage is evaluated at y_new, so this covers the end point
            # too): find where the tangent at y leaves the chart and step
            # to just inside that point, or end the run once it is close
            # enough; where stage 1 raised at y itself, the run ends there
            rec.rejected_boundary += 1
            if f is None:
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
            factor = _SAFETY * err_norm ** exponent
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
