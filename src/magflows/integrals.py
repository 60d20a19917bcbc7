"""First integrals, the magnetic Poisson bracket, and independence tests.

The magnetic bracket of two phase-space functions F, G is

    {F, G} = dF(X_G) = sum_i (F_{q^i} G_{p_i} - F_{p_i} G_{q^i})
                       + Omega (F_{p_1} G_{p_2} - F_{p_2} G_{p_1}),

with X_G from :func:`magflows.geometry.vector_field`, and X_H, H and dH
from :mod:`magflows.geometry`; F is a first integral when {F, H} vanishes,
either at every energy or only on one level set {H = C/2}.  Every
integral carries its exact analytic gradient, dF + 0.01 dx for the
``--corrupt`` control.  Every integral that is a ratio N/D of momentum
polynomials is built here by :func:`ratio_integral` from the coefficients
of N and D at a chart point and their chart partials: ex3's quadratic N
over D = S^2, and the linear N and D of the catalog's ex4-ex6 and of each
bundle.  Its value, its one guard |D| >= 1e-8 and its one quotient rule
serve every degree.  It keeps no memo: one call reads its chart data once
per chart point and hands it to the guard and the value, and a scan reads
it once per grid point.

An integral's ``func``, ``grad`` and ``guard`` take a phase (x, y, p1, p2)
whose x and y may be chart columns of shape (P, 1) and whose momenta may
be arrays, (P, n) at chart columns, as
:func:`magflows.geometry.hamiltonian_gradient` does; one chart point is the
P = 1 case, and so does a call of the integral.  :func:`level_set_samples`
reads what is scalar at each grid point in one pass (Cholesky factor,
G^{-1}, dG, Omega and the ``chart`` data of every integral to scan), which
all scans of a system on a level can share; :func:`level_set_bracket_scan`
then runs the guard mask, the gradient, X_H (by
:func:`magflows.geometry.hamiltonian_flow`) and the bracket once on (P, n)
arrays.  The bracket is one written-out sum over the four gradient rows,
so each sample gives the same bits as the single-phase bracket oracle
``magnetic_bracket_pair`` in ``tests/oracles.py`` with
:func:`hamiltonian_integral` at that phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, GuardError, SingularMetric
from .geometry import (
    MagneticSystem,
    _stacked,
    hamiltonian,
    hamiltonian_flow,
    hamiltonian_gradient,
    level_factor,
    level_momenta,
    stack_columns,
)

__all__ = [
    "FirstIntegral",
    "BracketScanConfig",
    "ResidualReport",
    "hamiltonian_integral",
    "ratio_integral",
    "level_set_samples",
    "level_set_bracket_scan",
    "gradient_rows",
    "functional_independence_rank",
]

KINDS = ("linear", "quadratic", "rational", "transcendental")


@dataclass(frozen=True)
class FirstIntegral:
    """A scalar phase-space function with conservation metadata.

    ``func``, its exact gradient ``grad`` = (dF/dx, dF/dy, dF/dp1,
    dF/dp2) and the optional ``guard`` take a phase (x, y, p1, p2).  x and
    y are one chart point or chart columns of shape (P, 1); the momenta
    may be arrays, of shape (P, n) at chart columns, over which everything
    broadcasts elementwise with the bits of one call per sample.  ``func``
    then returns the values in the momenta's shape, ``grad`` shape (4,) +
    that shape, and ``guard`` a bool mask that broadcasts to it; the guard
    is False where evaluation must be refused (for instance near the zero
    set of a rational integral's denominator), and func and grad are only
    asked for phases it admits, or for NaN momenta in their place.
    ``level`` is None for an integral conserved at every energy and the
    energy constant C for one valid only on {H = C/2}.

    ``chart``, when given, returns the integral's data at one float chart
    point, and ``func``, ``grad`` and ``guard`` then take the list of it
    at the phase's P chart points as an optional second argument, reading
    it themselves when it is not given.  A call and :meth:`admits` read it
    once at each of their phase's chart points; a bracket scan takes it
    from :func:`level_set_samples`, which reads it in its pass over the
    grid points, next to the chart geometry.
    """

    name: str
    kind: str
    func: Callable
    grad: Callable
    level: Optional[float] = None
    guard: Optional[Callable] = None
    chart: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown integral kind {self.kind!r}")

    def _chart_data(self, phase) -> tuple:
        """The optional ``chart`` argument at a phase: the list of the data
        at its chart points, one for a phase of floats."""
        x, y = phase[0], phase[1]
        points = zip(x.ravel().tolist(), y.ravel().tolist()) if isinstance(x, np.ndarray) else [(x, y)]
        return () if self.chart is None else ([self.chart(u, v) for u, v in points],)

    def admits(self, state) -> bool:
        state = np.asarray(state, dtype=float)
        return self.guard is None or bool(self.guard(state, *self._chart_data(state)))

    def __call__(self, state):
        """F at one phase, read into a list of four floats, or at chart
        columns; the guard and ``func`` share the chart data, read once per
        point, and the first rejected phase raises GuardError before ``func`` runs."""
        x, y, p1, p2 = state.tolist() if isinstance(state, np.ndarray) else state
        if isinstance(x, np.ndarray):
            charts = self._chart_data(state)
            admitted = True if self.guard is None else self.guard(state, *charts)
            if not np.all(admitted):
                row, col = np.argwhere(~np.broadcast_to(admitted, np.shape(p1)))[0].tolist()
                first = [float(x[row, 0]), float(y[row, 0]), float(p1[row, col]), float(p2[row, col])]
                raise GuardError(f"{self.name}: guard rejected phase {first}")
            return self.func(state, *charts)
        phase = [float(x), float(y), float(p1), float(p2)]
        charts = self._chart_data(phase)
        if self.guard is not None and not self.guard(phase, *charts):
            raise GuardError(f"{self.name}: guard rejected phase {phase}")
        return float(self.func(phase, *charts))


@dataclass(frozen=True)
class BracketScanConfig:
    """Sampling resolution of a level-set bracket scan."""

    nx: int = 20
    ny: int = 20
    n_angles: int = 16
    grid_margin: float = 0.02

    def __post_init__(self):
        if min(self.nx, self.ny, self.n_angles) < 2:
            raise ValueError("scan resolutions must be >= 2")


@dataclass(frozen=True)
class ResidualReport:
    """Max/RMS summary of a residual sampled over a grid."""

    max_abs: float
    rms: float
    count: int
    worst: Optional[tuple] = None


def hamiltonian_integral(system: MagneticSystem) -> FirstIntegral:
    """The Hamiltonian packaged as a FirstIntegral with analytic gradient."""
    func = partial(hamiltonian, system, check_domain=False)
    return FirstIntegral("H", "quadratic", func, grad=partial(hamiltonian_gradient, system))


def _chart_reader(parts: Callable) -> Callable:
    """``coefficients(state, charts)`` of an integral built from ``parts``,
    whose data at a chart point ends in the deferred ``partials()``: the
    data at the phase's chart point, or at chart columns all but
    ``partials`` stacked into columns and a ``partials`` that stacks the P
    points' alike.  ``charts`` is the data at the P points when the caller
    read it already.  Given an ``entry`` index, it gives that entry alone,
    stacking only that at chart columns, as a guard needs."""

    def coefficients(state, charts, entry=None):
        x, y = state[0], state[1]
        if not isinstance(x, np.ndarray):
            data = parts(x, y) if charts is None else charts[0]
            return data if entry is None else data[entry]
        if charts is None:
            charts = [parts(u, v) for u, v in zip(x.ravel().tolist(), y.ravel().tolist())]
        if entry is not None:
            return _stacked([data[entry] for data in charts])
        values = stack_columns([data[:-1] for data in charts])
        return (*values, lambda: stack_columns([data[-1]() for data in charts]))

    return coefficients


def _poly(c, p1, p2):
    """The momentum polynomial of the coefficients c: c0 for c = (c0,),
    c1 p1 + c2 p2 + c0 for c = (c1, c2, c0), and a11 p1^2 + a12 p1 p2 +
    a22 p2^2 + b1 p1 + b2 p2 + c0 for c = (a11, a12, a22, b1, b2, c0)."""
    if len(c) == 3:
        return c[0] * p1 + c[1] * p2 + c[2]
    if len(c) == 6:
        a11, a12, a22, b1, b2, c0 = c
        return a11 * p1 * p1 + a12 * p1 * p2 + a22 * p2 * p2 + b1 * p1 + b2 * p2 + c0
    return c[0]


def _poly_momentum_partials(c, p1, p2) -> tuple:
    """(d/dp1, d/dp2) of :func:`_poly` of the coefficients c."""
    if len(c) == 6:
        return 2.0 * c[0] * p1 + c[1] * p2 + c[3], c[1] * p1 + 2.0 * c[2] * p2 + c[4]
    return (c[0], c[1]) if len(c) == 3 else (0.0, 0.0)


def ratio_integral(name: str, kind: str, parts: Callable,
                   level: Optional[float] = None) -> FirstIntegral:
    """The integral F = N/D of two polynomials in the momenta, with its
    quotient-rule gradient and the guard |D| >= 1e-8.

    ``parts(x, y)`` returns ``(n, d, partials)`` at a chart point: the
    coefficient tuples n of N and d of D, each of length 1, 3 or 6 for
    degree 0, 1 or 2 in the momenta as :func:`_poly` reads them, and
    ``partials()``, which gives their chart partials ((n_x, n_y), (d_x,
    d_y)) as tuples of the same lengths and is called only by the
    gradient.  Row k of the gradient is (N_k D - N D_k) / D^2, with the
    chart partials N_k = :func:`_poly` of n_k and the momentum partials
    from :func:`_poly_momentum_partials`.  ``parts`` is the integral's
    ``chart``, read at chart columns by :func:`_chart_reader`.
    """
    coefficients = _chart_reader(parts)

    def func(state, charts=None):
        _, _, p1, p2 = state
        n, d, _ = coefficients(state, charts)
        return _poly(n, p1, p2) / _poly(d, p1, p2)

    def grad(state, charts=None):
        _, _, p1, p2 = state
        n, d, partials = coefficients(state, charts)
        num, den = _poly(n, p1, p2), _poly(d, p1, p2)
        (n_x, n_y), (d_x, d_y) = partials()
        # (grad N D - N grad D) / D^2 formed in place, one row of grad D at
        # a time: at chart columns no second (4, P, n) array is made
        out = gradient_rows(p1, (_poly(n_x, p1, p2), _poly(n_y, p1, p2),
                                 *_poly_momentum_partials(n, p1, p2)))
        out *= den
        rows = (_poly(d_x, p1, p2), _poly(d_y, p1, p2), *_poly_momentum_partials(d, p1, p2))
        for k, den_k in enumerate(rows):
            out[k] -= num * den_k
        out /= den * den
        return out

    def guard(state, charts=None):
        _, _, p1, p2 = state
        return abs(_poly(coefficients(state, charts, 1), p1, p2)) >= 1e-8

    return FirstIntegral(name, kind, func, grad=grad, level=level, guard=guard, chart=parts)


def gradient_rows(momentum, rows) -> np.ndarray:
    """The four gradient rows as one array, filled row by row: shape (4,)
    for a scalar ``momentum`` and (4,) + its shape for an array of
    momenta, scalar rows and chart columns broadcasting along them."""
    out = np.empty((4,) + np.shape(momentum))
    out[0], out[1], out[2], out[3] = rows
    return out


def _pairing(grad, flow):
    """dF(X) = sum_i F_i X_i written out over the four rows, so n samples
    give the bits of n single ones."""
    return grad[0] * flow[0] + grad[1] * flow[1] + grad[2] * flow[2] + grad[3] * flow[3]


def _guarded(objs, phase) -> np.ndarray:
    """The phase as an array; GuardError where an integral's guard rejects it."""
    state = np.asarray(phase, dtype=float)
    for obj in objs:
        if not obj.admits(state):
            raise GuardError(f"{obj.name}: guard rejected phase {state.tolist()}")
    return state


def level_set_samples(
    system: MagneticSystem,
    charts: Sequence = (),
    energy: Optional[float] = None,
    config: Optional[BracketScanConfig] = None,
) -> tuple:
    """{H = energy/2} on the scan grid of ``config``, in one pass that reads
    each point's level factor, local geometry and then, while a bundle's
    jet memo holds the point, the data of each chart function in ``charts``
    (None entries aside).  Returns (phase, angles, local, data): (x, y, p1,
    p2) at the P points kept as chart columns with (P, n) momenta at the n
    angles, their stacked local geometry, and each chart function's data
    there.  A point with a singular metric is skipped; none left is a
    GuardError."""
    if config is None:
        config = BracketScanConfig()
    c = system.energy if energy is None else float(energy)
    points = system.domain.grid(config.nx, config.ny, margin=config.grid_margin)
    if len(points) == 0:
        raise DomainError("no grid point passed the domain predicate")
    data = {chart: [] for chart in charts if chart is not None}
    kept, factors, locals_ = [], [], []
    for x, y in points:
        try:
            # the grid holds only points of the domain
            factor = level_factor(system, x, y, c, check_domain=False)
            local = system.local_geometry(x, y)
        except SingularMetric:
            continue
        kept.append((x, y))
        factors.append(factor)
        locals_.append(local)
        for chart, values in data.items():
            values.append(chart(x, y))
    if not kept:
        raise GuardError("guard rejected every sampled phase")
    angles = np.linspace(0.0, 2.0 * np.pi, config.n_angles, endpoint=False)
    phase = (*stack_columns(kept), *level_momenta(stack_columns(factors), angles))
    return phase, angles, stack_columns(locals_), data


def _bracket_samples(integral, phase, local, chart_args) -> np.ndarray:
    """|{F, H}| at every sample of a phase at chart columns, ``local``
    being the stacked local geometry of its points.  The gradients die on
    return, before the scan builds its report from the samples."""
    grad = integral.grad(phase, *chart_args)
    return np.abs(_pairing(grad, hamiltonian_flow(local, phase[2], phase[3])))


def level_set_bracket_scan(
    system: MagneticSystem,
    integral: FirstIntegral,
    energy: Optional[float] = None,
    config: Optional[BracketScanConfig] = None,
    samples: Optional[tuple] = None,
) -> ResidualReport:
    """Scan |{F, H}| over a domain grid with momenta on {H = energy/2}.

    Grid points outside the domain predicate, points where the metric is
    not positive definite, and phases rejected by the integral's guard are
    skipped (not failed): rational integrals have genuine poles inside
    otherwise fine domains.  ``samples`` from :func:`level_set_samples`,
    read with the integral's ``chart`` among their charts, fix the energy
    and grid; without them the scan reads its own.  The guard mask, the
    integral's gradient and the bracket are then computed once, on chart
    columns with (P, n) momenta; the gradient sees NaN momenta in place of
    rejected ones, a whole row of them at a point whose every angle is
    rejected.  A NaN sample sets ``max_abs`` to infinity, with ``worst`` at
    the first such sample, so that it fails any threshold.
    """
    if samples is None:
        samples = level_set_samples(system, (integral.chart,), energy, config)
    elif energy is not None or config is not None:
        raise ValueError("samples fix the energy and the grid; pass neither with them")
    (x, y, p1, p2), angles, local, charts = samples
    chart_args = () if integral.chart is None else (charts[integral.chart],)
    admitted = np.ones(p1.shape, dtype=bool)
    if integral.guard is not None:
        admitted &= integral.guard((x, y, p1, p2), *chart_args)
        if not admitted.any():
            raise GuardError("guard rejected every sampled phase")
        p1, p2 = np.where(admitted, p1, np.nan), np.where(admitted, p2, np.nan)
    values = _bracket_samples(integral, (x, y, p1, p2), local, chart_args)[admitted]
    # a NaN sample fails the scan like an infinite one; the first largest
    # sample is the worst, and rms sums the squares in sample order
    scores = np.where(np.isnan(values), np.inf, values)
    k = int(np.argmax(scores))
    max_abs, worst = float(scores[k]), None
    if max_abs > 0.0:
        row, col = np.argwhere(admitted)[k].tolist()
        worst = (float(x[row, 0]), float(y[row, 0]), float(angles[col]))
    sumsq = float(np.cumsum(values * values)[-1])
    return ResidualReport(
        max_abs=max_abs, rms=float(np.sqrt(sumsq / values.size)), count=values.size, worst=worst
    )


def functional_independence_rank(fns: Sequence, phase) -> int:
    """Rank of the Jacobian of k integrals at a point.

    Builds the k-by-4 Jacobian (rows = exact gradients over (x, y, p1,
    p2)) and counts singular values above 1e-8 times the largest.
    """
    state = _guarded(fns, phase)
    jac = np.vstack([fn.grad(state) for fn in fns])
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-8 * sv[0]))
