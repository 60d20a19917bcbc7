"""First integrals, the magnetic Poisson bracket, and independence tests.

The magnetic bracket of two phase-space functions F, G is

    {F, G} = dF(X_G) = sum_i (F_{q^i} G_{p_i} - F_{p_i} G_{q^i})
                       + Omega (F_{p_1} G_{p_2} - F_{p_2} G_{p_1}),

with X_G the magnetic Hamiltonian field of G, and X_H, H and dH from
:mod:`magflows.geometry`; F is a first integral when {F, H} vanishes,
either at every energy or only on one level set {H = C/2}.  Every
integral carries its exact analytic gradient, dF + 0.01 dx for the
``--corrupt`` control.  Every integral that is a ratio N/D of momentum
polynomials is built here by :func:`ratio_integral` from the coefficients
of N and D at a chart point and their chart partials: ex3's quadratic N
over D = S^2, and the linear N and D of the catalog's ex4-ex6 and of each
bundle.  Its value and its one quotient rule serve every degree.  It
keeps no memo: its chart data is read like any chart function, by
:func:`magflows.geometry.chart_columns`, once per call or scan, and that
one read serves the value and the gradient.

A ``kind == "rational"`` integral F = N/D with N and D linear is conserved
exactly when the line [N : D] is, so it is checked as that line: its scan
sample is the bracket of the angle theta = arctan F,
{theta, H} = {F, H} / (1 + F^2) = (D{N, H} - N{D, H}) / (N^2 + D^2), which
stays finite where D = 0 and needs no guard.  Every other integral is
scanned as |{F, H}|.

An integral's ``func`` and ``grad`` take a phase (x, y, p1, p2) whose x
and y may be chart columns of shape (P, 1) and whose momenta may be
arrays, (P, n) at chart columns, as
:func:`magflows.geometry.hamiltonian_gradient` does; one chart point is the
P = 1 case, and so does a call of the integral.  :func:`level_set_samples`
reads what is scalar at each grid point in one pass (Cholesky factor,
G^{-1}, dG, Omega and the ``chart`` data of every integral to scan) and
stacks each once, which all scans of a system on a level can share;
:func:`level_set_bracket_scan` then runs the gradient, X_H (by
:func:`magflows.geometry.hamiltonian_flow`), the bracket and, for a
rational integral, its value once on (P, n) arrays.  The bracket is one
written-out sum over the four gradient rows, so each sample gives the same
bits as the single-phase bracket oracle ``magnetic_bracket_pair`` in
``tests/oracles.py`` with :func:`hamiltonian_integral` at that phase, and a
rational sample those bits divided by 1 + F^2 at that phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, SingularMetric
from .geometry import (
    MagneticSystem,
    chart_columns,
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

    ``func`` and its exact gradient ``grad`` = (dF/dx, dF/dy, dF/dp1,
    dF/dp2) take a phase (x, y, p1, p2).  x and y are one chart point or
    chart columns of shape (P, 1); the momenta may be arrays, of shape
    (P, n) at chart columns, over which everything broadcasts elementwise
    with the bits of one call per sample.  ``func`` then returns the values
    in the momenta's shape and ``grad`` shape (4,) + that shape.  ``level``
    is None for an integral conserved at every energy and the energy
    constant C for one valid only on {H = C/2}.  A ``kind == "rational"``
    integral is checked as the line [N : D] of its value N/D: a bracket
    scan divides |{F, H}| by 1 + F^2.

    ``chart``, when given, returns the integral's data at one float chart
    point, and ``func`` and ``grad`` then take its read at the phase,
    ``chart_columns(chart, x, y)``, as an optional second argument,
    reading it themselves when it is not given.  A call reads it once; a
    bracket scan takes it from :func:`level_set_samples`.
    """

    name: str
    kind: str
    func: Callable
    grad: Callable
    level: Optional[float] = None
    chart: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown integral kind {self.kind!r}")

    def _chart_data(self, phase) -> tuple:
        """The optional ``chart`` argument at a phase."""
        return () if self.chart is None else (chart_columns(self.chart, phase[0], phase[1]),)

    def __call__(self, state):
        """F at one phase, read into a list of four floats, or at chart
        columns.  At one phase it stays on Python floats, and a value that
        divides by zero, N/D where D = 0, is NaN."""
        x, y, p1, p2 = state.tolist() if isinstance(state, np.ndarray) else state
        if isinstance(x, np.ndarray):
            return self.func(state, *self._chart_data(state))
        phase = [float(x), float(y), float(p1), float(p2)]
        try:
            return float(self.func(phase, *self._chart_data(phase)))
        except ZeroDivisionError:
            return float("nan")


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
    quotient-rule gradient.  No phase is refused: where D = 0 the value
    and gradient are infinite or NaN at chart columns, and a call at one
    phase is NaN.  A ``kind == "rational"`` one, N and D linear, is
    checked as the line [N : D], which stays finite there.

    ``parts(x, y)`` returns ``(n, d, partials)`` at a chart point: the
    coefficient tuples n of N and d of D, each of length 1, 3 or 6 for
    degree 0, 1 or 2 in the momenta as :func:`_poly` reads them, and
    ``partials()``, which gives their chart partials ((n_x, n_y), (d_x,
    d_y)) as tuples of the same lengths and is called only by the
    gradient.  Row k of the gradient is (N_k D - N D_k) / D^2, with the
    chart partials N_k = :func:`_poly` of n_k and the momentum partials
    from :func:`_poly_momentum_partials`.  ``parts`` is the integral's
    ``chart``, read by :func:`magflows.geometry.chart_columns`.
    """

    def read(state, data):
        return chart_columns(parts, state[0], state[1]) if data is None else data

    def func(state, data=None):
        _, _, p1, p2 = state
        n, d, _ = read(state, data)
        return _poly(n, p1, p2) / _poly(d, p1, p2)

    def grad(state, data=None):
        _, _, p1, p2 = state
        n, d, partials = read(state, data)
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

    return FirstIntegral(name, kind, func, grad=grad, level=level, chart=parts)


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
    there, stacked once at the end of the pass.  A point with a singular
    metric is skipped; none left is a DomainError."""
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
        raise DomainError("the metric is singular at every grid point")
    angles = np.linspace(0.0, 2.0 * np.pi, config.n_angles, endpoint=False)
    phase = (*stack_columns(kept), *level_momenta(stack_columns(factors), angles))
    return phase, angles, stack_columns(locals_), {
        chart: stack_columns(values) for chart, values in data.items()}


def _bracket_samples(integral, phase, local, chart_args) -> np.ndarray:
    """|{F, H}| at every sample of a phase at chart columns, ``local``
    being the stacked local geometry of its points, and |{F, H}| / (1 + F^2)
    for a rational integral.  The gradients die on return, before the scan
    builds its report from the samples."""
    grad = integral.grad(phase, *chart_args)
    values = np.abs(_pairing(grad, hamiltonian_flow(local, phase[2], phase[3])))
    if integral.kind == "rational":
        value = integral.func(phase, *chart_args)
        values /= 1.0 + value * value
    return values


def level_set_bracket_scan(
    system: MagneticSystem,
    integral: FirstIntegral,
    energy: Optional[float] = None,
    config: Optional[BracketScanConfig] = None,
    samples: Optional[tuple] = None,
) -> ResidualReport:
    """Scan |{F, H}| over a domain grid with momenta on {H = energy/2}, or,
    for a ``kind == "rational"`` integral F = N/D, the bracket of the angle
    of the line [N : D], |{F, H}| / (1 + F^2): it is finite where D = 0,
    where N/D has its poles, so no sample is skipped.

    Grid points outside the domain predicate and points where the metric is
    not positive definite are skipped (not failed).  ``samples`` from
    :func:`level_set_samples`, read with the integral's ``chart`` among
    their charts, fix the energy and grid; without them the scan reads its
    own.  The integral's gradient, the bracket and a rational integral's
    value are then computed once, on chart columns with (P, n) momenta.  A
    NaN sample sets ``max_abs`` to infinity, with ``worst`` at the first
    such sample, so that it fails any threshold.
    """
    if samples is None:
        samples = level_set_samples(system, (integral.chart,), energy, config)
    elif energy is not None or config is not None:
        raise ValueError("samples fix the energy and the grid; pass neither with them")
    (x, y, p1, p2), angles, local, data = samples
    chart_args = () if integral.chart is None else (data[integral.chart],)
    values = _bracket_samples(integral, (x, y, p1, p2), local, chart_args)
    # a NaN sample fails the scan like an infinite one; the first largest
    # sample is the worst, and rms sums the squares in sample order
    scores = np.where(np.isnan(values), np.inf, values)
    row, col = np.unravel_index(int(np.argmax(scores)), values.shape)
    max_abs, worst = float(scores[row, col]), None
    if max_abs > 0.0:
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
    state = np.asarray(phase, dtype=float)
    jac = np.vstack([fn.grad(state) for fn in fns])
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-8 * sv[0]))
