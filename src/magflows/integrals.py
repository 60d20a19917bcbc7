"""First integrals, the magnetic Poisson bracket, and independence tests.

The magnetic bracket of two phase-space functions F, G is

    {F, G} = dF(X_G) = sum_i (F_{q^i} G_{p_i} - F_{p_i} G_{q^i})
                       + Omega (F_{p_1} G_{p_2} - F_{p_2} G_{p_1}),

with X_G from :func:`magflows.geometry.vector_field` and H, dH from
:mod:`magflows.geometry`; F is a first integral when {F, H} vanishes,
either at every energy or only on one level set {H = C/2}.  Every
integral carries its exact gradient: analytic for the catalog's rational
integrals, a complex step of the formula for ex3's quadratic one, dF +
0.01 dx for the ``--corrupt`` control.  Every integral rational in the
momenta, the catalog's ex4-ex6 and each bundle's, is built here by
:func:`rational_integral` from the momentum coefficients of its numerator
and denominator at a chart point and their chart partials; the momentum
algebra, the guard and the quotient rule live only there.

An integral's ``func``, ``grad`` and ``guard`` take a phase (x, y, p1, p2)
at one chart point whose momenta p1, p2 may be arrays, as
:func:`magflows.geometry.hamiltonian_gradient` does, so
:func:`level_set_bracket_scan` evaluates everything for all angles of a
grid point at once: the chart geometry (Cholesky factor, G^{-1}, dG and
Omega), the guard mask and the gradient, one call each.  The bracket is
one written-out sum over the four gradient rows, and a single phase is
its n = 1 case, so each sample gives the same bits as
:func:`magnetic_bracket_pair` with :func:`hamiltonian_integral` at that
phase.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, GuardError, SingularMetric
from .geometry import (
    MagneticSystem,
    hamiltonian,
    hamiltonian_gradient,
    momentum_on_level,
    vector_field,
)

__all__ = [
    "FirstIntegral",
    "BracketScanConfig",
    "ResidualReport",
    "hamiltonian_integral",
    "rational_integral",
    "magnetic_bracket_pair",
    "level_set_bracket_scan",
    "gradient_rows",
    "functional_independence_rank",
]

KINDS = ("linear", "quadratic", "rational", "transcendental")

# the bytes of a chart point: a memo key that tells -0.0 from 0.0
_PACK_POINT = struct.Struct("2d").pack


@dataclass(frozen=True)
class FirstIntegral:
    """A scalar phase-space function with conservation metadata.

    ``func``, its exact gradient ``grad`` = (dF/dx, dF/dy, dF/dp1,
    dF/dp2) and the optional ``guard`` take a phase (x, y, p1, p2)
    at one chart point; p1 and p2 may be arrays of n momenta, over which
    they broadcast elementwise with the same bits as n scalar calls.
    ``func`` then returns n values, ``grad`` shape (4, n) instead of (4,),
    and ``guard`` a bool mask instead of a bool; the guard is False where
    evaluation must be refused (for instance near the zero set of a
    rational integral's denominator), and func and grad are only asked for
    phases it admits.  ``level`` is None for an integral conserved at every
    energy and the energy constant C for one valid only on {H = C/2}.
    """

    name: str
    kind: str
    func: Callable
    grad: Callable
    level: Optional[float] = None
    guard: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown integral kind {self.kind!r}")

    def admits(self, state) -> bool:
        return self.guard is None or bool(self.guard(np.asarray(state, dtype=float)))

    def __call__(self, state) -> float:
        """F at one phase, read once into a list of four floats that the
        guard and ``func`` both take; GuardError where the guard rejects it."""
        x, y, p1, p2 = state.tolist() if isinstance(state, np.ndarray) else state
        phase = [float(x), float(y), float(p1), float(p2)]
        if self.guard is not None and not self.guard(phase):
            raise GuardError(f"{self.name}: guard rejected phase {phase}")
        return float(self.func(phase))


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


def _linear(c, p1, p2):
    """c1 p1 + c2 p2 + c0 for a coefficient triple c = (c1, c2, c0)."""
    return c[0] * p1 + c[1] * p2 + c[2]


def rational_integral(name: str, parts: Callable, level: Optional[float] = None) -> FirstIntegral:
    """The integral N/D of two expressions linear in the momenta, with its
    quotient-rule gradient and the guard |D| >= 1e-8.

    ``parts(x, y)`` returns ``(a, b, partials)`` at a chart point: the
    coefficient triples a = (a1, a2, a0) of N = a1 p1 + a2 p2 + a0 and
    b = (b1, b2, b0) of D = b1 p1 + b2 p2 + b0, and ``partials()``, which
    gives their chart partials ((a_x, a_y), (b_x, b_y)) as triples and is
    called only by the gradient.  Chart row k of the gradient is
    (N_k D - N D_k) / D^2 with N_k = a1_k p1 + a2_k p2 + a0_k, and momentum
    row i is (a_i D - N b_i) / D^2.  The ``parts`` of the last chart point
    is kept, so the guard, the value and the gradient at any momenta of one
    point share one evaluation.
    """
    last = [None, None]

    def parts_at(x, y):
        key = _PACK_POINT(x, y)
        if key != last[0]:
            last[:] = key, parts(x, y)
        return last[1]

    def func(state):
        x, y, p1, p2 = state
        a, b, _ = parts_at(x, y)
        return _linear(a, p1, p2) / _linear(b, p1, p2)

    def grad(state):
        x, y, p1, p2 = state
        a, b, partials = parts_at(x, y)
        num, den = _linear(a, p1, p2), _linear(b, p1, p2)
        (a_x, a_y), (b_x, b_y) = partials()
        num_grad = gradient_rows(p1, (_linear(a_x, p1, p2), _linear(a_y, p1, p2), a[0], a[1]))
        den_grad = gradient_rows(p1, (_linear(b_x, p1, p2), _linear(b_y, p1, p2), b[0], b[1]))
        return (num_grad * den - num * den_grad) / (den * den)

    def guard(state):
        x, y, p1, p2 = state
        return abs(_linear(parts_at(x, y)[1], p1, p2)) >= 1e-8

    return FirstIntegral(name, "rational", func, grad=grad, level=level, guard=guard)


def gradient_rows(momentum, rows) -> np.ndarray:
    """The four gradient rows as one array, filled row by row: shape (4,)
    for a scalar ``momentum`` and (4, n) for n momenta, scalar rows
    broadcasting along the momenta."""
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


def magnetic_bracket_pair(system: MagneticSystem, f_int, g_int, phase) -> float:
    """Magnetic bracket {F, G} = dF(X_G) of two integrals; {F, H} when
    ``g_int`` is :func:`hamiltonian_integral`."""
    system.require_inside(phase[0], phase[1])
    state = _guarded((f_int, g_int), phase)
    x_g = vector_field(system, state[0], state[1], g_int.grad(state))
    return float(_pairing(f_int.grad(state), x_g))


def level_set_bracket_scan(
    system: MagneticSystem,
    integral: FirstIntegral,
    energy: Optional[float] = None,
    config: Optional[BracketScanConfig] = None,
) -> ResidualReport:
    """Scan |{F, H}| over a domain grid with momenta on {H = energy/2}.

    Grid points outside the domain predicate, points where the metric is
    not positive definite, and phases rejected by the integral's guard are
    skipped (not failed): rational integrals have genuine poles inside
    otherwise fine domains.  Each grid point is evaluated once for all
    angles: the chart geometry (Cholesky factor, G^{-1}, dG, Omega), the
    guard mask and the integral's gradient at the admitted momenta.  A
    NaN sample sets ``max_abs`` to infinity, with ``worst`` at the first
    such sample, so that it fails any threshold.
    """
    if config is None:
        config = BracketScanConfig()
    c = system.energy if energy is None else float(energy)
    points = system.domain.grid(config.nx, config.ny, margin=config.grid_margin)
    if len(points) == 0:
        raise DomainError("no grid point passed the domain predicate")
    angles = np.linspace(0.0, 2.0 * np.pi, config.n_angles, endpoint=False)
    max_abs = 0.0
    sumsq = 0.0
    count = 0
    worst = None
    for x, y in points:
        try:
            p1, p2 = momentum_on_level(system, x, y, angles, energy=c)
            local = system.local_geometry(x, y)
        except SingularMetric:
            continue
        phase = (x, y, p1, p2)
        admitted = np.ones(angles.shape, dtype=bool)
        if integral.guard is not None:
            admitted &= integral.guard(phase)
            if not admitted.any():
                continue
            if not admitted.all():
                phase = (x, y, p1[admitted], p2[admitted])
        x_h = vector_field(system, x, y, hamiltonian_gradient(system, phase, local), local)
        values = np.abs(_pairing(integral.grad(phase), x_h))
        for phi, val in zip(angles[admitted].tolist(), values.tolist()):
            sumsq += val * val
            count += 1
            if val != val:  # a NaN sample fails the scan like an infinite one
                val = math.inf
            if val > max_abs:
                max_abs = val
                worst = (x, y, phi)
    if count == 0:
        raise GuardError("guard rejected every sampled phase")
    return ResidualReport(
        max_abs=max_abs, rms=float(np.sqrt(sumsq / count)), count=count, worst=worst
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
