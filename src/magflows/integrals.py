"""First integrals, the magnetic Poisson bracket, and independence tests.

The magnetic bracket of two phase-space functions F, G is

    {F, G} = dF(X_G) = sum_i (F_{q^i} G_{p_i} - F_{p_i} G_{q^i})
                       + Omega (F_{p_1} G_{p_2} - F_{p_2} G_{p_1}),

with X_G from :func:`magflows.geometry.vector_field` and H, dH from
:mod:`magflows.geometry`; F is a first integral when {F, H} vanishes,
either at every energy or only on one level set {H = C/2}.  Partial
derivatives of F come from analytic gradients when an integral carries
them; otherwise central differences with one Richardson extrapolation step
(combining h and h/2, fourth-order accurate) keep the residual of a true
integral well below the 1e-6 pass threshold even for bulky quartic
expressions.
"""

from __future__ import annotations

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
    "magnetic_bracket_fd",
    "magnetic_bracket_pair",
    "level_set_bracket_scan",
    "functional_independence_rank",
]

KINDS = ("linear", "quadratic", "rational", "transcendental")


@dataclass(frozen=True)
class FirstIntegral:
    """A scalar phase-space function with conservation metadata.

    ``func`` maps a length-4 phase vector to a float.  ``grad`` is an
    optional analytic gradient (dF/dx, dF/dy, dF/dp1, dF/dp2).  ``level``
    is None for an integral conserved at every energy and the energy
    constant C for one valid only on {H = C/2}.  ``guard`` returns False
    where evaluation must be refused (for instance near the zero set of a
    rational integral's denominator).
    """

    name: str
    kind: str
    func: Callable[[np.ndarray], float]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    level: Optional[float] = None
    guard: Optional[Callable[[np.ndarray], bool]] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown integral kind {self.kind!r}")

    @property
    def all_levels(self) -> bool:
        return self.level is None

    def admits(self, state) -> bool:
        return self.guard is None or bool(self.guard(np.asarray(state, dtype=float)))

    def __call__(self, state) -> float:
        return float(self.func(_guarded((self,), state)))


@dataclass(frozen=True)
class BracketScanConfig:
    """Sampling resolution of a level-set bracket scan."""

    nx: int = 20
    ny: int = 20
    n_angles: int = 16
    h: float = 1e-5
    grid_margin: float = 0.02

    def __post_init__(self):
        if min(self.nx, self.ny, self.n_angles) < 2:
            raise ValueError("scan resolutions must be >= 2")
        if not self.h > 0.0:
            raise ValueError("FD step must be positive")


@dataclass(frozen=True)
class ResidualReport:
    """Max/RMS summary of a residual sampled over a grid."""

    max_abs: float
    rms: float
    count: int
    worst: Optional[tuple] = None

    def __str__(self):
        return (
            f"max |res| = {self.max_abs:.3e}, rms = {self.rms:.3e} "
            f"over {self.count} samples"
        )


def hamiltonian_integral(system: MagneticSystem) -> FirstIntegral:
    """The Hamiltonian packaged as a FirstIntegral with analytic gradient."""
    func = partial(hamiltonian, system, check_domain=False)
    return FirstIntegral("H", "quadratic", func, grad=partial(hamiltonian_gradient, system))


def _fd_gradient(fn: Callable, state: np.ndarray, h: float) -> np.ndarray:
    """Gradient of fn over (x, y, p1, p2): central differences at steps
    h_i and h_i / 2, h_i = h max(1, |state_i|), combined by one Richardson
    step."""
    out = np.empty(4)
    for i in range(4):
        e = np.zeros(4)
        e[i] = h * max(1.0, abs(state[i]))
        d1 = (fn(state + e) - fn(state - e)) / (2.0 * e[i])
        d2 = (fn(state + 0.5 * e) - fn(state - 0.5 * e)) / e[i]
        out[i] = (4.0 * d2 - d1) / 3.0
    return out


def _gradient_of(obj, state, h):
    grad = getattr(obj, "grad", None)
    if grad is not None:
        return np.asarray(grad(state), dtype=float)
    fn = obj.func if isinstance(obj, FirstIntegral) else obj
    return _fd_gradient(fn, state, h)


def _bracket(system: MagneticSystem, state, f_grad, g_grad) -> float:
    """{F, G} = dF(X_G) from the two phase gradients."""
    return float(np.dot(f_grad, vector_field(system, state[0], state[1], g_grad)))


def _guarded(objs, phase) -> np.ndarray:
    """The phase as an array; GuardError where an integral's guard rejects it."""
    state = np.asarray(phase, dtype=float)
    for obj in objs:
        if isinstance(obj, FirstIntegral) and not obj.admits(state):
            raise GuardError(f"{obj.name}: guard rejected phase {state.tolist()}")
    return state


def magnetic_bracket_pair(
    system: MagneticSystem, f_int, g_int, phase, h: float = 1e-5
) -> float:
    """Magnetic bracket {F, G} = dF(X_G) of two integrals (or plain callables)."""
    system.require_inside(phase[0], phase[1])
    state = _guarded((f_int, g_int), phase)
    return _bracket(system, state, _gradient_of(f_int, state, h), _gradient_of(g_int, state, h))


def magnetic_bracket_fd(
    system: MagneticSystem, integral, phase, h: float = 1e-5
) -> float:
    """Magnetic bracket {F, H} = dF(X_H) of an integral with the Hamiltonian."""
    system.require_inside(phase[0], phase[1])
    state = _guarded((integral,), phase)
    return _bracket(
        system, state, _gradient_of(integral, state, h), hamiltonian_gradient(system, state)
    )


def level_set_bracket_scan(
    system: MagneticSystem,
    integral: FirstIntegral,
    energy: Optional[float] = None,
    config: Optional[BracketScanConfig] = None,
) -> ResidualReport:
    """Scan |{F, H}| over a domain grid with momenta on {H = energy/2}.

    Grid points outside the domain predicate, and phases rejected by the
    integral's guard, are skipped (not failed): rational integrals have
    genuine poles inside otherwise fine domains.  The guard is evaluated
    once per sample.
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
            p_samples = [momentum_on_level(system, x, y, phi, energy=c) for phi in angles]
        except SingularMetric:
            continue
        for phi, (p1, p2) in zip(angles, p_samples):
            state = np.array([x, y, p1, p2])
            if not integral.admits(state):
                continue
            val = abs(_bracket(system, state, _gradient_of(integral, state, config.h),
                               hamiltonian_gradient(system, state)))
            sumsq += val * val
            count += 1
            if val > max_abs:
                max_abs = val
                worst = (float(x), float(y), float(phi))
    if count == 0:
        raise GuardError("guard rejected every sampled phase")
    return ResidualReport(
        max_abs=max_abs, rms=float(np.sqrt(sumsq / count)), count=count, worst=worst
    )


def functional_independence_rank(
    fns: Sequence, phase, h: float = 1e-5
) -> int:
    """Rank of the Jacobian of k phase functions at a point.

    Builds the k-by-4 Jacobian (rows = gradients over (x, y, p1, p2),
    analytic when available) and counts singular values above 1e-8 times
    the largest.
    """
    state = _guarded(fns, phase)
    jac = np.vstack([_gradient_of(fn, state, h) for fn in fns])
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-8 * sv[0]))
