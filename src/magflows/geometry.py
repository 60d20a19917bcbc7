"""Charts, metrics, magnetic fields and energy-level momentum sampling.

Conventions used throughout the package:

* a chart point is a pair of floats ``(x, y)``;
* a phase point is a length-4 vector ``(x, y, p1, p2)`` with the momenta
  living in the cotangent fibre;
* the Hamiltonian is ``H = (1/2) g^{ij} p_i p_j``; :func:`hamiltonian` and
  :func:`hamiltonian_gradient` are the only places that contract G^{-1};
* the magnetic field is the coefficient ``Omega(x, y)`` of ``dx ^ dy``; it
  enters only through :func:`vector_field`, the field X_G of a phase
  function G, so the flow is X_H and the bracket is {F, G} = dF(X_G);
* both read G^{-1}, dG and Omega of a chart point from one
  :meth:`MagneticSystem.local_geometry` call, built from the metric and
  the field unless the chart supplies all three from one evaluation.

Metric components are supplied as analytic functions.  Spatial derivatives
of the components default to central finite differences with step
``1e-5 * max(1, |coordinate|)`` and can be overridden with analytic
partials, which every catalog system does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, SingularMetric

__all__ = [
    "ChartDomain",
    "Metric",
    "MagneticSystem",
    "conformal_metric",
    "hamiltonian",
    "hamiltonian_gradient",
    "vector_field",
    "momentum_on_level",
    "gaussian_curvature",
    "FD_PARTIAL_STEP",
]

FD_PARTIAL_STEP = 1e-5

# component triples are ordered (g11, g12, g22)
Components = Callable[[float, float], tuple[float, float, float]]
# partials return ((g11_x, g12_x, g22_x), (g11_y, g12_y, g22_y))
Partials = Callable[
    [float, float],
    tuple[tuple[float, float, float], tuple[float, float, float]],
]


def _inverse(g, x: float, y: float) -> tuple[float, float, float]:
    """Entries (i11, i12, i22) of G^{-1} from the components g = (g11, g12,
    g22); SingularMetric where G is not positive definite (NaN fails too)."""
    g11, g12, g22 = g
    det = g11 * g22 - g12 * g12
    if not (det > 0.0 and g11 > 0.0):
        raise SingularMetric(f"metric not positive definite at ({x}, {y}): det = {det}")
    return g22 / det, -g12 / det, g11 / det


@dataclass(frozen=True)
class ChartDomain:
    """Working domain of a chart.

    ``predicate`` is the strict membership test; operations refuse to
    evaluate outside it.  ``bbox = (xmin, xmax, ymin, ymax)`` is the
    sampling window used by grid scans (for unbounded domains it is just
    a reasonable window, not a restriction).
    """

    bbox: tuple[float, float, float, float]
    predicate: Optional[Callable[[float, float], bool]] = None

    def contains(self, x: float, y: float) -> bool:
        if not (math.isfinite(x) and math.isfinite(y)):
            return False
        if self.predicate is None:
            return True
        return bool(self.predicate(x, y))

    def grid(self, nx: int, ny: int, margin: float = 0.0):
        """Accepted points of an nx-by-ny bbox grid, as an (m, 2) array."""
        x0, x1, y0, y1 = self.bbox
        dx, dy = margin * (x1 - x0), margin * (y1 - y0)
        xs = np.linspace(x0 + dx, x1 - dx, nx)
        ys = np.linspace(y0 + dy, y1 - dy, ny)
        pts = [(x, y) for x in xs for y in ys if self.contains(x, y)]
        return np.asarray(pts, dtype=float).reshape(-1, 2)


@dataclass(frozen=True)
class Metric:
    """Symmetric 2x2 metric tensor field on a chart.

    ``components(x, y)`` returns ``(g11, g12, g22)``.  ``partials`` is
    optional; when absent, :meth:`component_partials` falls back to
    central finite differences of ``components``.
    """

    components: Components
    partials: Optional[Partials] = None

    def inverse(self, x: float, y: float) -> tuple[float, float, float]:
        """Entries (i11, i12, i22) of G^{-1} as floats; raises
        SingularMetric where G is not positive definite."""
        return _inverse(self.components(x, y), x, y)

    def cholesky(self, x: float, y: float) -> np.ndarray:
        """Lower-triangular L with positive diagonal and G = L L^T, in
        closed form: l11 = sqrt(g11), l21 = g12 (1 / l11), l22 = sqrt(g22 -
        l21^2), which gives LAPACK's factor bit for bit.  Raises
        SingularMetric on the test of :meth:`inverse`, or where g22 - l21^2
        is not positive after round-off."""
        g11, g12, g22 = g = self.components(x, y)
        _inverse(g, x, y)
        l11 = math.sqrt(g11)
        l21 = g12 * (1.0 / l11)
        schur = g22 - l21 * l21
        if not schur > 0.0:
            raise SingularMetric(f"Cholesky factorization failed at ({x}, {y}): "
                                 f"g22 - l21^2 = {schur}")
        return np.array([[l11, 0.0], [l21, math.sqrt(schur)]])

    def component_partials(self, x: float, y: float, h: Optional[float] = None):
        """Spatial partials of (g11, g12, g22): analytic if available,
        otherwise central FD with per-coordinate step scaling."""
        if self.partials is not None:
            return self.partials(x, y)
        if h is None:
            h = FD_PARTIAL_STEP
        hx = h * max(1.0, abs(x))
        hy = h * max(1.0, abs(y))
        cxp = np.asarray(self.components(x + hx, y))
        cxm = np.asarray(self.components(x - hx, y))
        cyp = np.asarray(self.components(x, y + hy))
        cym = np.asarray(self.components(x, y - hy))
        dx = (cxp - cxm) / (2.0 * hx)
        dy = (cyp - cym) / (2.0 * hy)
        return (tuple(dx), tuple(dy))


def conformal_metric(factor, factor_partials=None) -> Metric:
    """Metric Lambda(x, y) * (dx^2 + dy^2) from a scalar conformal factor.

    ``factor_partials(x, y) -> (Lambda_x, Lambda_y)`` is optional and,
    when given, is lifted to analytic component partials.
    """

    def components(x, y):
        lam = factor(x, y)
        return (lam, 0.0, lam)

    partials = None
    if factor_partials is not None:

        def partials(x, y):
            lx, ly = factor_partials(x, y)
            return ((lx, 0.0, lx), (ly, 0.0, ly))

    return Metric(components=components, partials=partials)


@dataclass(frozen=True)
class MagneticSystem:
    """A metric, a magnetic field coefficient and a working domain.

    ``energy`` is the constant C > 0; integrals attached to the system
    are guaranteed (at least) on the level set {H = C/2}.  ``local``, when
    given, returns (G, dG, Omega) of a chart point from one evaluation and
    must agree with ``metric`` and ``field``.
    """

    metric: Metric
    field: Callable[[float, float], float]
    domain: ChartDomain
    energy: float = 1.0
    name: str = ""
    coords: tuple[str, str] = ("q1", "q2")
    local: Optional[Callable[[float, float], tuple]] = None

    def __post_init__(self):
        if not self.energy > 0.0:
            raise DomainError(f"energy constant must be positive, got {self.energy}")

    def require_inside(self, x: float, y: float) -> None:
        if not self.domain.contains(x, y):
            raise DomainError(f"point ({x}, {y}) outside the working domain")

    def local_geometry(self, x: float, y: float) -> tuple:
        """(G^{-1}, dG, Omega) at a chart point: the entries (i11, i12, i22)
        of the inverse metric (SingularMetric where G is not positive
        definite), the component partials and the field coefficient; from
        one call of ``local`` when the chart supplies it."""
        if self.local is not None:
            g, dg, omega = self.local(x, y)
            return _inverse(g, x, y), dg, omega
        return self.metric.inverse(x, y), self.metric.component_partials(x, y), self.field(x, y)


def _velocity(inverse, p1, p2) -> tuple[float, float]:
    """dH/dp = G^{-1} p, the velocity, from the entries of G^{-1}."""
    i11, i12, i22 = inverse
    return i11 * p1 + i12 * p2, i12 * p1 + i22 * p2


def hamiltonian(system: MagneticSystem, phase, check_domain: bool = True) -> float:
    """Kinetic Hamiltonian H = (1/2) p^T G(q)^{-1} p at a phase point; p1
    and p2 may be arrays of momenta at the chart point."""
    x, y, p1, p2 = phase
    x, y = float(x), float(y)
    if check_domain:
        system.require_inside(x, y)
    w1, w2 = _velocity(_inverse(system.metric.components(x, y), x, y), p1, p2)
    return 0.5 * (p1 * w1 + p2 * w2)


def hamiltonian_gradient(system: MagneticSystem, phase, local=None) -> tuple:
    """Phase gradient (H_x, H_y, H_p1, H_p2) of the Hamiltonian, without a
    domain check: dH/dp = w = G^{-1} p and dH/dq_k = -(1/2) w^T (dG/dq_k) w.

    ``phase`` = (x, y, p1, p2) at one chart point; p1 and p2 may be arrays
    of momenta, over which the four components broadcast.  ``local`` is
    the point's :meth:`MagneticSystem.local_geometry`, evaluated here when
    not given.
    """
    x, y, p1, p2 = phase
    inverse, dg, _ = system.local_geometry(x, y) if local is None else local
    w1, w2 = _velocity(inverse, p1, p2)
    (e_x, f_x, g_x), (e_y, f_y, g_y) = dg
    h_x = -0.5 * (e_x * w1 * w1 + 2.0 * f_x * w1 * w2 + g_x * w2 * w2)
    h_y = -0.5 * (e_y * w1 * w1 + 2.0 * f_y * w1 * w2 + g_y * w2 * w2)
    return h_x, h_y, w1, w2


def vector_field(system: MagneticSystem, x: float, y: float, grad, local=None) -> list:
    """Magnetic Hamiltonian vector field X_G at (x, y) of a function G with
    phase gradient ``grad`` = (G_x, G_y, G_p1, G_p2):
    X_G = (G_p1, G_p2, -G_x + Omega G_p2, -G_y - Omega G_p1).

    Omega is read from ``local`` (as in :func:`hamiltonian_gradient`) when
    given.  Returns the list of the four components: floats for one
    gradient of floats, arrays of n values when the gradient's components
    are arrays of n values at the same chart point."""
    g_x, g_y, g_p1, g_p2 = grad
    omega = system.field(x, y) if local is None else local[2]
    return [g_p1, g_p2, -g_x + omega * g_p2, -g_y - omega * g_p1]


def momentum_on_level(
    system: MagneticSystem,
    x: float,
    y: float,
    phi: float,
    energy: Optional[float] = None,
) -> tuple[float, float]:
    """Momenta on the level set {H = energy/2} at angle phi.

    Returns p = sqrt(C) * L * (cos phi, sin phi) with L the lower
    Cholesky factor of G(x, y); then H = (C/2)(cos, sin) L^T G^{-1} L
    (cos, sin)^T = C/2 identically in phi.  ``phi`` may be an array of
    angles: the factor is computed once and (p1, p2) are arrays.  The
    product is written out elementwise, so an angle gives the same bits
    alone or inside an array.
    """
    c = system.energy if energy is None else float(energy)
    if not c > 0.0:
        raise DomainError(f"energy constant must be positive, got {c}")
    system.require_inside(x, y)
    (l11, _), (l21, l22) = (np.sqrt(c) * system.metric.cholesky(x, y)).tolist()
    cos, sin = np.cos(phi), np.sin(phi)
    return l11 * cos, l21 * cos + l22 * sin


def gaussian_curvature(metric: Metric, x: float, y: float, h: float = 1e-4) -> float:
    """Gaussian curvature by the Brioschi formula with central FD.

    All first and second derivatives of the components E = g11, F = g12,
    G = g22 are O(h^2) central differences of ``metric.components``, so
    the result converges at second order in h.  Intended as a plain FD
    oracle; it deliberately ignores any analytic partials the metric may
    carry.
    """

    def comp(a, b):
        return np.asarray(metric.components(a, b), dtype=float)

    c0 = comp(x, y)
    cxp, cxm = comp(x + h, y), comp(x - h, y)
    cyp, cym = comp(x, y + h), comp(x, y - h)
    cpp, cpm = comp(x + h, y + h), comp(x + h, y - h)
    cmp_, cmm = comp(x - h, y + h), comp(x - h, y - h)

    d_x = (cxp - cxm) / (2.0 * h)
    d_y = (cyp - cym) / (2.0 * h)
    d_xx = (cxp - 2.0 * c0 + cxm) / (h * h)
    d_yy = (cyp - 2.0 * c0 + cym) / (h * h)
    d_xy = (cpp - cpm - cmp_ + cmm) / (4.0 * h * h)

    e, f, g = c0
    e_x, f_x, g_x = d_x
    e_y, f_y, g_y = d_y
    e_yy = d_yy[0]
    g_xx = d_xx[2]
    f_xy = d_xy[1]

    det = e * g - f * f
    if det <= 0.0:
        raise SingularMetric(f"metric degenerate at ({x}, {y}): det = {det}")

    m1 = np.array(
        [
            [-0.5 * e_yy + f_xy - 0.5 * g_xx, 0.5 * e_x, f_x - 0.5 * e_y],
            [f_y - 0.5 * g_x, e, f],
            [0.5 * g_y, f, g],
        ]
    )
    m2 = np.array(
        [
            [0.0, 0.5 * e_y, 0.5 * g_x],
            [0.5 * e_y, e, f],
            [0.5 * g_x, f, g],
        ]
    )
    return float((np.linalg.det(m1) - np.linalg.det(m2)) / (det * det))
