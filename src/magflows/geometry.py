"""Charts, metrics, magnetic fields and energy-level momentum sampling.

Conventions used throughout the package:

* a chart point is a pair of floats ``(x, y)``;
* a phase point is a length-4 vector ``(x, y, p1, p2)`` with the momenta
  living in the cotangent fibre;
* P chart points are given as chart columns, x and y of shape (P, 1), with
  momenta of shape (P, n): n momenta at each point.  A function of one
  float chart point is read at each of them by :func:`chart_columns`, and
  everything after that is elementwise, so each sample has the bits of
  the same evaluation at its own point;
* the Hamiltonian is ``H = (1/2) g^{ij} p_i p_j``; dH is written once,
  in :func:`hamiltonian_flow`, and :func:`hamiltonian_gradient` reads it
  back from there at Omega = 0;
* the magnetic field is the coefficient ``Omega(x, y)`` of ``dx ^ dy``; it
  enters the field X_G = (G_p1, G_p2, -G_x + Omega G_p2, -G_y - Omega G_p1)
  of a phase function G, so the bracket is {F, G} = dF(X_G), and
  :func:`hamiltonian_flow` forms dH and the flow X_H in one frame;
* both read G^{-1}, dG and Omega of a chart point from one
  :meth:`MagneticSystem.local_geometry` call, built from the metric and the
  field unless the chart supplies all three from one ``local`` (ex3-ex6 and
  the rational bundles; ex1, ex2 and ex2b take the default path); a scan
  reads (G, dG, Omega) once per grid point, and G^{-1} and the level factor
  from that G by :func:`_inverse_and_cholesky`.

A metric is supplied as analytic components together with their exact
spatial partials, or as views of a ``local`` by :func:`_local_system`; a
frame chart, G = k M^T M (ex3 and the rational bundles), writes that
``local`` in :func:`_frame_system`, dG by the product rule.  No function
differences G itself: :func:`gaussian_curvature`, for the flat and curved
checks, differences only the exact dG, for its three second partials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
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
    "hamiltonian_flow",
    "chart_columns",
    "stack_columns",
    "level_factor",
    "level_momenta",
    "momentum_on_level",
    "gaussian_curvature",
]

# component triples are ordered (g11, g12, g22)
Components = Callable[[float, float], tuple[float, float, float]]
# partials return ((g11_x, g12_x, g22_x), (g11_y, g12_y, g22_y))
Partials = Callable[
    [float, float],
    tuple[tuple[float, float, float], tuple[float, float, float]],
]


def stack_columns(values):
    """The values of a function at P chart points as chart columns: P
    floats become one (P, 1) column, and P tuples the tuple of their
    components stacked alike, so P triples unpack into three columns and P
    pairs of triples into two (3, P, 1) arrays.  P callables, such as the
    deferred ``partials`` of integral data, become one that stacks their
    values at the first call and returns that stack, to be read only."""
    if callable(values[0]):
        return cache(lambda: stack_columns([value() for value in values]))
    if isinstance(values[0], tuple):
        return tuple(stack_columns(part) if callable(part[0]) else _stacked(part) for part in zip(*values))
    return _stacked(values)


def _stacked(values) -> np.ndarray:
    """P equally shaped values as one array with the points in a trailing
    (P, 1) column."""
    return np.moveaxis(np.array(values, dtype=float), 0, -1)[..., None]


def chart_columns(fn, x, y):
    """``fn(x, y)`` of a function of one float chart point, read at chart
    columns: at each of the P points of x and y of shape (P, 1), stacked by
    :func:`stack_columns`, which leaves a deferred part uncalled until it is
    used.  At one chart point it is ``fn(x, y)`` itself."""
    if not isinstance(x, np.ndarray):
        return fn(x, y)
    return stack_columns([fn(u, v) for u, v in zip(x.ravel().tolist(), y.ravel().tolist())])


def _inverse(g, x: float, y: float) -> tuple[float, float, float]:
    """Entries (i11, i12, i22) of G^{-1} from the components g = (g11, g12,
    g22); SingularMetric where G is not positive definite (NaN fails too)."""
    g11, g12, g22 = g
    det = g11 * g22 - g12 * g12
    if not (det > 0.0 and g11 > 0.0):
        raise SingularMetric(f"metric not positive definite at ({x}, {y}): det = {det}")
    return g22 / det, -g12 / det, g11 / det


def _inverse_and_cholesky(g, x: float, y: float) -> tuple:
    """(G^{-1}, L) from the components g = (g11, g12, g22): :func:`_inverse`
    and the lower Cholesky factor (l11, l21, l22) in closed form, l11 =
    sqrt(g11), l21 = g12 (1 / l11), l22 = sqrt(g22 - l21^2), LAPACK's bit
    for bit.  SingularMetric also where g22 - l21^2 is not positive."""
    inverse = _inverse(g, x, y)
    g11, g12, g22 = g
    l11 = math.sqrt(g11)
    l21 = g12 * (1.0 / l11)
    schur = g22 - l21 * l21
    if not schur > 0.0:
        raise SingularMetric(f"Cholesky factorization failed at ({x}, {y}): "
                             f"g22 - l21^2 = {schur}")
    return inverse, (l11, l21, math.sqrt(schur))


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
        """Accepted points of an nx-by-ny bbox grid, as a list of (x, y)
        float pairs."""
        x0, x1, y0, y1 = self.bbox
        dx, dy = margin * (x1 - x0), margin * (y1 - y0)
        xs = np.linspace(x0 + dx, x1 - dx, nx).tolist()
        ys = np.linspace(y0 + dy, y1 - dy, ny).tolist()
        return [(x, y) for x in xs for y in ys if self.contains(x, y)]


@dataclass(frozen=True)
class Metric:
    """Symmetric 2x2 metric tensor field on a chart.

    ``components(x, y)`` returns ``(g11, g12, g22)`` and ``partials(x,
    y)`` their exact spatial partials ``((g11_x, g12_x, g22_x), (g11_y,
    g12_y, g22_y))``.
    """

    components: Components
    partials: Partials

    def inverse(self, x: float, y: float) -> tuple[float, float, float]:
        """Entries (i11, i12, i22) of G^{-1} as floats; raises
        SingularMetric where G is not positive definite."""
        return _inverse(self.components(x, y), x, y)


def conformal_metric(factor, factor_partials) -> Metric:
    """Metric Lambda(x, y) * (dx^2 + dy^2) from a scalar conformal factor
    and its partials ``factor_partials(x, y) -> (Lambda_x, Lambda_y)``,
    lifted to the component partials."""

    def components(x, y):
        lam = factor(x, y)
        return (lam, 0.0, lam)

    def dg(x, y):
        lx, ly = factor_partials(x, y)
        return ((lx, 0.0, lx), (ly, 0.0, ly))

    return Metric(components=components, partials=dg)


@dataclass(frozen=True)
class MagneticSystem:
    """A metric, a magnetic field coefficient and a working domain.

    ``energy`` is the constant C > 0; integrals attached to the system
    are guaranteed (at least) on the level set {H = C/2}.  ``local``, when
    given, returns (G, dG, Omega) of a chart point from one evaluation, and
    ``metric`` and ``field`` are its views (:func:`_local_system`): ex3-ex6
    and the rational bundles supply it, ex1, ex2 and ex2b do not.
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
        return self.metric.inverse(x, y), self.metric.partials(x, y), self.field(x, y)


def _local_system(local, **fields) -> MagneticSystem:
    """The system of a chart whose ``local(x, y)`` gives (G, dG, Omega) from
    one evaluation, with the other :class:`MagneticSystem` ``fields``: its
    metric components and partials and its field are views of ``local``."""
    metric = Metric(components=lambda x, y: local(x, y)[0],
                    partials=lambda x, y: local(x, y)[1])
    return MagneticSystem(metric=metric, field=lambda x, y: local(x, y)[2], local=local, **fields)


def _frame_system(frame, domain: ChartDomain, **fields) -> MagneticSystem:
    """The :func:`_local_system` of a frame chart G = k M^T M, with
    ``frame(x, y)`` = (k, M, dk, dM, Omega): the scale k, the frame M row by
    row as (m11, m12, m21, m22), its partials dk = (k_x, k_y) and dM = (M_x,
    M_y), each row by row as M is, and the field; and the other ``fields``.
    Its ``local`` gives G, dG and Omega from one frame call, dG by the
    product rule dG = dk M^T M + k (dM^T M + M^T dM)."""

    def local(x, y):
        k, m, (k_x, k_y), ((x11, x12, x21, x22), (y11, y12, y21, y22)), omega = frame(x, y)
        m11, m12, m21, m22 = m
        g11, g12, g22 = m11 * m11 + m21 * m21, m11 * m12 + m21 * m22, m12 * m12 + m22 * m22
        k2 = 2.0 * k
        return (k * g11, k * g12, k * g22), (
            (k_x * g11 + k2 * (m11 * x11 + m21 * x21),
             k_x * g12 + k * (m11 * x12 + x11 * m12 + m21 * x22 + x21 * m22),
             k_x * g22 + k2 * (m12 * x12 + m22 * x22)),
            (k_y * g11 + k2 * (m11 * y11 + m21 * y21),
             k_y * g12 + k * (m11 * y12 + y11 * m12 + m21 * y22 + y21 * m22),
             k_y * g22 + k2 * (m12 * y12 + m22 * y22))), omega

    return _local_system(local, domain=domain, **fields)


def _velocity(inverse, p1, p2) -> tuple[float, float]:
    """dH/dp = G^{-1} p, the velocity, from the entries of G^{-1}."""
    i11, i12, i22 = inverse
    return i11 * p1 + i12 * p2, i12 * p1 + i22 * p2


def _checked_inverse(system: MagneticSystem, check_domain: bool, x, y) -> tuple:
    """Entries of G^{-1} at one chart point, inside the domain when
    ``check_domain`` asks for it."""
    x, y = float(x), float(y)
    if check_domain:
        system.require_inside(x, y)
    return _inverse(system.metric.components(x, y), x, y)


def hamiltonian(system: MagneticSystem, phase, check_domain: bool = True) -> float:
    """Kinetic Hamiltonian H = (1/2) p^T G(q)^{-1} p at a phase point; p1
    and p2 may be arrays of momenta at the chart point, and x, y chart
    columns."""
    x, y, p1, p2 = phase
    # one chart point skips chart_columns: H is read along every trace
    if isinstance(x, np.ndarray):
        inverse = chart_columns(partial(_checked_inverse, system, check_domain), x, y)
    else:
        inverse = _checked_inverse(system, check_domain, x, y)
    w1, w2 = _velocity(inverse, p1, p2)
    return 0.5 * (p1 * w1 + p2 * w2)


def hamiltonian_gradient(system: MagneticSystem, phase) -> tuple:
    """Phase gradient (H_x, H_y, H_p1, H_p2) of the Hamiltonian, without a
    domain check, read back from :func:`hamiltonian_flow` at Omega = 0,
    where X_H = (w1, w2, -H_x, -H_y); it is the written-out dH/dp = w =
    G^{-1} p and dH/dq_k = -(1/2) w^T (dG/dq_k) w up to the sign of a zero.

    ``phase`` = (x, y, p1, p2) at one chart point; p1 and p2 may be arrays
    of momenta, over which the four components broadcast, and x, y chart
    columns, whose :meth:`MagneticSystem.local_geometry` is read by
    :func:`chart_columns`.
    """
    x, y, p1, p2 = phase
    inverse, dg, _ = chart_columns(system.local_geometry, x, y)
    w1, w2, minus_h_x, minus_h_y = hamiltonian_flow((inverse, dg, 0.0), p1, p2)
    return -minus_h_x, -minus_h_y, w1, w2


def hamiltonian_flow(local, p1, p2) -> list:
    """X_H = [w1, w2, -H_x + Omega w2, -H_y - Omega w1] from a chart point's
    :meth:`MagneticSystem.local_geometry` and momenta, in one frame, with
    dH written out here only: dH/dp = w = G^{-1} p and dH/dq_k = -(1/2)
    w^T (dG/dq_k) w.  Floats give floats; (P, n) momenta at chart columns,
    with their stacked ``local``, give (P, n) arrays of the same bits."""
    inverse, dg, omega = local
    w1, w2 = _velocity(inverse, p1, p2)
    (e_x, f_x, g_x), (e_y, f_y, g_y) = dg
    return [w1, w2,
            0.5 * (e_x * w1 * w1 + 2.0 * f_x * w1 * w2 + g_x * w2 * w2) + omega * w2,
            0.5 * (e_y * w1 * w1 + 2.0 * f_y * w1 * w2 + g_y * w2 * w2) - omega * w1]


def level_factor(
    system: MagneticSystem, x: float, y: float, energy: Optional[float] = None,
) -> tuple[float, float, float]:
    """Entries (l11, l21, l22) of sqrt(C) L at a chart point, with L the
    lower Cholesky factor of G(x, y) and C = ``energy`` (the system's when
    not given): the factor that maps the unit circle of angles onto the
    momenta on {H = C/2}.  DomainError for C <= 0 or a point outside the
    domain; SingularMetric where the factor does not exist."""
    c = system.energy if energy is None else float(energy)
    if not c > 0.0:
        raise DomainError(f"energy constant must be positive, got {c}")
    system.require_inside(x, y)
    l11, l21, l22 = _inverse_and_cholesky(system.metric.components(x, y), x, y)[1]
    s = math.sqrt(c)
    return s * l11, s * l21, s * l22


def level_momenta(factor, phi) -> tuple:
    """Momenta (p1, p2) = F (cos phi, sin phi) for the entries (l11, l21,
    l22) of a :func:`level_factor` F.  ``phi`` may be an array of n angles,
    and the entries (P, 1) chart columns, which gives (P, n) momenta.  The
    product is written out elementwise, so an angle gives the same bits
    alone, inside an array or at a row of columns."""
    l11, l21, l22 = factor
    cos, sin = np.cos(phi), np.sin(phi)
    return l11 * cos, l21 * cos + l22 * sin


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
    angles: the factor is computed once and (p1, p2) are arrays, with the
    bits of :func:`level_momenta`.
    """
    return level_momenta(level_factor(system, x, y, energy), phi)


def gaussian_curvature(metric: Metric, x: float, y: float, h: float = 1e-5) -> float:
    """Gaussian curvature by the Brioschi formula, on Python floats.

    E = g11, F = g12, G = g22 and their first partials are read exactly
    from ``metric.components`` and ``metric.partials`` at the point.  Only
    the second partials E_yy, F_xy (from ``partials`` at y +- h) and G_xx
    (at x +- h) are differenced, centrally: the error is O(h^2) and the
    round-off grows like eps/h.  SingularMetric where the determinant is
    not positive (NaN fails too).
    """
    e, f, g = metric.components(x, y)
    det = e * g - f * f
    if not det > 0.0:
        raise SingularMetric(f"metric degenerate at ({x}, {y}): det = {det}")
    (e_x, f_x, g_x), (e_y, f_y, g_y) = metric.partials(x, y)
    (_, f_x_up, _), (e_y_up, _, _) = metric.partials(x, y + h)
    (_, f_x_down, _), (e_y_down, _, _) = metric.partials(x, y - h)
    g_x_right, g_x_left = metric.partials(x + h, y)[0][2], metric.partials(x - h, y)[0][2]
    # -E_yy/2 + F_xy - G_xx/2, the corner of the first determinant
    a = (f_x_up - f_x_down - 0.5 * (e_y_up - e_y_down + g_x_right - g_x_left)) / (2.0 * h)
    # both 3x3 determinants, expanded along their first rows
    ey, gx = 0.5 * e_y, 0.5 * g_x
    b, c, u, v = 0.5 * e_x, f_x - ey, f_y - gx, 0.5 * g_y
    det1 = a * det - b * (u * g - f * v) + c * (u * f - e * v)
    det2 = 2.0 * f * ey * gx - g * ey * ey - e * gx * gx
    return float((det1 - det2) / (det * det))
