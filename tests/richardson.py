"""The tests' finite-difference oracle for exact derivatives.

Central differences at steps h_i and h_i / 2, h_i = h max(1, |point_i|),
combined by one Richardson step, so the error is fourth order in h.  The
package carries exact gradients and metric partials only; these stencils
are what they are checked against.
"""

import numpy as np


def richardson_gradient(fn, point, h):
    """Row i holds the derivative of ``fn`` along coordinate i of ``point``;
    ``fn`` may return a scalar or a vector."""
    point = np.asarray(point, dtype=float)
    rows = []
    for i in range(len(point)):
        e = np.zeros(len(point))
        e[i] = h * max(1.0, abs(point[i]))
        d1 = (np.asarray(fn(point + e)) - np.asarray(fn(point - e))) / (2.0 * e[i])
        d2 = (np.asarray(fn(point + 0.5 * e)) - np.asarray(fn(point - 0.5 * e))) / e[i]
        rows.append((4.0 * d2 - d1) / 3.0)
    return np.array(rows)


def metric_partials(metric, x, y, h):
    """Differences of the metric components at (x, y), shaped like
    ``Metric.partials``: ((g11_x, g12_x, g22_x), (g11_y, g12_y, g22_y))."""
    return richardson_gradient(lambda q: metric.components(q[0], q[1]), (x, y), h)
