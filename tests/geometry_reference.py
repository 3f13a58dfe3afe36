"""Geometric references that the tests hold the package's functions to:
each is written from its definition, with no caller in the package."""

import numpy as np

from hqn.charts import HORO, ChartPoint, convert, coords_array, dist, point_from_array
from hqn.errors import DegenerateLocusError
from hqn.quaternion import CONJ, IMAG, hamilton, herm_definite, norm2, qarray_inverse, qnorm2


def bisector_residual(p: ChartPoint, p1: ChartPoint, p2: ChartPoint):
    """d(p, p1) - d(p, p2); zero exactly on the bisector of p1 and p2. The
    reference for loci.canonical_bisector_residual, the bisector of
    (0, k/2) and (0, -k/2)."""
    if dist(p1, p2) == 0.0:
        raise DegenerateLocusError("bisector of equal points is undefined")
    return dist(p, p1) - dist(p, p2)


def inversion_horo(p: ChartPoint) -> ChartPoint:
    """The involutive inversion fixing {|omega|^2 + alpha = 1, beta = 0}, on
    one point; it maps a vertical fan to loci.fan_at_origin_residual's."""
    q = convert(p, HORO)
    denom = q.rows[-1].copy()              # alpha + |omega|^2 + beta
    denom[0] += norm2(q.omega)
    rows = np.vstack([hamilton(q.omega, qarray_inverse(denom)),
                      q.rows[-1] * CONJ / qnorm2(denom)])
    return convert(point_from_array(HORO, rows.ravel()), p.chart)


def heis_mul(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The Heisenberg group law (xi1, nu1)(xi2, nu2) = (xi1 + xi2,
    nu1 + nu2 + 2 Im(xi1, xi2)) on (xi, nu) pairs of (n-1, 4) and (4,)
    rows, which isometries.heisenberg_matrix represents."""
    (xi1, nu1), (xi2, nu2) = a, b
    return xi1 + xi2, nu1 + nu2 + 2.0 * herm_definite(xi1, xi2) * IMAG


def push_tangent(p: ChartPoint, u: np.ndarray, chart: str) -> tuple[ChartPoint, np.ndarray]:
    """p in another chart, and the tangent u there by central finite
    differences of charts.convert."""
    q = convert(p, chart)
    if chart == p.chart:
        return q, np.asarray(u, dtype=float)
    c = coords_array(p)
    h = 1e-6 * (1.0 + float(np.linalg.norm(c)))
    u = np.asarray(u, dtype=float)
    fwd = coords_array(convert(point_from_array(p.chart, c + h * u), chart))
    bwd = coords_array(convert(point_from_array(p.chart, c - h * u), chart))
    return q, (fwd - bwd) / (2.0 * h)
