"""Implicit residual functions for bisectors, slices, and fans.

Every hypersurface here is represented by a real residual function whose
zero level set is the locus. Residuals are cheap to sample, which is what
the verification oracles need; no parametrizations are kept. Each residual
gives a float at one point and an array over a stacked ChartPoint, equal
bit for bit to its values at the points alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .charts import HORO, ChartPoint, convert, dist, point_from_array
from .errors import DegenerateLocusError, ShapeError
from .quaternion import float_or_array, norm2


@dataclass(frozen=True)
class LocusSpec:
    """Which locus: a bisector of two points, the canonical bisector,
    a fan cut out by a real-linear functional of omega, the bisector
    degeneration family at parameter t, or the fan with vertex at the
    origin of the Heisenberg group."""

    kind: str
    p1: Optional[ChartPoint] = None
    p2: Optional[ChartPoint] = None
    normal: Optional[np.ndarray] = None    # real-linear functional on Q^{n-1}
    offset: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        kinds = {"bisector", "canonical-bisector", "fan",
                 "bisector-family", "fan-at-origin"}
        if self.kind not in kinds:
            raise ShapeError(f"unknown locus kind {self.kind!r}")
        if self.kind == "bisector":
            if self.p1 is None or self.p2 is None:
                raise DegenerateLocusError("bisector needs two points")
            if dist(self.p1, self.p2) == 0.0:
                raise DegenerateLocusError("bisector of equal points")
        if self.kind == "fan":
            if self.normal is None or not np.any(np.asarray(self.normal)):
                raise DegenerateLocusError("fan needs a nonzero normal")


def bisector_residual(p: ChartPoint, p1: ChartPoint, p2: ChartPoint):
    """d(p, p1) - d(p, p2); zero exactly on the bisector of p1 and p2."""
    if dist(p1, p2) == 0.0:
        raise DegenerateLocusError("bisector of equal points is undefined")
    return dist(p, p1) - dist(p, p2)


def canonical_bisector_residual(p: ChartPoint):
    """Re(k beta) in horospherical coordinates, i.e. -beta_3."""
    return float_or_array(-convert(p, HORO).beta[..., 2])


def spine_projection(p: ChartPoint) -> ChartPoint:
    """Orthogonal projection to the spine: (omega, alpha, beta) -> (0, alpha + |omega|^2, beta)."""
    q = convert(p, HORO)
    rows = np.zeros_like(q.rows)
    rows[-1] = q.rows[-1]
    rows[-1, 0] += norm2(q.omega)
    return point_from_array(HORO, rows.ravel(), q.n)


def fan_residual(p: ChartPoint, spec: LocusSpec):
    """Affine functional of omega alone; independent of alpha and beta.

    The default vertical fan has residual Re(omega_{n-1}); the rotated
    copy used by the inversion check has residual Re(k omega_{n-1}).
    """
    q = convert(p, HORO)
    if spec.kind != "fan":
        raise ShapeError("fan_residual expects a fan spec")
    normal = np.asarray(spec.normal, dtype=float)
    w = q.omega.reshape(q.omega.shape[:-2] + (-1,))
    if normal.shape != w.shape[-1:]:
        raise ShapeError("fan normal does not match Q^{n-1}")
    return float_or_array(np.vecdot(w, normal) - spec.offset)


def fan_normal(n: int, component: int) -> np.ndarray:
    """Functional selecting one real component of omega_{n-1}.

    component 0 gives Re(omega_{n-1}); component 3 with a sign flip
    gives Re(k omega_{n-1}).
    """
    v = np.zeros(4 * (n - 1))
    v[4 * (n - 2) + component] = 1.0
    return v


def bisector_family_residual(p: ChartPoint, t: float):
    """Re(k (beta - 2 t omega_{n-1})); t = 0 is the canonical bisector."""
    q = convert(p, HORO)
    return float_or_array(-q.beta[..., 2] + 2.0 * t * q.omega[..., -1, 3])


def fan_at_origin_residual(p: ChartPoint):
    """Residual of the fan with vertex at the Heisenberg origin.

    omega_{n-1,3} (alpha + sum |omega_l|^2) + omega_{n-1,2} beta_1
    - omega_{n-1,1} beta_2 - omega_{n-1,0} beta_3.
    """
    q = convert(p, HORO)
    w, b = q.omega[..., -1, :], q.beta
    return float_or_array(w[..., 3] * (q.alpha + norm2(q.omega)) + w[..., 2] * b[..., 0]
                          - w[..., 1] * b[..., 1] - w[..., 0] * b[..., 2])


def locus_residual(p: ChartPoint, spec: LocusSpec):
    if spec.kind == "bisector":
        return bisector_residual(p, spec.p1, spec.p2)
    if spec.kind == "canonical-bisector":
        return canonical_bisector_residual(p)
    if spec.kind == "fan":
        return fan_residual(p, spec)
    if spec.kind == "bisector-family":
        return bisector_family_residual(p, spec.t)
    return fan_at_origin_residual(p)
