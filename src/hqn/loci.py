"""Implicit residual functions for bisectors, slices, and fans.

Every hypersurface here is represented by a real residual function whose
zero level set is the locus. Residuals are cheap to sample, which is what
the verification oracles need; no parametrizations are kept. Each residual
gives a numpy scalar at one point and, by the same expression, an array
over a stacked ChartPoint.
"""

from __future__ import annotations

import numpy as np

from .charts import HORO, ChartPoint, convert
from .errors import DegenerateLocusError, ShapeError
from .quaternion import norm2


def canonical_bisector_residual(p: ChartPoint):
    """Re(k beta) in horospherical coordinates, i.e. -beta_3."""
    return -convert(p, HORO).beta[..., 2]


def fan_residual(p: ChartPoint, normal, offset: float = 0.0):
    """The affine functional <omega, normal> - offset of omega alone,
    independent of alpha and beta; normal is a nonzero real-linear
    functional on Q^{n-1}.

    The default vertical fan has residual Re(omega_{n-1}); the rotated
    copy used by the inversion check has residual Re(k omega_{n-1}).
    """
    normal = np.asarray(normal, dtype=float)
    if not np.any(normal):
        raise DegenerateLocusError("fan needs a nonzero normal")
    q = convert(p, HORO)
    w = q.omega.reshape(q.omega.shape[:-2] + (-1,))
    if normal.shape != w.shape[-1:]:
        raise ShapeError("fan normal does not match Q^{n-1}")
    return np.vecdot(w, normal) - offset


def bisector_family_residual(p: ChartPoint, t: float):
    """Re(k (beta - 2 t omega_{n-1})); t = 0 is the canonical bisector."""
    q = convert(p, HORO)
    return -q.beta[..., 2] + 2.0 * t * q.omega[..., -1, 3]


def fan_at_origin_residual(p: ChartPoint):
    """Residual of the fan with vertex at the Heisenberg origin.

    omega_{n-1,3} (alpha + sum |omega_l|^2) + omega_{n-1,2} beta_1
    - omega_{n-1,1} beta_2 - omega_{n-1,0} beta_3.
    """
    q = convert(p, HORO)
    w, b = q.omega[..., -1, :], q.beta
    return (w[..., 3] * (q.alpha + norm2(q.omega)) + w[..., 2] * b[..., 0]
            - w[..., 1] * b[..., 1] - w[..., 0] * b[..., 2])
