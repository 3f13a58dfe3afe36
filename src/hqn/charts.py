"""Coordinate models of quaternionic hyperbolic space.

Three charts are supported:

* ``ball``  -- affine coordinates x in Q^n with |x| < 1
* ``siegel`` -- zeta in Q^n with |zeta'|^2 - 2 Re(zeta_n) < 0
* ``horo``  -- (omega, alpha, beta) in Q^{n-1} x R_+ x Im(Q)

A ChartPoint holds one point as (n, 4) rows or a stack of k points as
(k, n, 4) rows; the chart maps, ``dist`` and ``lift`` take either, and a
stack gives per point exactly what each point gives alone.

Tangent vectors are raw coordinate increments in the real coordinates of
each chart (length 4n); chart changes of tangents use central finite
differences of the conversion maps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NotInteriorError, ShapeError
from .quaternion import (
    CONJ,
    UNIT,
    components,
    hamilton,
    herm_definite,
    lorentz_sign,
    norm2,
    qarray_inverse,
    qnorm2,
    right_mult_matrix,
)

BALL = "ball"
SIEGEL = "siegel"
HORO = "horo"

INTERIOR_MARGIN = 1e-12


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """Interior point of H_Q^n in one chart, as read-only (n, 4) rows: one
    quaternion per row; or a stack of k such points, as (k, n, 4) rows. A
    horo point's rows are omega_1..omega_{n-1}, then
    (alpha, beta_1, beta_2, beta_3)."""

    chart: str
    rows: np.ndarray

    @property
    def n(self) -> int:
        return self.rows.shape[-2]

    @property
    def omega(self) -> np.ndarray:
        """Horo: the (..., n-1, 4) rows of omega."""
        return self.rows[..., :-1, :]

    @property
    def alpha(self):
        """Horo: the height alpha > 0, per point."""
        return _re_last(self.rows)

    @property
    def beta(self) -> np.ndarray:
        """Horo: the (..., 3) imaginary components of beta."""
        return self.rows[..., -1, 1:]


_OUTSIDE = {
    BALL: "ball point must be finite with |x| < 1",
    SIEGEL: "siegel point must be finite with |zeta'|^2 < 2 Re(zeta_n)",
    HORO: "horospherical point must be finite with alpha > 0",
}


def _re_last(rows: np.ndarray):
    """Re of the last row: a numpy scalar for one point's (n, 4) rows (not a
    0-d array, whose arithmetic is slow), an array over a stack."""
    return rows[..., -1, 0][()]


def _inside(chart: str, rows: np.ndarray):
    """The interior test of (..., n, 4) rows, a bool per point.

    Each test is one strict comparison, which NaN fails. Adding s - s to
    alpha (or Re zeta_n) makes non-finite rows fail it too: that is 0 for
    finite rows and NaN when their sum of squares s is not finite (a NaN or
    infinite component, or a square that overflows). There inf - inf
    warns, so _point silences numpy's "invalid" flag.
    """
    if chart not in _OUTSIDE:
        raise ShapeError(f"unknown chart {chart!r}")
    s = norm2(rows)
    if chart == BALL:
        return s < 1.0 - INTERIOR_MARGIN
    lead = _re_last(rows) + (s - s)
    if chart == SIEGEL:
        return 0.5 * norm2(rows[..., :-1, :]) < lead - 0.5 * INTERIOR_MARGIN
    return lead > INTERIOR_MARGIN


def _point(chart: str, rows: np.ndarray) -> ChartPoint:
    """Validate the interior (n, 4) or (k, n, 4) rows of a chart and freeze
    them into a ChartPoint."""
    with np.errstate(invalid="ignore"):
        inside = _inside(chart, rows).all()
    if not inside:
        raise NotInteriorError(_OUTSIDE[chart])
    rows.setflags(write=False)
    return ChartPoint(chart, rows)


def ball_point(coords) -> ChartPoint:
    return _point(BALL, components(coords))


def siegel_point(coords) -> ChartPoint:
    return _point(SIEGEL, components(coords))


def horo_point(omega, alpha: float, beta) -> ChartPoint:
    """(omega, alpha, beta) from quaternions and reals; beta purely imaginary."""
    rows = components(tuple(omega) + (beta,))
    if abs(rows[-1, 0]) > INTERIOR_MARGIN:
        raise NotInteriorError("beta must be purely imaginary")
    rows[-1, 0] = float(alpha)
    return _point(HORO, rows)


# ---------------------------------------------------------------------------
# chart maps on (..., n, 4) rows; every conversion passes through the Siegel
# chart


def _cayley(x: np.ndarray) -> np.ndarray:
    """Ball -> Siegel: zeta' = x' (1 - x_n)^{-1},
    zeta_n = (1 + x_n) (1 - x_n)^{-1} / 2."""
    y = x.copy()
    y[..., -1, :] = 0.5 * (UNIT + x[..., -1, :])
    return hamilton(y, qarray_inverse(UNIT - x[..., -1, :])[..., None, :])


def _cayley_inv(z: np.ndarray) -> np.ndarray:
    """Siegel -> Ball: x_n = (2 zeta_n + 1)^{-1} (2 zeta_n - 1),
    x' = zeta' (1 - x_n)."""
    two_zn = 2.0 * z[..., -1, :]
    xn = hamilton(qarray_inverse(two_zn + UNIT), two_zn - UNIT)
    x = hamilton(z, (UNIT - xn)[..., None, :])
    x[..., -1, :] = xn
    return x


def _horo_from_siegel(z: np.ndarray) -> np.ndarray:
    """omega = zeta', alpha = 2 Re(zeta_n) - |zeta'|^2, beta = 2 Im(zeta_n)."""
    h = z.copy()
    h[..., -1, :] = 2.0 * z[..., -1, :]
    h[..., -1, 0] = 2.0 * _re_last(z) - norm2(z[..., :-1, :])
    return h


def _siegel_from_horo(h: np.ndarray) -> np.ndarray:
    """zeta' = omega, zeta_n = (alpha + |omega|^2 + beta) / 2."""
    z = h.copy()
    z[..., -1, :] = 0.5 * h[..., -1, :]
    z[..., -1, 0] = 0.5 * (_re_last(h) + norm2(h[..., :-1, :]))
    return z


_TO_SIEGEL = {BALL: _cayley, HORO: _siegel_from_horo}
_FROM_SIEGEL = {BALL: _cayley_inv, HORO: _horo_from_siegel}


def _convert_rows(rows: np.ndarray, src: str, dst: str) -> np.ndarray:
    if src == dst:
        return rows
    if src != SIEGEL:
        rows = _TO_SIEGEL[src](rows)
    return rows if dst == SIEGEL else _FROM_SIEGEL[dst](rows)


def _ball_rows(p: ChartPoint) -> np.ndarray:
    return _convert_rows(p.rows, p.chart, BALL)


def convert(p: ChartPoint, chart: str) -> ChartPoint:
    if chart == p.chart:
        return p
    for c in (p.chart, chart):
        if c not in (BALL, SIEGEL, HORO):
            raise ShapeError(f"unknown chart {c!r}")
    return _point(chart, _convert_rows(p.rows, p.chart, chart))


# ---------------------------------------------------------------------------
# lifts and projectivization


def lift(p: ChartPoint) -> np.ndarray:
    """Lorentz lift of an interior point as (n+1, 4) rows, last one 1 (ball
    chart); of a stack, as (k, n+1, 4) rows."""
    x = _ball_rows(p)
    X = np.empty(x.shape[:-2] + (x.shape[-2] + 1, 4))
    X[..., :-1, :] = x
    X[..., -1, :] = UNIT
    return X


def ball_from_lift(X: np.ndarray) -> ChartPoint:
    """Re-project a negative Lorentz vector of (n+1, 4) rows, x_l = X_l X_{n+1}^{-1};
    a (k, n+1, 4) stack of them to a stack of k points."""
    X = np.asarray(X, dtype=float)
    if not np.all(lorentz_sign(X) == -1):
        raise NotInteriorError("lift is not a negative vector")
    return _point(BALL, hamilton(X[..., :-1, :],
                                 qarray_inverse(X[..., -1, :])[..., None, :]))


# ---------------------------------------------------------------------------
# real coordinate packing (4n reals per chart)


def coords_array(p: ChartPoint) -> np.ndarray:
    """The 4n reals of a point; (k, 4n) for a stack."""
    return p.rows.reshape(p.rows.shape[:-2] + (-1,))


def point_from_array(chart: str, arr: np.ndarray, n: int) -> ChartPoint:
    """The point of 4n reals, or one ChartPoint holding the k points of a
    (k, 4n) array, checked in one pass. Its rows are one frozen copy."""
    arr = np.array(arr, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != 4 * n:
        raise ShapeError(f"expected {4 * n} reals or rows of them, got shape {arr.shape}")
    return _point(chart, arr.reshape(arr.shape[:-1] + (n, 4)))


# ---------------------------------------------------------------------------
# distance and Busemann function


def dist(p: ChartPoint, q: ChartPoint):
    """d = 2 arccosh(|1 - (x,y)| / sqrt((1-|x|^2)(1-|y|^2))), ball chart;
    an array when either point is a stack."""
    x, y = _ball_rows(p), _ball_rows(q)
    num = np.sqrt(qnorm2(UNIT - herm_definite(x, y)))
    den = np.sqrt((1.0 - norm2(x)) * (1.0 - norm2(y)))
    return 2.0 * np.arccosh(np.maximum(num / den, 1.0))


def busemann(p: ChartPoint):
    """Busemann function of the axis through 0 and infinity: -ln(alpha)."""
    return -np.log(convert(p, HORO).alpha)


# ---------------------------------------------------------------------------
# Riemannian metric


def metric_matrix(p: ChartPoint) -> np.ndarray:
    """Metric as a (4n)x(4n) real symmetric matrix in p's chart."""
    n = p.n
    if p.chart == BALL:
        return ball_metric_matrix(coords_array(p), n)
    if p.chart == HORO:
        return horo_metric_matrix(coords_array(p), n)
    # Siegel metric via the closed-form pushforward to horo coordinates:
    # omega = zeta', alpha = 2 Re(zeta_n) - |zeta'|^2, beta = 2 Im(zeta_n)
    gh = horo_metric_matrix(coords_array(convert(p, HORO)), n)
    J = _siegel_to_horo_jacobian(p)
    return J.T @ gh @ J


def ball_metric_matrix(x: np.ndarray, n: int) -> np.ndarray:
    """ds^2 = 4[(1-|x|^2)|dx|^2 + |(dx,x)|^2] / (1-|x|^2)^2.

    x of shape (..., 4n) gives a stack of (4n)x(4n) matrices.
    """
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    if np.any(r2 >= 1.0):
        raise NotInteriorError("ball metric needs |x| < 1")
    M = _ball_pairing(x, n)
    s = (1.0 - r2)[..., None, None]
    return 4.0 * (s * np.eye(4 * n) + np.swapaxes(M, -1, -2) @ M) / s ** 2


def horo_metric_matrix(c: np.ndarray, n: int) -> np.ndarray:
    """ds^2 = [dalpha^2 + |dbeta - 2 Im(omega, domega)|^2 + 4 alpha |domega|^2] / alpha^2.

    c of shape (..., 4n) gives a stack of (4n)x(4n) matrices.
    """
    c = np.asarray(c, dtype=float)
    lead = c.shape[:-1]
    m = 4 * (n - 1)
    alpha = c[..., m, None]
    # B(u) = u_beta + 2 Im((u_omega, omega)) as a linear map to R^3;
    # note Im((omega, u)) = -Im((u, omega)) for the quaternionic pairing
    B = np.zeros(lead + (3, 4 * n))
    B[..., m + 1:] = np.eye(3)
    B[..., :m] = 2.0 * _ball_pairing(c[..., :m], n - 1)[..., 1:, :]
    g = np.swapaxes(B, -1, -2) @ B
    g[..., m, m] += 1.0
    g[..., np.arange(m), np.arange(m)] += 4.0 * alpha
    return g / (alpha * alpha)[..., None]


def _ball_pairing(x: np.ndarray, n: int) -> np.ndarray:
    """The (..., 4, 4n) matrix M of dx -> (dx, x) = sum_l conj(dx_l) x_l:
    4x4 blocks R(x_l) C, linear in x."""
    blocks = right_mult_matrix(x.reshape(x.shape[:-1] + (n, 4))) * CONJ
    return np.swapaxes(blocks, -3, -2).reshape(x.shape[:-1] + (4, 4 * n))


@functools.cache
def _pairing_tables(chart: str, n: int) -> tuple[np.ndarray, ...]:
    """Read-only tables of the pairing N = N0 + x @ F (entries 0, +-1, +-2,
    so N has the pairing's bits) the metric is quadratic in, the ball's M or
    the horo B = (L(omega), 0, I_3): N0, F as (d, d r), the (d, d, r) F_c^T
    of F_c = dN/dx_c, and the diagonal projection P on the coordinates N
    depends on (the ball's identity)."""
    d = 4 * n
    F = np.zeros((d, 4 if chart == BALL else 3, d))
    N0 = np.zeros(F.shape[1:])
    if chart == BALL:
        F[:] = _ball_pairing(np.eye(d), n)
    else:
        F[:d - 4, :, :d - 4] = 2.0 * _ball_pairing(np.eye(d - 4), n - 1)[:, 1:]
        N0[:, d - 3:] = np.eye(3)
    tables = (N0, F.reshape(d, -1), np.ascontiguousarray(np.swapaxes(F, 1, 2)),
              np.diag(F.any(axis=(1, 2)).astype(float)))
    for table in tables:
        table.flags.writeable = False
    return tables


def metric_jet(chart: str, x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The inverse and the (d, d, d) derivative dg[c] = d_c g of the ball
    or horo metric matrix at the d = 4n reals x, in closed form, with
    d_c (N^T N) = F_c^T N + N^T F_c.

    Ball: g = 4 (s I + M^T M) / s^2 with s = 1 - |x|^2 and M M^T = |x|^2 I,
    so g^-1 = s (I - M^T M) / 4, d_c g = 4 (d_c (M^T M) - 2 x_c I) / s^2
    + 4 x_c g / s. Horo: g = J^T diag(4 alpha I_m, 1, I_3) J / alpha^2,
    m = d - 4, J the identity with lower rows B, so g^-1 = alpha^2 J^-1
    diag(I_m / (4 alpha), 1, I_3) J^-T, J^-1 the identity less L there;
    d_omega g = d_omega (B^T B) / alpha^2, d_alpha g = 4 P / alpha^2
    - 2 g / alpha, d_beta g = 0."""
    if chart not in (BALL, HORO):
        raise ShapeError(f"metric_jet takes a ball or horo chart, not {chart!r}")
    N0, F, Ft, P = _pairing_tables(chart, n)
    N = N0 + (x @ F).reshape(N0.shape)
    FN = Ft @ N
    dNN = FN + np.swapaxes(FN, 1, 2)
    NN = N.T @ N
    if chart == BALL:
        s = 1.0 - float(x @ x)
        g = (4.0 / (s * s)) * (s * P + NN)
        dg = (4.0 / (s * s)) * (dNN - 2.0 * x[:, None, None] * P)
        return (0.25 * s) * (P - NN), dg + (4.0 / s) * x[:, None, None] * g
    m = len(x) - 4
    alpha = float(x[m])
    a2 = alpha * alpha
    g = NN + (4.0 * alpha) * P
    g[m, m] += 1.0
    g /= a2
    K = P.copy()                           # the omega columns of J^-1
    K[m + 1:, :m] = -N[:, :m]
    dg = dNN / a2
    dg[m] = (4.0 / a2) * P - (2.0 / alpha) * g
    return (0.25 * alpha) * (K @ K.T) + a2 * (np.eye(len(x)) - P), dg


def _siegel_to_horo_jacobian(p: ChartPoint) -> np.ndarray:
    n = p.n
    J = np.zeros((4 * n, 4 * n))
    m = 4 * (n - 1)
    J[:m, :m] = np.eye(m)                      # domega = dzeta'
    # dalpha = 2 d Re(zeta_n) - 2 Re((dzeta', zeta'))
    J[m, :m] = -2.0 * coords_array(p)[:m]
    J[m, m] = 2.0                              # from 2 Re(dzeta_n)
    J[m + 1:, m + 1:] = 2.0 * np.eye(3)        # dbeta = 2 Im(dzeta_n)
    return J


def push_tangent(p: ChartPoint, u: np.ndarray, chart: str) -> tuple[ChartPoint, np.ndarray]:
    """Transport a tangent to another chart by central finite differences."""
    q = convert(p, chart)
    if chart == p.chart:
        return q, np.asarray(u, dtype=float)
    c = coords_array(p)
    h = 1e-6 * (1.0 + float(np.linalg.norm(c)))
    u = np.asarray(u, dtype=float)
    fwd = coords_array(convert(point_from_array(p.chart, c + h * u, p.n), chart))
    bwd = coords_array(convert(point_from_array(p.chart, c - h * u, p.n), chart))
    return q, (fwd - bwd) / (2.0 * h)
