"""Independent verification oracles.

Nothing here reuses the closed-form volume functionals or ODE
right-hand sides being checked: orbit volumes are rebuilt from Killing
fields of the group action, and mean curvature from finite differences
of the residual and the metric's closed forms in the chart the point is
given in (ball or horospherical; a Siegel point is moved to the ball).
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from .charts import (
    BALL,
    HORO,
    ChartPoint,
    _ball_pairing,
    _point,
    ball_metric_matrix,
    convert,
    coords_array,
    lift,
    metric_jet,
)
from .errors import DegenerateOrbitError, NotInteriorError, ShapeError, SingularPointError
from .quaternion import CONJ, left_mult_matrix, qnorm2, right_mult_matrix
from .reduction import (
    ELLIPTIC,
    LOXODROMIC,
    PARABOLIC,
    POLAR_KINDS,
    SPECIAL_LOXODROMIC,
    ReducedCase,
    orbit_project,
    uv_from_polar,
    volume_functional,
)

UNITS = np.eye(4)          # 1, i, j, k as component rows
IM_UNITS = UNITS[1:]

CURVATURE_STEP = 1e-3      # Richardson steps of the residual's derivatives


# ---------------------------------------------------------------------------
# Lie algebra generator bases: elements G of sp(n,1), G* I_{n,1} + I_{n,1} G = 0


def _sp_generators(size: int, offset: int, total: int, lorentz: bool = False):
    """Basis of the algebra preserving diag(I_size), or diag(I_{size-1}, -1)
    when lorentz, embedded at diagonal offset."""
    s = np.ones(size)
    if lorentz:
        s[-1] = -1.0
    gens = []
    for l in range(size):
        for q in IM_UNITS:
            G = np.zeros((total, total, 4))
            G[offset + l, offset + l] = q
            gens.append(G)
    for a in range(size):
        for b in range(a + 1, size):
            for q in UNITS:
                G = np.zeros((total, total, 4))
                G[offset + a, offset + b] = q
                G[offset + b, offset + a] = -s[a] * s[b] * q * CONJ
                gens.append(G)
    return gens


def _heis_generator(n: int, slot: int, q: np.ndarray) -> np.ndarray:
    """Generator of t -> heisenberg_matrix(t q e_slot, 0)."""
    G = np.zeros((n + 1, n + 1, 4))
    G[slot, n - 1] = -q
    G[slot, n] = q
    G[n - 1, slot] = G[n, slot] = q * CONJ
    return G


def _nu_generator(n: int, q: np.ndarray) -> np.ndarray:
    """Generator of t -> heisenberg_matrix(0, t q), q purely imaginary."""
    G = np.zeros((n + 1, n + 1, 4))
    G[n - 1, n - 1] = G[n, n - 1] = -0.5 * q
    G[n - 1, n] = G[n, n] = 0.5 * q
    return G


def _transvection_generator(n: int) -> np.ndarray:
    """Generator of t -> transvection_matrix(n, t)."""
    G = np.zeros((n + 1, n + 1, 4))
    G[n - 1, n, 0] = G[n, n - 1, 0] = 1.0
    return G


@functools.cache
def generator_basis(case: ReducedCase) -> np.ndarray:
    """The algebra elements spanning the case's orbit directions, as one
    read-only (k, n+1, n+1, 4) array."""
    n, m = case.n, case.m
    total = n + 1
    if case.kind == ELLIPTIC:
        gens = _sp_generators(m, 0, total) + _sp_generators(n - m, m, total)
    elif case.kind == LOXODROMIC:
        gens = (_sp_generators(n - m, 0, total)
                + _sp_generators(m, n - m + 1, total, lorentz=True))
    elif case.kind == SPECIAL_LOXODROMIC:
        gens = ([_nu_generator(n, IM_UNITS[0]), _nu_generator(n, IM_UNITS[1]),
                 _transvection_generator(n)]
                + _sp_generators(n - 1, 0, total))
    elif case.kind == PARABOLIC:
        gens = ([_heis_generator(n, slot, q) for slot in range(n - m, n - 1) for q in UNITS]
                + [_nu_generator(n, q) for q in IM_UNITS]
                + _sp_generators(n - m, 0, total))
    else:
        gens = ([_heis_generator(n, slot, q) for slot in range(n - 2) for q in UNITS]
                + [_heis_generator(n, n - 2, q) for q in IM_UNITS]
                + [_nu_generator(n, q) for q in IM_UNITS])
    basis = np.array(gens)
    basis.flags.writeable = False
    return basis


def section_point(case: ReducedCase, c1, c2) -> ChartPoint:
    """The point of the case's plane section over the orbit coordinates
    (c1, c2) that orbit_project returns; over equal-shape (k,) arrays of
    them, the stack of k points. A ball case's section is the disc of
    (u, v) = uv_from_polar(r, theta)."""
    n, m = case.n, case.m
    rows = np.zeros(np.shape(c1) + (n, 4))
    chart = BALL
    if case.kind in POLAR_KINDS:
        u, v = uv_from_polar(c1, c2)
    if case.kind == ELLIPTIC:
        rows[..., m - 1, 0], rows[..., n - 1, 0] = u, v
    elif case.kind == LOXODROMIC:
        rows[..., n - m - 1, 0], rows[..., n - m, 0] = v, u
    elif case.kind == SPECIAL_LOXODROMIC:
        rows[..., n - 2, 3], rows[..., n - 1, 3] = v, u
    else:
        chart = HORO
        rows[..., n - m - 1 if case.kind == PARABOLIC else n - 2, 0] = c2
        rows[..., n - 1, 0] = c1           # alpha
    return _point(chart, rows)


# ---------------------------------------------------------------------------
# Killing-field volume oracle


def _killing_vectors(basis: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Ball-chart Killing fields of the k algebra elements basis at the
    point with lift X = (x, 1), as (k, 4n) rows, or at each lift of a
    (P, n+1, 4) stack, as (P, k, 4n): x_l = Y_l Y_{n+1}^{-1} along
    Y = exp(tG) X gives v_l = (GX)_l - x_l (GX)_{n+1}.

    Per lift, (GX)_a = sum_b R(X_b) G_ab for every G is one
    (k(n+1), 4(n+1)) @ (4(n+1), 4) product with the stacked transposed
    right_mult_matrix(X), and x_l (GX)_{n+1} one (4n, 4) @ (4, k) product
    with left_mult_matrix(x): a stack runs the same products per lift, so
    it gives each lift's bits."""
    k, size = basis.shape[:2]
    lead = X.shape[:-2]
    RT = np.swapaxes(right_mult_matrix(X), -1, -2).reshape(lead + (4 * size, 4))
    GX = (basis.reshape(k * size, 4 * size) @ RT).reshape(lead + (k, size, 4))
    xw = (left_mult_matrix(X[..., :-1, :]).reshape(lead + (4 * size - 4, 4))
          @ np.swapaxes(GX[..., -1, :], -1, -2))
    return GX[..., :-1, :].reshape(lead + (k, -1)) - np.swapaxes(xw, -1, -2)


def _complement(case: ReducedCase) -> np.ndarray:
    """(orbit_dim, k) orthonormal weights: the fixed combinations of the
    case's Killing fields that span the orbit at the reference point."""
    X = lift(section_point(case, *_reference_coords(case)))
    K = _killing_vectors(generator_basis(case), X)
    M = K @ np.linalg.cholesky(ball_metric_matrix(X[:-1].ravel()))
    U, S, _ = np.linalg.svd(M, full_matrices=False)
    dim = 4 * case.n - 2
    if S[dim - 1] / S[0] < 1e-6:
        raise DegenerateOrbitError("generator basis is rank deficient")
    return U[:, :dim].T


@functools.cache
def _orbit_basis(case: ReducedCase) -> np.ndarray:
    """The read-only (orbit_dim, n+1, n+1, 4) algebra elements
    _complement(case) @ generator_basis(case), whose Killing fields are the
    complement's combinations of the case's: G -> v is linear."""
    basis = np.tensordot(_complement(case), generator_basis(case), 1)
    basis.flags.writeable = False
    return basis


def _reference_coords(case: ReducedCase) -> tuple[float, float]:
    if case.kind in POLAR_KINDS:
        return 0.5, 0.7
    return 1.0, 0.5


def killing_volume(case: ReducedCase, p: ChartPoint):
    """Orbit volume through p, up to one case constant: the Gram
    determinant of a fixed linear combination of induced Killing fields,
    per point.

    The determinant is the same in every chart, so it is taken in the
    ball: with its metric 4 (s I + M^T M) / s^2, s = 1 - |x|^2 and M the
    pairing dx -> (dx, x), the fields' rows R have the Gram
    4 (s R R^T + (R M^T)(R M^T)^T) / s^2.
    """
    X = lift(p)
    rows = _killing_vectors(_orbit_basis(case), X)
    x = X[..., :-1, :].reshape(X.shape[:-2] + (-1,))
    s = (1.0 - qnorm2(x))[..., None, None]
    if (s <= 0.0).any():
        raise NotInteriorError("ball metric needs |x| < 1")
    RM = rows @ np.swapaxes(_ball_pairing(x), -1, -2)
    gram = 4.0 * (s * (rows @ np.swapaxes(rows, -1, -2))
                  + RM @ np.swapaxes(RM, -1, -2)) / s ** 2
    det = np.linalg.det(gram)
    if (det <= 0.0).any():
        raise DegenerateOrbitError("orbit through p is degenerate")
    return np.sqrt(det)


def killing_ratio_spread(case: ReducedCase, n_points: int = 50,
                         seed: int = 0) -> float:
    """Relative spread of killing_volume / volume_functional over random
    section-interior points; small spread validates the closed form.

    The points are drawn as (c1, c2) pairs, and every step runs once on
    their stack."""
    return _ratio_spread(case, volume_functional, n_points, seed)


def uncubed_bracket_spread(n: int) -> float:
    """The control of killing_ratio_spread: the special-loxodromic spread
    at 20 points (seed 0) against V / bracket^2, whose bracket
    cosh^2 r + sinh^2 r cos^2 theta is not cubed. The oracle tells the two
    apart only if this spread is large."""
    def uncubed(case, point):
        r, theta = point
        bracket = np.cosh(r) ** 2 + (np.sinh(r) * np.cos(theta)) ** 2
        return volume_functional(case, point) / bracket ** 2

    return _ratio_spread(ReducedCase(SPECIAL_LOXODROMIC, n), uncubed, 20, 0)


def _ratio_spread(case: ReducedCase, functional: Callable, n_points: int,
                  seed: int) -> float:
    rng = np.random.default_rng(seed)
    if case.kind in POLAR_KINDS:
        lo, hi = (0.2, 0.2), (0.9, 1.2)
    else:
        lo, hi = (0.4, 0.3), (2.0, 1.5)
    c1, c2 = rng.uniform(lo, hi, size=(n_points, 2)).T
    p = section_point(case, c1, c2)
    ratios = killing_volume(case, p) / functional(case, orbit_project(case, p))
    return float((ratios.max() - ratios.min()) / np.mean(ratios))


# ---------------------------------------------------------------------------
# ambient mean curvature oracle


@functools.cache
def _upper_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only index pair (a, b), a < b, of a dim x dim upper triangle."""
    pairs = np.triu_indices(dim, 1)
    for idx in pairs:
        idx.setflags(write=False)
    return pairs


def _frozen(rows: list) -> np.ndarray:
    table = np.concatenate(rows)
    table.flags.writeable = False
    return table


# x + table gives the bits of the sums x +- h e_a and (x +- h e_a) +- h e_b
# that define the points: each entry is one rounding. A table's first row
# is -0.0, the additive identity of IEEE arithmetic (x + -0.0 is x, -0.0
# included). A coordinate that does not move gets +0.0 where those sums add
# a +0.0 to it, and -0.0 where they only subtract zeros.


@functools.cache
def _stencil_offsets(dim: int) -> np.ndarray:
    """The read-only (1 + 2 (2 dim + 2 dim (dim - 1)), dim) offsets of the
    Richardson stencil: 0, then per step h = step / 2 and step, with step
    = CURVATURE_STEP, the 2 dim axis offsets +-h e_a and the 2 dim (dim - 1)
    offsets (+-h e_a) +- h e_b, a < b."""
    a, b = _upper_pairs(dim)
    rows = [np.full((1, dim), -0.0)]
    for h in (CURVATURE_STEP / 2.0, CURVATURE_STEP):
        P = h * np.eye(dim)
        M = -P
        rows += [P, M, P[a] + P[b], P[a] - P[b], M[a] + P[b], M[a] - P[b]]
    return _frozen(rows)


def _richardson_grad_hess(values: Callable[[np.ndarray], np.ndarray], x: np.ndarray):
    """Richardson-extrapolated central differences at steps CURVATURE_STEP
    and CURVATURE_STEP / 2, from one call of values on the (k, d) stack
    x + _stencil_offsets(d): x, then per step the 2d axis points
    x +- h e_a (shared by the gradient and the Hessian diagonal) and the
    2d(d-1) points (x +- h e_a) +- h e_b, a < b. Both steps' differences
    are taken in one pass over a leading axis of 2. ambient_mean_curvature
    takes the same differences as the rows of _grad_hess_weights, whose
    reference this is.
    """
    dim = len(x)
    a, b = _upper_pairs(dim)
    f = values(x + _stencil_offsets(dim))
    f0 = f[0]
    fh = f[1:].reshape(2, -1)
    h = np.array([[CURVATURE_STEP / 2.0], [CURVATURE_STEP]])
    fp, fm = fh[:, :2 * dim].reshape(2, 2, dim).swapaxes(0, 1)
    fpp, fpm, fmp, fmm = fh[:, 2 * dim:].reshape(2, 4, -1).swapaxes(0, 1)
    g = (fp - fm) / (2.0 * h)
    H = np.empty((2, dim, dim))
    H[:, a, b] = H[:, b, a] = (fpp - fpm - fmp + fmm) / (4.0 * h ** 2)
    H[:, np.arange(dim), np.arange(dim)] = (fp - 2.0 * f0 + fm) / h ** 2
    return (4.0 * g[0] - g[1]) / 3.0, (4.0 * H[0] - H[1]) / 3.0


@functools.cache
def _grad_hess_weights(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The linear map from the k values f of the stencil x +
    _stencil_offsets(dim) to the gradient and the flattened Hessian
    of _richardson_grad_hess, row by row: read-only (dim + dim^2, 8)
    stencil indices and integer weights, zero-padded, and a read-only
    scale per row, so that the derivatives are
    scale * (weights * f[index]).sum(axis=1).

    With step = CURVATURE_STEP, p, m the points x +- h e_a and pp, pm, mp,
    mm the points (x +- h e_a) +- h e_b at h = step / 2, and P, M, PP, PM,
    MP, MM the same at h = step, the rows are
      gradient a:   (8 p - 8 m - P + M) / (6 step),
      Hessian aa:   (16 p + 16 m - 30 f(x) - P - M) / (3 step^2),
      Hessian ab:   (16 (pp - pm - mp + mm) - (PP - PM - MP + MM)) / (12 step^2).
    Every product with f but -30 f(x) is exact, so the map rounds about
    where the differences do; a map of the unscaled weights would round
    every product at its size |f| / step^2. At n = 4 (dim 16) the map has
    2176 terms, where the dense (dim + dim^2, k) matrix has 278 800.
    """
    a, b = _upper_pairs(dim)
    pairs = len(a)

    def points(first):
        # P, M, PP, PM, MP, MM of one step, whose block starts at first
        axis, pair = first + np.arange(dim), first + 2 * dim + np.arange(pairs)
        return axis, axis + dim, pair, pair + pairs, pair + 2 * pairs, pair + 3 * pairs

    p, m, pp, pm, mp, mm = points(1)
    P, M, PP, PM, MP, MM = points(1 + 2 * dim + 4 * pairs)
    index = np.zeros((dim + dim * dim, 8), dtype=np.intp)
    weights = np.zeros((dim + dim * dim, 8))
    index[:dim, :4] = np.stack([p, m, P, M], axis=1)
    weights[:dim, :4] = (8.0, -8.0, -1.0, 1.0)
    diag = dim + (dim + 1) * np.arange(dim)
    index[diag, :5] = np.stack([p, m, np.zeros(dim, dtype=np.intp), P, M], axis=1)
    weights[diag, :5] = (16.0, 16.0, -30.0, -1.0, -1.0)
    for rows in (dim + dim * a + b, dim + dim * b + a):
        index[rows] = np.stack([pp, pm, mp, mm, PP, PM, MP, MM], axis=1)
        weights[rows] = (16.0, -16.0, -16.0, 16.0, -1.0, 1.0, 1.0, -1.0)
    scale = np.concatenate([np.full(dim, 1.0 / (6.0 * CURVATURE_STEP)),
                            np.where(np.eye(dim, dtype=bool), 1.0 / (3.0 * CURVATURE_STEP ** 2),
                                     1.0 / (12.0 * CURVATURE_STEP ** 2)).ravel()])
    for table in (index, weights, scale):
        table.flags.writeable = False
    return index, weights, scale


def _christoffel_contraction(dg: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_c Gamma^c_ab d_c f from the (d, d, d) metric derivative
    dg[c] = d_c g and u = g^-1 df, without forming Gamma: the sum is
    (A + A^T - B) / 2 with A = dg u and B_ab = sum_c u_c dg[c]_ab.
    """
    d = len(u)
    A = dg @ u
    B = (u @ dg.reshape(d, d * d)).reshape(d, d)
    return 0.5 * (A + A.T - B)


def ambient_mean_curvature(surface: Callable[[ChartPoint], np.ndarray],
                           p: ChartPoint) -> float:
    """Trace of the shape operator of the level set {surface = 0} at p.

    The derivatives are taken in the chart p is given in, so a residual
    native to that chart converts nothing; a Siegel point is moved to the
    ball. The stencil is built as one fresh (k, d) array, checked and
    frozen in place as one stacked ChartPoint of k points (charts._point,
    with no second copy), and surface is called once on it; its values
    must broadcast to (k,), or ShapeError is raised. The convention gives
    +(2n+1) for the horosphere residual alpha - a with the normal pointing
    toward growing alpha.

    The gradient and Hessian of f are one weighted sum of the sampled
    values over the cached rows of _grad_hess_weights: d + d^2 rows of 8
    stencil values, 10 KB of tables at n = 2 and 37 KB at n = 4. The
    metric's inverse and derivative at p are closed forms
    (charts.metric_jet), and the derivative is contracted with u = g^-1 df
    (_christoffel_contraction) without forming the d^3 Christoffel symbols:
    H = -<g^-1 - u u^T / |df|^2, Hess f - sum_c Gamma^c d_c f> / |df|.
    """
    n = p.n
    chart = HORO if p.chart == HORO else BALL
    x0 = coords_array(convert(p, chart))
    d = len(x0)
    stack = x0 + _stencil_offsets(d)
    k = len(stack)
    f = np.asarray(surface(_point(chart, stack.reshape(k, n, 4))), dtype=float)
    if f.shape != (k,):
        try:
            f = np.broadcast_to(f, (k,))
        except ValueError:
            raise ShapeError(f"surface gave shape {f.shape} on a stack of "
                             f"{k} points") from None
    index, weights, scale = _grad_hess_weights(d)
    grad_hess = scale * (weights * f[index]).sum(axis=1)
    grad, hess = grad_hess[:d], grad_hess[d:].reshape(d, d)
    ginv, dg = metric_jet(chart, x0)
    u = ginv @ grad
    norm2 = float(grad @ u)
    if norm2 < 1e-16:
        raise SingularPointError("degenerate surface gradient")
    hess_cov = hess - _christoffel_contraction(dg, u)
    proj = ginv - u[:, None] * u / norm2
    return -float(np.vdot(proj, hess_cov)) / np.sqrt(norm2)


# ---------------------------------------------------------------------------
# reduced-system checks


def foliation_certificate(case: ReducedCase, curves: Sequence,
                          q_grid: Sequence[float], tol: float = 1e-4) -> dict:
    """Certify the parabolic family foliates the orbit space.

    Each curve must cross each parabola alpha = q^2 rho^2 exactly once,
    and any two curves must be dilation images of one another. The report
    lists every check, failing ones included.
    """
    if case.kind != PARABOLIC:
        raise ShapeError("foliation certificate applies to the parabolic case")
    checks = []
    for curve in curves:
        al, rho = curve.uniform_states[:, 0], curve.uniform_states[:, 1]
        for q in q_grid:
            vals = al - q * q * rho * rho
            crossings = int(np.count_nonzero(np.diff(np.sign(vals)) != 0))
            checks.append({"name": f"crossings a={curve.a} q={q}",
                           "value": crossings, "bound": 1, "pass": crossings == 1})
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            ca, cb = curves[i], curves[j]
            if cb.a < ca.a:
                ca, cb = cb, ca
            r = np.sqrt(cb.a / ca.a)
            s_hi = 0.999 * min(ca.uniform_s[-1], cb.uniform_s[-1])
            s_common = np.linspace(max(ca.uniform_s[0], cb.uniform_s[0]),
                                   s_hi, 200)
            va, vb = (np.array([np.interp(s_common, c.uniform_s, c.uniform_states[:, col])
                                for col in (0, 1)]) for c in (ca, cb))
            # one max over both columns: a NaN in either fails the check
            dev = float(np.max(np.abs(vb - [[r * r], [r]] * va)))
            checks.append({"name": f"dilation a={ca.a} vs a={cb.a}",
                           "value": dev, "bound": tol, "pass": dev < tol})
    return {"checks": checks, "pass": all(c["pass"] for c in checks)}
