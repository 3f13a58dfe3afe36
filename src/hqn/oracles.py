"""Independent verification oracles.

Nothing here reuses the closed-form volume functionals or ODE
right-hand sides being checked: orbit volumes are rebuilt from Killing
fields of the group action, and mean curvature from finite differences
of the residual and the ambient metric in the chart the point is given
in (ball or horospherical; a Siegel point is moved to the ball).
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from .charts import (
    BALL,
    HORO,
    ChartPoint,
    ball_metric_matrix,
    convert,
    coords_array,
    horo_metric_matrix,
    lift,
    point_from_array,
)
from .errors import DegenerateOrbitError, ShapeError, SingularPointError
from .quaternion import CONJ, hamilton, left_mult_matrix
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
CHRISTOFFEL_STEP = 1e-5    # Richardson steps of the metric's derivatives


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
    """Generator of t -> heisenberg_matrix(n, t q e_slot, 0)."""
    G = np.zeros((n + 1, n + 1, 4))
    G[slot, n - 1] = -q
    G[slot, n] = q
    G[n - 1, slot] = G[n, slot] = q * CONJ
    return G


def _nu_generator(n: int, q: np.ndarray) -> np.ndarray:
    """Generator of t -> heisenberg_matrix(n, 0, t q), q purely imaginary."""
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
    return point_from_array(chart, rows.reshape(rows.shape[:-2] + (-1,)), n)


# ---------------------------------------------------------------------------
# Killing-field volume oracle


def _killing_vectors(basis: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Ball-chart Killing fields of the k algebra elements basis at the
    point with lift X = (x, 1), as (k, 4n) rows, or at each lift of a
    (P, n+1, 4) stack, as (P, k, 4n): x_l = Y_l Y_{n+1}^{-1} along
    Y = exp(tG) X gives v_l = (GX)_l - x_l (GX)_{n+1}.

    Every GX is one product of the flat lifts with the real matrix of
    X -> (GX for each G). A generator's row has at most two nonzero
    entries, each a unit quaternion times 1 or 1/2, so each component of
    GX is one rounding of at most two exact products, in any order."""
    k, size = basis.shape[:2]
    M = left_mult_matrix(basis).transpose(2, 4, 0, 1, 3).reshape(4 * size, -1)
    GX = (X.reshape(X.shape[:-2] + (-1,)) @ M).reshape(X.shape[:-2] + (k, size, 4))
    v = GX[..., :-1, :] - hamilton(X[..., None, :-1, :], GX[..., -1:, :])
    return v.reshape(v.shape[:-2] + (-1,))


@functools.cache
def _complement(case: ReducedCase) -> np.ndarray:
    """(orbit_dim, k) orthonormal weights: the fixed combinations of the
    case's Killing fields that span the orbit at the reference point."""
    X = lift(section_point(case, *_reference_coords(case)))
    K = _killing_vectors(generator_basis(case), X)
    M = K @ np.linalg.cholesky(ball_metric_matrix(X[:-1].ravel(), case.n))
    U, S, _ = np.linalg.svd(M, full_matrices=False)
    dim = 4 * case.n - 2
    if S[dim - 1] / S[0] < 1e-6:
        raise DegenerateOrbitError("generator basis is rank deficient")
    weights = U[:, :dim].T
    weights.flags.writeable = False
    return weights


def _reference_coords(case: ReducedCase) -> tuple[float, float]:
    if case.kind in POLAR_KINDS:
        return 0.5, 0.7
    return 1.0, 0.5


def killing_volume(case: ReducedCase, p: ChartPoint):
    """Orbit volume through p, up to one case constant: the Gram
    determinant of a fixed linear combination of induced Killing fields,
    per point.

    The determinant is the same in every chart, so it is taken in the ball.
    """
    X = lift(p)
    rows = _complement(case) @ _killing_vectors(generator_basis(case), X)
    x = X[..., :-1, :]
    gram = (rows @ ball_metric_matrix(x.reshape(x.shape[:-2] + (-1,)), case.n)
            @ np.swapaxes(rows, -1, -2))
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
    rng = np.random.default_rng(seed)
    if case.kind in POLAR_KINDS:
        lo, hi = (0.2, 0.2), (0.9, 1.2)
    else:
        lo, hi = (0.4, 0.3), (2.0, 1.5)
    c1, c2 = rng.uniform(lo, hi, size=(n_points, 2)).T
    p = section_point(case, c1, c2)
    ratios = killing_volume(case, p) / volume_functional(case, orbit_project(case, p))
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
def _stencil_offsets(dim: int, step: float) -> np.ndarray:
    """The read-only (1 + 2 (2 dim + 2 dim (dim - 1)), dim) offsets of the
    Richardson stencil: 0, then per step h = step / 2 and step, the 2 dim
    axis offsets +-h e_a and the 2 dim (dim - 1) offsets
    (+-h e_a) +- h e_b, a < b."""
    a, b = _upper_pairs(dim)
    rows = [np.full((1, dim), -0.0)]
    for h in (step / 2.0, step):
        P = h * np.eye(dim)
        M = -P
        rows += [P, M, P[a] + P[b], P[a] - P[b], M[a] + P[b], M[a] - P[b]]
    return _frozen(rows)


@functools.cache
def _christoffel_offsets(dim: int) -> np.ndarray:
    """The read-only (1 + 4 dim, dim) offsets 0, +h e_a, -h e_a, +h/2 e_a
    and -h/2 e_a of the metric's difference quotients, h = CHRISTOFFEL_STEP."""
    E = CHRISTOFFEL_STEP * np.eye(dim)
    return _frozen([np.full((1, dim), -0.0), E, -E, E / 2.0, -E / 2.0])


def _christoffel(g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Christoffel symbols from the inverse metric at x and the (4d, d, d)
    metric at the points x +- h e_a, x +- h/2 e_a of _christoffel_offsets
    (after its first row), h = CHRISTOFFEL_STEP: Richardson-extrapolated
    central differences of the metric."""
    d = len(ginv)
    step = CHRISTOFFEL_STEP
    g = g.reshape(4, d, d, d)
    dg = (4.0 * (g[2] - g[3]) / step - (g[0] - g[1]) / (2.0 * step)) / 3.0
    return 0.5 * np.einsum("cd,abd->cab", ginv,
                           dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0))


def _richardson_grad_hess(values: Callable[[np.ndarray], np.ndarray],
                          x: np.ndarray, step: float):
    """Richardson-extrapolated central differences at steps step and
    step / 2, from one call of values on the (k, d) stack of points
    x + _stencil_offsets(d, step): x, then per step the 2d axis points
    x +- h e_a (shared by the gradient and the Hessian diagonal) and the
    2d(d-1) points (x +- h e_a) +- h e_b, a < b. Both steps' differences
    are taken in one pass over a leading axis of 2.
    """
    dim = len(x)
    a, b = _upper_pairs(dim)
    f = values(x + _stencil_offsets(dim, step))
    f0 = f[0]
    fh = f[1:].reshape(2, -1)
    h = np.array([[step / 2.0], [step]])
    fp, fm = fh[:, :2 * dim].reshape(2, 2, dim).swapaxes(0, 1)
    fpp, fpm, fmp, fmm = fh[:, 2 * dim:].reshape(2, 4, -1).swapaxes(0, 1)
    g = (fp - fm) / (2.0 * h)
    H = np.empty((2, dim, dim))
    H[:, a, b] = H[:, b, a] = (fpp - fpm - fmp + fmm) / (4.0 * h ** 2)
    H[:, np.arange(dim), np.arange(dim)] = (fp - 2.0 * f0 + fm) / h ** 2
    return (4.0 * g[0] - g[1]) / 3.0, (4.0 * H[0] - H[1]) / 3.0


def ambient_mean_curvature(surface: Callable[[ChartPoint], np.ndarray],
                           p: ChartPoint) -> float:
    """Trace of the shape operator of the level set {surface = 0} at p.

    The derivatives are taken in the chart p is given in, so a residual
    native to that chart converts nothing; a Siegel point is moved to the
    ball. The stencil is built and checked as one stacked ChartPoint of k
    points, and surface is called once on it; its values must broadcast to
    (k,), or ShapeError is raised. The metric is evaluated once, on the
    stack of p and its Christoffel difference points. The convention gives
    +(2n+1) for the horosphere residual alpha - a with the normal pointing
    toward growing alpha.
    """
    n = p.n
    chart = HORO if p.chart == HORO else BALL
    metric = horo_metric_matrix if chart == HORO else ball_metric_matrix
    x0 = coords_array(convert(p, chart))

    def values(stack):
        f = np.asarray(surface(point_from_array(chart, stack, n)), dtype=float)
        try:
            return np.broadcast_to(f, (len(stack),))
        except ValueError:
            raise ShapeError(f"surface gave shape {f.shape} on a stack of "
                             f"{len(stack)} points") from None

    grad, hess = _richardson_grad_hess(values, x0, CURVATURE_STEP)
    g = metric(x0 + _christoffel_offsets(len(x0)), n)
    ginv = np.linalg.inv(g[0])
    norm2 = float(grad @ ginv @ grad)
    if norm2 < 1e-16:
        raise SingularPointError("degenerate surface gradient")
    gamma = _christoffel(g[1:], ginv)
    hess_cov = hess - np.einsum("cab,c->ab", gamma, grad)
    Nup = ginv @ grad / np.sqrt(norm2)
    proj = ginv - np.outer(Nup, Nup)
    return -float(np.einsum("ab,ab->", proj, hess_cov)) / np.sqrt(norm2)


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
            dev = 0.0
            for col, scale in ((0, r * r), (1, r)):
                va = np.interp(s_common, ca.uniform_s, ca.uniform_states[:, col])
                vb = np.interp(s_common, cb.uniform_s, cb.uniform_states[:, col])
                dev = max(dev, float(np.max(np.abs(vb - scale * va))))
            checks.append({"name": f"dilation a={ca.a} vs a={cb.a}",
                           "value": dev, "bound": tol, "pass": dev < tol})
    return {"checks": checks, "pass": all(c["pass"] for c in checks)}
