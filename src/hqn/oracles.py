"""Independent verification oracles.

Nothing here reuses the closed-form volume functionals or ODE
right-hand sides being checked: orbit volumes are rebuilt from Killing
fields of the group action, mean curvature from finite differences of
the ambient metric, and curve quality from an independent
discretization of the reduced systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .charts import (
    BALL,
    HORO,
    ChartPoint,
    ball_metric_matrix,
    convert,
    coords_array,
    metric_matrix,
    point_from_array,
)
from .errors import (
    CertificateFailure,
    DegenerateOrbitError,
    ShapeError,
    SingularPointError,
)
from .integrator import residual_column
from .isometries import (
    Isometry,
    act,
    heisenberg_matrix,
    qmat_expm,
    transvection_matrix,
)
from .quaternion import CONJ
from .reduction import (
    ELLIPTIC,
    LOXODROMIC,
    PARABOLIC,
    POLAR_KINDS,
    SPECIAL_LOXODROMIC,
    SPECIAL_PARABOLIC,
    PhaseState,
    ReducedCase,
    first_integral_values,
    orbit_project,
    volume_functional,
)

FD_STEP = 1e-5

UNITS = np.eye(4)          # 1, i, j, k as component rows
IM_UNITS = UNITS[1:]


# ---------------------------------------------------------------------------
# Lie algebra generator bases


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


def _matrix_gen(G):
    return lambda t, G=G: Isometry(qmat_expm(t * G))


def _heis_gen(n, slot, q):
    xi = np.zeros((n - 1, 4))
    xi[slot] = q
    return lambda t: heisenberg_matrix(n, t * xi, np.zeros(4))


def _nu_gen(n, q):
    return lambda t: heisenberg_matrix(n, np.zeros((n - 1, 4)), t * q)


@dataclass(frozen=True)
class GeneratorBasis:
    """One-parameter subgroup samplers spanning the orbit directions."""

    case: ReducedCase
    generators: tuple


_BASES: dict = {}


def generator_basis(case: ReducedCase) -> GeneratorBasis:
    """The case's samplers, built once per (kind, n, m)."""
    key = (case.kind, case.n, case.m)
    if key not in _BASES:
        _BASES[key] = GeneratorBasis(case, tuple(_generators(case)))
    return _BASES[key]


def _generators(case: ReducedCase) -> list:
    n, m = case.n, case.m
    total = n + 1
    if case.kind == ELLIPTIC:
        return [_matrix_gen(G) for G in _sp_generators(m, 0, total)
                + _sp_generators(n - m, m, total)]
    if case.kind == LOXODROMIC:
        return [_matrix_gen(G) for G in _sp_generators(n - m, 0, total)
                + _sp_generators(m, n - m + 1, total, lorentz=True)]
    if case.kind == SPECIAL_LOXODROMIC:
        return ([_nu_gen(n, IM_UNITS[0]), _nu_gen(n, IM_UNITS[1]),
                 lambda t: transvection_matrix(n, t)]
                + [_matrix_gen(G) for G in _sp_generators(n - 1, 0, total)])
    if case.kind == PARABOLIC:
        return ([_heis_gen(n, slot, q) for slot in range(n - m, n - 1) for q in UNITS]
                + [_nu_gen(n, q) for q in IM_UNITS]
                + [_matrix_gen(G) for G in _sp_generators(n - m, 0, total)])
    return ([_heis_gen(n, slot, q) for slot in range(n - 2) for q in UNITS]
            + [_heis_gen(n, n - 2, q) for q in IM_UNITS]
            + [_nu_gen(n, q) for q in IM_UNITS])


def section_point(case: ReducedCase, c1: float, c2: float) -> ChartPoint:
    """The point of the case's plane section over orbit coordinates."""
    n, m = case.n, case.m
    rows = np.zeros((n, 4))
    chart = BALL
    if case.kind == ELLIPTIC:
        rows[m - 1, 0], rows[n - 1, 0] = c1, c2
    elif case.kind == LOXODROMIC:
        rows[n - m - 1, 0], rows[n - m, 0] = c2, c1
    elif case.kind == SPECIAL_LOXODROMIC:
        rows[n - 2, 3], rows[n - 1, 3] = c2, c1
    else:
        chart = HORO
        rows[n - m - 1 if case.kind == PARABOLIC else n - 2, 0] = c2
        rows[n - 1, 0] = c1           # alpha
    return point_from_array(chart, rows.ravel(), n)


# ---------------------------------------------------------------------------
# Killing-field volume oracle


def _killing_vectors(basis: GeneratorBasis, p: ChartPoint) -> np.ndarray:
    c = coords_array(p)
    delta = FD_STEP * (1.0 + float(np.linalg.norm(c)))
    rows = []
    for mk in basis.generators:
        fwd = coords_array(act(mk(delta), p))
        bwd = coords_array(act(mk(-delta), p))
        rows.append((fwd - bwd) / (2.0 * delta))
    return np.array(rows)


@dataclass
class _KillingComplement:
    weights: np.ndarray   # (orbit_dim, n_generators)


_COMPLEMENTS: dict = {}


def _complement(case: ReducedCase, basis: GeneratorBasis) -> _KillingComplement:
    key = (case.kind, case.n, case.m)
    if key in _COMPLEMENTS:
        return _COMPLEMENTS[key]
    ref = section_point(case, *_reference_coords(case))
    K = _killing_vectors(basis, ref)
    g = metric_matrix(ref)
    L = np.linalg.cholesky(g)
    M = K @ L
    U, S, _ = np.linalg.svd(M, full_matrices=False)
    dim = 4 * case.n - 2
    if S[dim - 1] / S[0] < 1e-6:
        raise DegenerateOrbitError("generator basis is rank deficient")
    comp = _KillingComplement(U[:, :dim].T)
    _COMPLEMENTS[key] = comp
    return comp


def _reference_coords(case: ReducedCase) -> tuple[float, float]:
    if case.kind in POLAR_KINDS:
        return 0.35, 0.3
    return 1.0, 0.5


def killing_volume(case: ReducedCase, p: ChartPoint) -> float:
    """Orbit volume through p, up to one case constant: the Gram
    determinant of a fixed linear combination of induced Killing fields.
    """
    basis = generator_basis(case)
    comp = _complement(case, basis)
    K = _killing_vectors(basis, p)
    rows = comp.weights @ K
    gram = rows @ metric_matrix(p) @ rows.T
    det = float(np.linalg.det(gram))
    if det <= 0.0:
        raise DegenerateOrbitError("orbit through p is degenerate")
    return float(np.sqrt(det))


def killing_ratio_spread(case: ReducedCase, n_points: int = 50,
                         seed: int = 0) -> float:
    """Relative spread of killing_volume / volume_functional over random
    section-interior points; small spread validates the closed form."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(n_points):
        if case.kind in POLAR_KINDS:
            c1 = float(rng.uniform(0.15, 0.6))
            c2 = float(rng.uniform(0.1, 0.5))
        else:
            c1 = float(rng.uniform(0.4, 2.0))
            c2 = float(rng.uniform(0.3, 1.5))
        p = section_point(case, c1, c2)
        uv = orbit_project(case, p)
        kv = killing_volume(case, p)
        vf = volume_functional(case, uv)
        ratios.append(kv / vf)
    ratios = np.array(ratios)
    return float((ratios.max() - ratios.min()) / np.mean(ratios))


# ---------------------------------------------------------------------------
# ambient mean curvature oracle


def _christoffel(x: np.ndarray, n: int, step: float = 1e-5) -> np.ndarray:
    E = step * np.eye(4 * n)
    dg = (ball_metric_matrix(x + E, n) - ball_metric_matrix(x - E, n)) / (2.0 * step)
    ginv = np.linalg.inv(ball_metric_matrix(x, n))
    return 0.5 * np.einsum("cd,abd->cab", ginv,
                           dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0))


def _richardson_grad_hess(f: Callable[[np.ndarray], float], x: np.ndarray,
                          step: float):
    dim = len(x)

    def grad(h):
        return np.array([(f(x + e) - f(x - e)) / (2.0 * h)
                         for e in h * np.eye(dim)])

    def hess(h):
        E = h * np.eye(dim)
        H = np.empty((dim, dim))
        f0 = f(x)
        for a in range(dim):
            ea = E[a]
            H[a, a] = (f(x + ea) - 2.0 * f0 + f(x - ea)) / h ** 2
            for b in range(a + 1, dim):
                eb = E[b]
                H[a, b] = H[b, a] = (f(x + ea + eb) - f(x + ea - eb)
                                     - f(x - ea + eb) + f(x - ea - eb)) / (4.0 * h ** 2)
        return H

    g = (4.0 * grad(step / 2.0) - grad(step)) / 3.0
    H = (4.0 * hess(step / 2.0) - hess(step)) / 3.0
    return g, H


def ambient_mean_curvature(surface: Callable[[ChartPoint], float],
                           p: ChartPoint, step: float = 1e-3) -> float:
    """Trace of the shape operator of the level set {surface = 0} at p.

    The convention gives +(2n+1) for the horosphere residual alpha - a
    with the normal pointing toward growing alpha.
    """
    n = p.n
    x0 = coords_array(convert(p, BALL))

    def f(arr):
        return float(surface(point_from_array(BALL, arr, n)))

    grad, hess = _richardson_grad_hess(f, x0, step)
    g = ball_metric_matrix(x0, n)
    ginv = np.linalg.inv(g)
    norm2 = float(grad @ ginv @ grad)
    if norm2 < 1e-16:
        raise SingularPointError("degenerate surface gradient")
    gamma = _christoffel(x0, n)
    hess_cov = hess - np.einsum("cab,c->ab", gamma, grad)
    Nup = ginv @ grad / np.sqrt(norm2)
    proj = ginv - np.outer(Nup, Nup)
    return -float(np.einsum("ab,ab->", proj, hess_cov)) / np.sqrt(norm2)


# ---------------------------------------------------------------------------
# reduced-system checks


def first_integrals(case: ReducedCase, state: PhaseState) -> dict:
    """All semi/first integrals applicable to the case at the state."""
    return first_integral_values(case, state)


def ode_residual(curve) -> float:
    """Independent discretization check: max over interior uniform
    samples of |central difference - right-hand side|."""
    if len(curve.uniform_s) < 5:
        raise ShapeError("need at least 5 uniform samples")
    return float(np.max(residual_column(curve.case, curve.h, curve.uniform_s,
                                        curve.uniform_states)))


def foliation_certificate(case: ReducedCase, curves: Sequence,
                          q_grid: Sequence[float], tol: float = 1e-4) -> dict:
    """Certify the parabolic family foliates the orbit space.

    Each curve must cross each parabola alpha = q^2 rho^2 exactly once,
    and any two curves must be dilation images of one another.
    """
    if case.kind != PARABOLIC:
        raise ShapeError("foliation certificate applies to the parabolic case")
    checks = []
    for curve in curves:
        al, rho = curve.uniform_states[:, 0], curve.uniform_states[:, 1]
        for q in q_grid:
            vals = al - q * q * rho * rho
            crossings = int(np.count_nonzero(np.diff(np.sign(vals)) != 0))
            ok = crossings == 1
            checks.append({"name": f"crossings a={curve.a} q={q}",
                           "value": crossings, "bound": 1, "pass": ok})
            if not ok:
                raise CertificateFailure(
                    f"curve a={curve.a} crosses q={q} parabola {crossings} times")
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
            ok = dev < tol
            checks.append({"name": f"dilation a={ca.a} vs a={cb.a}",
                           "value": dev, "bound": tol, "pass": ok})
            if not ok:
                raise CertificateFailure(
                    f"curves a={ca.a}, a={cb.a} are not dilation images")
    return {"checks": checks, "pass": all(c["pass"] for c in checks)}
