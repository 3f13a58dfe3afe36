"""Cohomogeneity-two reductions of the minimal hypersurface equation.

Five group actions reduce the mean-curvature-h equation to a three
dimensional ODE system for (c1, c2, sigma) on a two dimensional orbit
space: two compact-stabilizer actions on the ball ("elliptic" and
"loxodromic"), the stabilizer of a bisector ("special-loxodromic"),
and two parabolic actions in horospherical coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .charts import BALL, HORO, ChartPoint, convert
from .isometries import (
    Isometry,
    heisenberg_matrix,
    qmat_identity,
    random_lorentz_sp,
    random_sp,
    rotation_matrix,
    transvection_matrix,
)
from .quaternion import UNIT, norm2
from .errors import (
    DomainError,
    NoSingularStratumError,
    ShapeError,
    SingularBoundaryError,
)

ELLIPTIC = "elliptic"
LOXODROMIC = "loxodromic"
SPECIAL_LOXODROMIC = "special-loxodromic"
PARABOLIC = "parabolic"
SPECIAL_PARABOLIC = "special-parabolic"

POLAR_KINDS = (ELLIPTIC, LOXODROMIC, SPECIAL_LOXODROMIC)
PARABOLIC_KINDS = (PARABOLIC, SPECIAL_PARABOLIC)
ALL_KINDS = POLAR_KINDS + PARABOLIC_KINDS


@dataclass(frozen=True)
class ReducedCase:
    """One of the five reductions, with its integer parameters."""

    kind: str
    n: int
    m: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ShapeError(f"unknown case kind {self.kind!r}")
        if self.n < 2:
            raise DomainError("need n >= 2")
        if self.kind in (SPECIAL_LOXODROMIC, SPECIAL_PARABOLIC):
            if self.m is not None:
                raise DomainError("special cases take no m")
            return
        lo = 2 if self.kind == LOXODROMIC else 1
        if self.m is None or not (lo <= self.m <= self.n - 1):
            raise DomainError(f"{self.kind} case needs an m with {lo} <= m <= n-1")

    @property
    def exponents(self) -> tuple[int, int, int, int]:
        """(A, B, C, D) of the polar volume functional."""
        n, m = self.n, self.m
        if self.kind == ELLIPTIC:
            return (4 * n - 5, 3, 4 * n - 8 * m, 4 * m - 1)
        if self.kind == LOXODROMIC:
            return (4 * n - 8 * m + 3, 4 * m - 1, 4 * n - 4 * m - 4, 3)
        raise ShapeError("exponents defined for elliptic/loxodromic only")


@dataclass(frozen=True)
class PhaseState:
    """(c1, c2, sigma): c1 = r or alpha, c2 = theta or rho, sigma the
    angle from the first coordinate direction of the orbital frame."""

    c1: float
    c2: float
    sigma: float


# ---------------------------------------------------------------------------
# coordinates on the orbit space


def uv_from_polar(r, theta):
    """The point (u, v) = tanh(r) (cos theta, sin theta) of the unit disc;
    equal-shape arrays give arrays."""
    t = np.tanh(r)
    return t * np.cos(theta), t * np.sin(theta)


# ---------------------------------------------------------------------------
# orbit projections


def orbit_project(case: ReducedCase, p: ChartPoint) -> tuple:
    """Project a point to the case's ODE coordinates on the orbit space:
    (r, theta) for the three ball cases, (alpha, rho) for the parabolic
    ones. One point gives two numpy scalars, a stack two arrays."""
    n, m = case.n, case.m
    if case.kind in PARABOLIC_KINDS:
        q = convert(p, HORO)
        if case.kind == PARABOLIC:
            rho = np.sqrt(norm2(q.omega[..., :n - m, :]))
        else:
            rho = q.omega[..., -1, 0][()]
        return q.alpha, rho
    # the ball cases first find the disc point (u, v) = tanh(r) e^{i theta}
    x = convert(p, BALL).rows
    sq = np.sum(x * x, axis=-1)           # |x_l|^2
    if case.kind == ELLIPTIC:
        u = np.sqrt(np.sum(sq[..., :m], axis=-1))
        v = np.sqrt(np.sum(sq[..., m:], axis=-1))
    elif case.kind == LOXODROMIC:
        den = np.sqrt(1.0 - np.sum(sq[..., n - m + 1:], axis=-1))
        u = np.sqrt(sq[..., n - m]) / den
        v = np.sqrt(np.sum(sq[..., :n - m], axis=-1)) / den
    else:   # special loxodromic
        x0, x1, x2, x3 = (x[..., -1, i] for i in range(4))
        r2 = sq[..., -1]
        disc = ((1.0 - 2.0 * x0 + r2) * (1.0 + 2.0 * x0 + r2)
                - 4.0 * x1 ** 2 - 4.0 * x2 ** 2)
        den = 1.0 - r2 + np.sqrt(np.maximum(disc, 0.0))
        u = 2.0 * x3 / den
        v = np.sqrt(2.0) * np.sqrt(np.sum(sq[..., :n - 1], axis=-1)) / np.sqrt(den)
    return np.arctanh(np.hypot(u, v)), np.arctan2(v, u)


# ---------------------------------------------------------------------------
# orbital metric


def orbital_metric(case: ReducedCase, point, u, v) -> float:
    """Evaluate the orbit-space metric on tangents u, v at the point.

    The three ball cases carry the curvature -1/4 metric
    4(dr^2 + sinh^2 r dtheta^2); the parabolic cases carry
    (dalpha^2 + 4 alpha drho^2) / alpha^2.
    """
    c1 = float(point[0])
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (2,) or v.shape != (2,):
        raise ShapeError("orbit-space tangents have two components")
    if case.kind in PARABOLIC_KINDS:
        if c1 <= 0.0:
            raise DomainError("alpha must be positive")
        g = np.array([[1.0, 0.0], [0.0, 4.0 * c1]]) / c1 ** 2
    else:
        if c1 < 0.0:
            raise DomainError("polar radius must be nonnegative")
        g = 4.0 * np.array([[1.0, 0.0], [0.0, np.sinh(c1) ** 2]])
    return float(u @ g @ v)


# ---------------------------------------------------------------------------
# volume functionals


def volume_functional(case: ReducedCase, point):
    """Volume of the orbit over the orbit-space point (c1, c2) of the
    case's ODE coordinates.

    Normalized per case (global constants drop out of the ODEs). The
    two coordinates may be equal-shape arrays.
    """
    n, m = case.n, case.m
    c1, c2 = point
    if case.kind == PARABOLIC:
        return c1 ** (-(4 * n + 1) / 2.0) * c2 ** (4 * n - 4 * m - 1)
    if case.kind == SPECIAL_PARABOLIC:
        return c1 ** (-(4 * n + 1) / 2.0)
    r, theta = c1, c2
    if case.kind == SPECIAL_LOXODROMIC:
        bracket = np.cosh(r) ** 2 + (np.sinh(r) * np.cos(theta)) ** 2
        return bracket ** 3 * np.sinh(r) ** (4 * n - 5) * np.sin(theta) ** (4 * n - 5)
    A, B, C, D = case.exponents
    # combined form 2^D sin^{C+D} cos^D avoids 0^negative when C <= 0
    return (np.sinh(r) ** A * np.sinh(2.0 * r) ** B * 2.0 ** D
            * np.sin(theta) ** (C + D) * np.cos(theta) ** D)


def _polar_slopes(case: ReducedCase) -> Callable[[float, float], tuple[float, float]]:
    """The closed-form (P, Q) coefficients of the polar ODE as a float
    function of (c1, c2), with the case's constants bound once: P is
    (1/2) d(ln V)/d theta, Q is (1/2)(d(ln V)/dr + coth r)."""
    cos, sin, sinh, tan, tanh = math.cos, math.sin, math.sinh, math.tan, math.tanh
    if case.kind in (ELLIPTIC, LOXODROMIC):
        A, B, C, D = case.exponents
        half_c, half_a1 = 0.5 * C, 0.5 * (A + 1)

        def slopes(c1, c2):
            return (half_c / tan(c2) + D / tan(2.0 * c2),
                    half_a1 / tanh(c1) + B / tanh(2.0 * c1))

        return slopes
    if case.kind == SPECIAL_LOXODROMIC:
        kp, kq = 4 * case.n - 5, 4 * case.n - 4
        cosh = math.cosh

        def slopes(c1, c2):
            sh, ch, ct = sinh(c1), cosh(c1), cos(c2)
            sc = sh * ct
            bracket = ch * ch + sc * sc
            return (0.5 * (kp / tan(c2) - 3.0 * (sh * sh) * sin(2.0 * c2) / bracket),
                    0.5 * (kq / tanh(c1)
                           + 3.0 * sinh(2.0 * c1) * (1.0 + ct * ct) / bracket))

        return slopes
    raise ShapeError("the slopes P, Q apply to the polar cases")


# ---------------------------------------------------------------------------
# reduced ODE right-hand sides


def case_rhs(case: ReducedCase, h: float = 0.0) -> Callable[[float, float, float],
                                                             tuple[float, float, float]]:
    """The reduced right-hand side of the case at mean curvature h, as a
    float function (c1, c2, sigma) -> (dc1, dc2, dsigma).

    The case's constants are bound once. It raises DomainError outside
    the orbit space and SingularBoundaryError on a singular stratum.
    """
    n, m = case.n, case.m
    cos, sin, sinh, sqrt = math.cos, math.sin, math.sinh, math.sqrt
    if case.kind in POLAR_KINDS:
        top = math.pi if case.kind == SPECIAL_LOXODROMIC else 0.5 * math.pi
        slopes = _polar_slopes(case)

        def rhs(c1, c2, sigma):
            if c1 <= 0.0:
                raise DomainError("polar radius must be positive")
            if not (0.0 < c2 < top):
                raise SingularBoundaryError(
                    "state on a singular stratum; use boundary_sigma_rate")
            P, Q = slopes(c1, c2)
            cs, sn, sh = cos(sigma), sin(sigma), sinh(c1)
            return 0.5 * cs, 0.5 * sn / sh, P * cs / sh - Q * sn + h

        return rhs
    k_sin = 2 * n + 1
    if case.kind == PARABOLIC:
        k_rho = 2 * n - 2 * m - 0.5

        def rhs(c1, c2, sigma):
            if c1 <= 0.0:
                raise DomainError("alpha must be positive")
            if c2 <= 0.0:
                raise SingularBoundaryError(
                    "rho = 0 is singular; use boundary_sigma_rate")
            root, cs, sn = sqrt(c1), cos(sigma), sin(sigma)
            return c1 * cs, 0.5 * root * sn, k_rho * root / c2 * cs + k_sin * sn + h

        return rhs

    def rhs(c1, c2, sigma):
        if c1 <= 0.0:
            raise DomainError("alpha must be positive")
        sn = sin(sigma)
        return c1 * cos(sigma), 0.5 * sqrt(c1) * sn, k_sin * sn + h

    return rhs


def boundary_sigma_rate(case: ReducedCase, a: float) -> float:
    """d(sigma)/ds at s = 0 for the orthogonal start on the singular
    stratum point with parameter a (the start is sigma = pi/2)."""
    n, m = case.n, case.m
    if case.kind == SPECIAL_PARABOLIC:
        raise NoSingularStratumError("all orbits are principal")
    if a <= 0.0:
        raise DomainError("stratum parameter a must be positive")
    if case.kind in (ELLIPTIC, LOXODROMIC):
        A, B, C, D = case.exponents
        Q = 0.5 * (A + 1) / np.tanh(a) + B / np.tanh(2.0 * a)
        return float(-Q / (C + D + 1))
    if case.kind == SPECIAL_LOXODROMIC:
        return float(-((4 * n - 4) / np.tanh(a) + 6.0 * np.tanh(2.0 * a))
                     / (2.0 * (4 * n - 4)))
    # parabolic: independent of a
    return float((2 * n + 1) / (4 * n - 4 * m))


# ---------------------------------------------------------------------------
# first integrals and semi-integrals


def first_integral_values(case: ReducedCase, state: PhaseState) -> dict:
    """Every (semi-)first integral of the case's h = 0 flow.

    Keys: I1 always present; I2 only for the parabolic case. The polar
    cases carry the growth quantity I1 = V cos(sigma); the parabolic
    case carries the sign pair (I, J); the special parabolic case
    carries the exactly conserved I1 = alpha^{-2n-1} sin(sigma). The
    state's fields may be equal-shape arrays.
    """
    n, m = case.n, case.m
    c1, c2, sigma = state.c1, state.c2, state.sigma
    if case.kind in POLAR_KINDS:
        return {"I1": volume_functional(case, (c1, c2)) * np.cos(sigma)}
    if case.kind == SPECIAL_PARABOLIC:
        return {"I1": c1 ** (-2 * n - 1) * np.sin(sigma)}
    alpha, rho = c1, c2
    e_i = ((4 * n + 2) * (4 * n - 4 * m - 2) + 1) / (4 * n + 1)
    I = (alpha ** (-2 * n - 1) * rho ** e_i
         * (np.sqrt(alpha) * np.cos(sigma)
            + (4 * n + 1) / (4 * n - 4 * m - 1) * rho * np.sin(sigma)))
    e_j = (-(4 * n - 4 * m - 1) * (4 * n + 3) - 1) / (8 * n - 8 * m)
    J = (alpha ** e_j * rho ** (4 * n - 4 * m - 1)
         * (np.sqrt(alpha) * np.cos(sigma)
            + (4 * n + 2) / (4 * n - 4 * m) * rho * np.sin(sigma)))
    return {"I1": I, "I2": J}


# ---------------------------------------------------------------------------
# symmetry groups


def random_symmetry(case: ReducedCase, rng: np.random.Generator) -> Isometry:
    """A random element of the group H whose orbits the case quotients by."""
    n, m = case.n, case.m
    if case.kind == ELLIPTIC:
        big = qmat_identity(n)
        big[:m, :m] = random_sp(m, rng)
        big[m:, m:] = random_sp(n - m, rng)
        return rotation_matrix(n, big, UNIT)
    if case.kind == LOXODROMIC:
        A = np.zeros((n + 1, n + 1, 4))
        A[:n - m, :n - m] = random_sp(n - m, rng)
        A[n - m, n - m, 0] = 1.0
        A[n - m + 1:, n - m + 1:] = random_lorentz_sp(m, rng)
        return Isometry(A)
    if case.kind == SPECIAL_LOXODROMIC:
        nu = np.array([0.0, rng.standard_normal(), rng.standard_normal(), 0.0])
        g = heisenberg_matrix(n, np.zeros((n - 1, 4)), nu)
        g = g.compose(transvection_matrix(n, float(rng.uniform(-1, 1))))
        big = qmat_identity(n)
        big[:n - 1, :n - 1] = random_sp(n - 1, rng)
        return g.compose(rotation_matrix(n, big, UNIT))
    xi, nu = np.zeros((n - 1, 4)), np.zeros(4)
    if case.kind == PARABOLIC:
        xi[n - m:] = rng.standard_normal((m - 1, 4))
        nu[1:] = rng.standard_normal(3)
        g = heisenberg_matrix(n, xi, nu)
        big = qmat_identity(n)
        big[:n - m, :n - m] = random_sp(n - m, rng)
        return g.compose(rotation_matrix(n, big, UNIT))
    # special parabolic: Heisenberg translations with Re(xi_{n-1}) = 0
    xi[:n - 2] = rng.standard_normal((n - 2, 4))
    xi[-1, 1:] = rng.standard_normal(3)
    nu[1:] = rng.standard_normal(3)
    return heisenberg_matrix(n, xi, nu)


# ---------------------------------------------------------------------------
# explicit solutions


@dataclass(frozen=True)
class ExplicitSolution:
    """A closed-form solution family of the reduced ODE.

    state(a, t) walks along the curve of family parameter a; h(a) is
    the constant mean curvature of that member.
    """

    description: str
    state: Callable[[float, float], PhaseState]
    h: Callable[[float], float]


def explicit_solutions(case: ReducedCase) -> list[ExplicitSolution]:
    n, m = case.n, case.m
    out = []
    if case.kind in (ELLIPTIC, LOXODROMIC):
        A, B, C, D = case.exponents
        theta_star = float(np.arctan(np.sqrt((C + D) / D)))
        out.append(ExplicitSolution(
            "cone ray theta = arctan sqrt((C+D)/D), minimal",
            lambda a, t, th=theta_star: PhaseState(t, th, 0.0),
            lambda a: 0.0,
        ))
        if case.kind == ELLIPTIC:
            hval = lambda a: float((2 * n - 2) / np.tanh(a) + 3.0 / np.tanh(2 * a))
            desc = "metric sphere r = a"
        else:
            hval = lambda a: float((2 * n - 4 * m + 2) / np.tanh(a)
                                   + (4 * m - 1) / np.tanh(2 * a))
            desc = "tube of radius a around a quaternionic subspace"
        out.append(ExplicitSolution(
            desc,
            lambda a, t: PhaseState(a, t, 0.5 * np.pi),
            hval,
        ))
    elif case.kind == SPECIAL_LOXODROMIC:
        out.append(ExplicitSolution(
            "bisector line theta = pi/2, minimal",
            lambda a, t: PhaseState(t, 0.5 * np.pi, 0.0),
            lambda a: 0.0,
        ))
    elif case.kind == PARABOLIC:
        out.append(ExplicitSolution(
            "horosphere alpha = a",
            lambda a, t: PhaseState(a, t, -0.5 * np.pi),
            lambda a: float(2 * n + 1),
        ))
    else:
        out.append(ExplicitSolution(
            "fan line rho = R, minimal",
            lambda a, t: PhaseState(t, a, 0.0),
            lambda a: 0.0,
        ))
    return out
