"""Cohomogeneity-two reductions of the minimal hypersurface equation.

Five group actions reduce the mean-curvature-h equation to a three
dimensional ODE system for (c1, c2, sigma) on a two dimensional orbit
space: two compact-stabilizer actions on the ball ("elliptic" and
"loxodromic"), the stabilizer of a bisector ("special-loxodromic"),
and two parabolic actions in horospherical coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .charts import BALL, HORO, ChartPoint, convert
from .isometries import (
    Isometry,
    heisenberg_matrix,
    qmat_identity,
    random_sp,
    random_unit_quaternion,
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
        ms = m_range(self.kind, self.n)
        if self.m not in ms:
            raise DomainError("special cases take no m" if ms == (None,) else
                              f"{self.kind} case needs an m with {ms.start} <= m <= n-1")

    @property
    def theta_max(self) -> float:
        """The polar cases' upper end of theta: pi/2, or pi special loxodromic."""
        return math.pi if self.kind == SPECIAL_LOXODROMIC else 0.5 * math.pi

    @property
    def exponents(self) -> tuple[int, int, int, int]:
        """(A, B, C, D) of the polar volume functional."""
        n, m = self.n, self.m
        if self.kind == ELLIPTIC:
            return (4 * n - 5, 3, 4 * n - 8 * m, 4 * m - 1)
        if self.kind == LOXODROMIC:
            return (4 * n - 8 * m + 3, 4 * m - 1, 4 * n - 4 * m - 4, 3)
        raise ShapeError("exponents defined for elliptic/loxodromic only")


def m_range(kind: str, n: int):
    """The m a case of the kind takes at n: 2 <= m <= n-1 loxodromic,
    1 <= m <= n-1 elliptic and parabolic, and (None,) in the special cases."""
    if kind in (SPECIAL_LOXODROMIC, SPECIAL_PARABOLIC):
        return (None,)
    return range(2 if kind == LOXODROMIC else 1, n)


def cases_at(n: int) -> list[ReducedCase]:
    """Every case at n: ALL_KINDS in order, each with its m ascending."""
    return [ReducedCase(kind, n, m) for kind in ALL_KINDS for m in m_range(kind, n)]


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


# ---------------------------------------------------------------------------
# reduced ODE right-hand sides


# the guards of the right-hand sides
NOT_POLAR = "polar radius must be positive"
ON_POLAR_STRATUM = "state on a singular stratum; use boundary_sigma_rate"
NOT_ALPHA = "alpha must be positive"
ON_RHO_STRATUM = "rho = 0 is singular; use boundary_sigma_rate"

# The coordinates a special parabolic curve is integrated in, besides
# (alpha, rho, sigma): (ln alpha, rho, sigma), and (ln alpha, rho, w) with
# w = ln tan(sigma/2) (see integrator.integrate_profile).
LOG_ALPHA = "log-alpha"
TAN_HALF = "tan-half"

# The globals of the code compiled from rhs_lines: every name other than a
# builtin that its lines and the integrator's DOP853 steps call.
RHS_GLOBALS = {"cos": math.cos, "sin": math.sin, "tan": math.tan,
               "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
               "sqrt": math.sqrt, "exp": math.exp, "atan2": math.atan2,
               "DomainError": DomainError,
               "SingularBoundaryError": SingularBoundaryError}


def _sum(*terms) -> str:
    """The source of a sum of (coefficient, divisor) terms, without the terms
    whose coefficient is 0. Such a term adds +0.0, and the rest of the sum
    here is B or D >= 3 over a finite tan or tanh, never -0.0, so leaving
    it out keeps the sum's bits."""
    return " + ".join(f"{float(k)!r} / {den}" for k, den in terms if k)


def rhs_lines(case: ReducedCase, coords: Optional[str] = None
              ) -> tuple[tuple[str, str, str], list[str], tuple[str, str, str]]:
    """The reduced right-hand side of the case as source, the one text that
    case_rhs and the integrator's DOP853 steps are compiled from.

    Returns the names of the three state components it reads, the
    statements that run on them (with the mean curvature h bound, and the
    names of RHS_GLOBALS), and the three derivative expressions. The state
    is (c1, c2, sigma); coords LOG_ALPHA or TAN_HALF give a special
    parabolic case in (ln alpha, rho, sigma) or (ln alpha, rho, w). The
    statements raise DomainError outside the orbit space and
    SingularBoundaryError on a singular stratum.
    """
    n, m = case.n, case.m
    if coords is not None and (case.kind != SPECIAL_PARABOLIC
                               or coords not in (LOG_ALPHA, TAN_HALF)):
        raise ShapeError(f"no {coords!r} coordinates for the {case.kind} case")
    alpha_guard = ["if c1 <= 0.0:", f"    raise DomainError({NOT_ALPHA!r})"]
    if case.kind in POLAR_KINDS:
        lines = ["if c1 <= 0.0:", f"    raise DomainError({NOT_POLAR!r})",
                 f"if not (0.0 < c2 < {case.theta_max!r}):",
                 f"    raise SingularBoundaryError({ON_POLAR_STRATUM!r})"]
        # dsigma = P cos(sigma) / sinh(r) - Q sin(sigma) + h, with
        # P = (1/2) d(ln V)/d theta and Q = (1/2)(d(ln V)/dr + coth r)
        if case.kind == SPECIAL_LOXODROMIC:
            lines += ["sh, ch, ct = sinh(c1), cosh(c1), cos(c2)",
                      "sc = sh * ct",
                      "bracket = ch * ch + sc * sc",
                      f"P = 0.5 * ({float(4 * n - 5)!r} / tan(c2) "
                      "- 3.0 * (sh * sh) * sin(2.0 * c2) / bracket)",
                      f"Q = 0.5 * ({float(4 * n - 4)!r} / tanh(c1) "
                      "+ 3.0 * sinh(2.0 * c1) * (1.0 + ct * ct) / bracket)",
                      "cs, sn = cos(sigma), sin(sigma)"]
        else:
            A, B, C, D = case.exponents
            lines += [f"P = {_sum((0.5 * C, 'tan(c2)'), (D, 'tan(2.0 * c2)'))}",
                      f"Q = {_sum((0.5 * (A + 1), 'tanh(c1)'), (B, 'tanh(2.0 * c1)'))}",
                      "cs, sn, sh = cos(sigma), sin(sigma), sinh(c1)"]
        return (("c1", "c2", "sigma"), lines,
                ("0.5 * cs", "0.5 * sn / sh", "P * cs / sh - Q * sn + h"))
    k_sin = float(2 * n + 1)
    if case.kind == PARABOLIC:
        return (("c1", "c2", "sigma"),
                alpha_guard + ["if c2 <= 0.0:",
                               f"    raise SingularBoundaryError({ON_RHO_STRATUM!r})",
                               "root, cs, sn = sqrt(c1), cos(sigma), sin(sigma)"],
                ("c1 * cs", "0.5 * root * sn",
                 f"{float(2 * n - 2 * m) - 0.5!r} * root / c2 * cs + {k_sin!r} * sn + h"))
    dsigma = f"{k_sin!r} * sn + h"
    lines = alpha_guard + ["sn = sin(sigma)"]
    if coords is None:
        return (("c1", "c2", "sigma"), lines,
                ("c1 * cos(sigma)", "0.5 * sqrt(c1) * sn", dsigma))
    # d(ln alpha) = dalpha / alpha
    lines = ["c1 = exp(log_a)"] + lines
    value = ("c1 * cos(sigma) / c1", "0.5 * sqrt(c1) * sn")
    if coords == LOG_ALPHA:
        return ("log_a", "c2", "sigma"), lines, value + (dsigma,)
    # sigma = 2 atan(e^w), and dw = dsigma / sin(sigma); w only grows from 0,
    # so e^{-w} cannot overflow
    return (("log_a", "c2", "w"), ["sigma = 2.0 * atan2(1.0, exp(-w))"] + lines,
            value + (f"({dsigma}) / sn",))


def compile_function(source: str, name: str, filename: str) -> Callable:
    """The function name that source defines, with RHS_GLOBALS as its globals."""
    defined = {}
    exec(compile(source, filename, "exec"), RHS_GLOBALS, defined)
    return defined[name]


@functools.cache
def _rhs_binder(case: ReducedCase, coords: Optional[str]) -> Callable:
    """h -> the case's right-hand side at mean curvature h, compiled from
    rhs_lines on first use."""
    args, lines, value = rhs_lines(case, coords)
    source = "\n".join(["def bind(h):", f"    def rhs({', '.join(args)}):"]
                       + ["        " + line for line in lines]
                       + [f"        return {', '.join(value)}", "    return rhs", ""])
    return compile_function(source, "bind", f"<{case.kind} right-hand side>")


def case_rhs(case: ReducedCase, h: float = 0.0, coords: Optional[str] = None
             ) -> Callable[[float, float, float], tuple[float, float, float]]:
    """The reduced right-hand side of the case at mean curvature h, as a
    float function (c1, c2, sigma) -> (dc1, dc2, dsigma), compiled from
    rhs_lines; coords gives a special parabolic case in other coordinates.

    It raises DomainError outside the orbit space and
    SingularBoundaryError on a singular stratum.
    """
    return _rhs_binder(case, coords)(h)


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
        return rotation_matrix(big, UNIT)
    if case.kind == LOXODROMIC:
        # k a k': Sp(m-1,1), on the last m coordinates, is K A K with
        # K = Sp(m-1) x Sp(1) and A the transvections
        def k_part():
            big = qmat_identity(n)
            big[:n - m, :n - m] = random_sp(n - m, rng)
            big[n - m + 1:, n - m + 1:] = random_sp(m - 1, rng)
            return rotation_matrix(big, random_unit_quaternion(rng))

        g = k_part().compose(transvection_matrix(n, float(rng.uniform(-1, 1))))
        return g.compose(k_part())
    if case.kind == SPECIAL_LOXODROMIC:
        nu = np.array([0.0, rng.standard_normal(), rng.standard_normal(), 0.0])
        g = heisenberg_matrix(np.zeros((n - 1, 4)), nu)
        g = g.compose(transvection_matrix(n, float(rng.uniform(-1, 1))))
        big = qmat_identity(n)
        big[:n - 1, :n - 1] = random_sp(n - 1, rng)
        return g.compose(rotation_matrix(big, UNIT))
    xi, nu = np.zeros((n - 1, 4)), np.zeros(4)
    if case.kind == PARABOLIC:
        xi[n - m:] = rng.standard_normal((m - 1, 4))
        nu[1:] = rng.standard_normal(3)
        g = heisenberg_matrix(xi, nu)
        big = qmat_identity(n)
        big[:n - m, :n - m] = random_sp(n - m, rng)
        return g.compose(rotation_matrix(big, UNIT))
    # special parabolic: Heisenberg translations with Re(xi_{n-1}) = 0
    xi[:n - 2] = rng.standard_normal((n - 2, 4))
    xi[-1, 1:] = rng.standard_normal(3)
    nu[1:] = rng.standard_normal(3)
    return heisenberg_matrix(xi, nu)


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
