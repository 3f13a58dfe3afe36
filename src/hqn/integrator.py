"""Adaptive integration of the reduced ODE systems.

The systems are singular on the orbit-space boundary strata, so curves
that start there take one second-order Taylor step (sized s0) before the
adaptive integrator takes over. Events (domain exit, sigma reaching pi,
a floor on c1) are located by the integrator's root finding.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import quad, solve_ivp

from .errors import (
    DomainError,
    ExtrapolationError,
    SingularBoundaryError,
    StepSizeUnderflow,
)
from .reduction import (
    ELLIPTIC,
    LOXODROMIC,
    PARABOLIC,
    POLAR_KINDS,
    SPECIAL_LOXODROMIC,
    SPECIAL_PARABOLIC,
    PhaseState,
    ReducedCase,
    boundary_sigma_rate,
    first_integral_values,
    ode_rhs,
    volume_functional,
)

TAYLOR_STEP = 1e-4


@dataclass
class ProfileCurve:
    """One integrated solution curve with per-sample diagnostics."""

    case: ReducedCase
    a: float
    h: float
    s: np.ndarray                 # adaptive nodes
    states: np.ndarray            # (len(s), 3) rows (c1, c2, sigma)
    uniform_s: np.ndarray         # uniform resampling for export
    uniform_states: np.ndarray
    V: np.ndarray                 # diagnostics on the uniform grid
    I1: np.ndarray
    I2: np.ndarray
    residual: np.ndarray
    termination: str

    def state(self, i: int) -> PhaseState:
        return PhaseState(*self.uniform_states[i])

    def final_state(self) -> PhaseState:
        return PhaseState(*self.states[-1])


def _taylor_start(case: ReducedCase, a: float, s0: float) -> np.ndarray:
    """Second-order start orthogonal to the singular stratum."""
    rate = boundary_sigma_rate(case, a)
    if case.kind in POLAR_KINDS:
        return np.array([a - rate * s0 ** 2 / 4.0,
                         s0 / (2.0 * np.sinh(a)),
                         0.5 * np.pi + rate * s0])
    return np.array([a * (1.0 - rate * s0 ** 2 / 2.0),
                     0.5 * np.sqrt(a) * s0,
                     0.5 * np.pi + rate * s0])


def _make_events(case: ReducedCase, c1_floor: Optional[float]):
    events = []
    names = []
    if case.kind in (ELLIPTIC, LOXODROMIC):
        top = 0.5 * np.pi
    elif case.kind == SPECIAL_LOXODROMIC:
        top = np.pi
    else:
        top = None
    if top is not None:
        lo = lambda s, y: y[1] - 1e-12
        hi = lambda s, y, t=top: t - 1e-12 - y[1]
        lo.terminal = hi.terminal = True
        events += [lo, hi]
        names += ["domain_exit", "domain_exit"]
    if case.kind == PARABOLIC:
        sig = lambda s, y: np.pi - y[2]
        sig.terminal = True
        events.append(sig)
        names.append("sigma_event")
        rho0 = lambda s, y: y[1] - 1e-14
        rho0.terminal = True
        events.append(rho0)
        names.append("domain_exit")
    if c1_floor is not None:
        # special parabolic curves integrate ln(alpha) in place of alpha
        f = np.log(c1_floor) if case.kind == SPECIAL_PARABOLIC else c1_floor
        fl = lambda s, y, f=f: y[0] - f
        fl.terminal = True
        events.append(fl)
        names.append("c1_floor")
    return events, names


def _mirror(states: np.ndarray) -> np.ndarray:
    out = states.copy()
    out[:, 1] = np.pi - out[:, 1]
    out[:, 2] = -out[:, 2]
    return out


def integrate_profile(case: ReducedCase, a: float, s_max: float = 20.0,
                      tol: float = 1e-10, h: float = 0.0,
                      c1_floor: Optional[float] = None,
                      n_samples: int = 801) -> ProfileCurve:
    """Integrate the reduced system from the standard start for a.

    Starts: elliptic/loxodromic/parabolic at the stratum point with
    parameter a > 0 and sigma = pi/2; special loxodromic additionally
    accepts a = 0 (the invariant line) and a < 0 (mirror image); special
    parabolic starts at the interior state (a, 0, pi/2).
    """
    mirror = False
    if case.kind == SPECIAL_LOXODROMIC and a < 0.0:
        mirror, a_run = True, -a
    else:
        a_run = a
    if case.kind == PARABOLIC and c1_floor is None:
        c1_floor = 1e-8

    s0 = TAYLOR_STEP
    # Special parabolic curves run in (ln alpha, rho, sigma): alpha decays
    # toward the boundary, and no Runge-Kutta stage can then step to alpha <= 0.
    log_alpha = case.kind == SPECIAL_PARABOLIC
    if log_alpha:
        if a_run <= 0.0:
            raise DomainError("special parabolic start needs alpha > 0")
        y0 = np.array([np.log(a_run), 0.0, 0.5 * np.pi])
        s_start = 0.0
    elif case.kind == SPECIAL_LOXODROMIC and a_run == 0.0:
        y0 = np.array([0.5 * s0, 0.5 * np.pi, 0.0])
        s_start = s0
    else:
        if a_run <= 0.0:
            raise DomainError("start parameter a must be positive")
        y0 = _taylor_start(case, a_run, s0)
        s_start = s0

    events, names = _make_events(case, c1_floor)
    if log_alpha:
        def rhs(s, y):
            alpha = np.exp(y[0])
            dc1, dc2, dsig = ode_rhs(case, PhaseState(alpha, y[1], y[2]), h)
            return dc1 / alpha, dc2, dsig
    else:
        rhs = lambda s, y: ode_rhs(case, PhaseState(*y), h)
    sol = solve_ivp(rhs, (s_start, s_max), y0, method="DOP853",
                    rtol=tol, atol=tol, dense_output=True, events=events)
    if sol.status == -1:
        raise StepSizeUnderflow(sol.message)
    if sol.status == 1:
        hit = [i for i, t in enumerate(sol.t_events) if len(t)]
        termination = names[hit[0]] if hit else "event"
    else:
        termination = "smax"

    s_end = sol.t[-1]
    uniform_s = np.linspace(s_start, s_end, n_samples)
    uniform_states = sol.sol(uniform_s).T
    s_nodes = sol.t
    states = sol.y.T

    if log_alpha:
        states[:, 0] = np.exp(states[:, 0])
        uniform_states[:, 0] = np.exp(uniform_states[:, 0])
    if mirror:
        states = _mirror(states)
        uniform_states = _mirror(uniform_states)

    V = np.empty(n_samples)
    I1 = np.empty(n_samples)
    I2 = np.full(n_samples, np.nan)
    for i in range(n_samples):
        st = PhaseState(*uniform_states[i])
        V[i] = volume_functional(case, (st.c1, st.c2),
                                 polar=case.kind in POLAR_KINDS)
        vals = first_integral_values(case, st)
        I1[i] = vals["I1"]
        if "I2" in vals:
            I2[i] = vals["I2"]

    residual = np.zeros(n_samples)
    ds = uniform_s[1] - uniform_s[0] if n_samples > 1 else 1.0
    for i in range(1, n_samples - 1):
        st = PhaseState(*uniform_states[i])
        try:
            f = np.array(ode_rhs(case, st, h))
        except (DomainError, SingularBoundaryError):
            continue
        df = (uniform_states[i + 1] - uniform_states[i - 1]) / (2.0 * ds)
        residual[i] = float(np.max(np.abs(df - f)))

    return ProfileCurve(case=case, a=a, h=h, s=s_nodes, states=states,
                        uniform_s=uniform_s, uniform_states=uniform_states,
                        V=V, I1=I1, I2=I2, residual=residual,
                        termination=termination)


def generate_family(case: ReducedCase, a_grid, h: float = 0.0,
                    **kwargs) -> list[ProfileCurve]:
    """Integrate one curve per grid value; results in grid order."""
    a_grid = list(a_grid)
    workers = int(os.environ.get("HQN_THREADS", "1"))
    if workers > 1 and len(a_grid) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(integrate_profile, case, a, h=h, **kwargs)
                       for a in a_grid]
            return [f.result() for f in futures]
    return [integrate_profile(case, a, h=h, **kwargs) for a in a_grid]


def elliptic_integral_R(n: int) -> float:
    """The total transverse displacement R of the special parabolic
    solution through (1, 0, pi/2):

        R = (1/2) integral_0^1 sqrt(t^{4n+1} / (1 - t^{4n+2})) dt.

    The endpoint singularity at t = 1 is removed by t = 1 - x^2.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    p = 4 * n + 2

    def f(x):
        if x == 0.0:
            return 1.0 / np.sqrt(p)
        num = (1.0 - x * x) ** (p - 1)
        den = -np.expm1(p * np.log1p(-x * x))
        return x * np.sqrt(num / den)

    val, err = quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    return float(val)


@dataclass(frozen=True)
class EndpointLimit:
    c1: float
    c2: float
    converged: bool
    tag: str


def limit_endpoint(curve: ProfileCurve) -> EndpointLimit:
    """Extrapolated endpoint of the orbit-space curve.

    Parabolic curves stopped at a small alpha floor get a tail
    correction for rho from the tangent-slope sandwich; special
    parabolic curves use the conserved quantity to integrate the exact
    tail. Elliptic and loxodromic curves have no finite limit and the
    final sample is returned unconverged.
    """
    case = curve.case
    n, m = case.n, case.m
    fin = curve.final_state()
    if case.kind in (ELLIPTIC, LOXODROMIC, SPECIAL_LOXODROMIC):
        return EndpointLimit(fin.c1, fin.c2, False, "NotConverged")
    if case.kind == PARABOLIC:
        if curve.termination not in ("sigma_event", "c1_floor") or fin.c1 > 1e-6:
            raise ExtrapolationError("curve tail has not reached small alpha")
        lo = (4 * n - 4 * m - 1) / (4 * n + 1)
        hi = (4 * n - 4 * m) / (4 * n + 2)
        c = 0.5 * (lo + hi)
        rho_lim = float(np.sqrt(fin.c2 ** 2 + c * fin.c1))
        return EndpointLimit(0.0, rho_lim, True, "extrapolated")
    # special parabolic: use I = alpha^{-2n-1} sin(sigma)
    if fin.c1 > 0.5:
        raise ExtrapolationError("curve tail has not reached small alpha")
    I = float(fin.c1 ** (-2 * n - 1) * np.sin(fin.sigma))

    def slope(t):
        return 0.5 * I * t ** (2 * n + 0.5) / np.sqrt(1.0 - (I * t ** (2 * n + 1)) ** 2)

    tail, err = quad(slope, 0.0, fin.c1, epsabs=1e-13, epsrel=1e-13)
    if not np.isfinite(tail):
        raise ExtrapolationError("tail quadrature failed")
    sign = 1.0 if fin.c2 >= 0 else -1.0
    return EndpointLimit(0.0, float(fin.c2 + sign * tail), True, "extrapolated")
