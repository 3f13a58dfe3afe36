"""Adaptive integration of the reduced ODE systems.

The systems are singular on the orbit-space boundary strata, so curves
that start there take one second-order Taylor step (sized s0) before the
adaptive integrator takes over. The integrator is a DOP853 loop on
Python floats for the three-component state, with SciPy's step control
and event semantics; events (domain exit, sigma reaching pi, a floor on
c1) are located on the step's interpolant.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dop853 import A, B, D, E3, E5, N_STAGES
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
    case_rhs,
    first_integral_values,
    volume_functional,
)

TAYLOR_STEP = 1e-4

EPS = sys.float_info.epsilon
# step control of scipy.integrate.solve_ivp's DOP853 (Hairer, Norsett &
# Wanner, Solving ODEs I, Sec. II.4)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0        # the error estimator has order 7
ROOT_TOL = 4.0 * EPS               # event roots, absolute and relative
# Accepted plus rejected steps per run. The longest bench or test curve
# takes 484 (loxodromic n=3 m=2 at tol 1e-13); a run at a huge h, whose
# steps are all accepted at 10 spacing(s), stops here in seconds.
MAX_STEPS = 100_000

_STAGES = A[1:N_STAGES]
_EXTRA_STAGES = A[N_STAGES + 1:]
# B, E5 and E3 share their nonzero columns
_WEIGHTS = tuple((j, b, e5, e3) for (j, b), (_, e5), (_, e3) in zip(B, E5, E3))


def __getattr__(name):
    # scipy's solver stays reachable under its old name (bench/spans.py
    # traces it) without importing scipy.integrate with the package
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    termination: str
    nfev: int                     # right-hand side evaluations
    accepted: int                 # steps, len(s) - 1
    rejected: int

    @functools.cached_property
    def residual(self) -> np.ndarray:
        """residual_column on the uniform grid, computed when first read."""
        return residual_column(self.case, self.h, self.uniform_s, self.uniform_states)

    def final_state(self) -> PhaseState:
        return PhaseState(*self.states[-1])


# ---------------------------------------------------------------------------
# DOP853 kernel

State = tuple[float, float, float]


@dataclass(frozen=True)
class _Event:
    """A terminal event at sign * (y[index] - level) = 0."""

    name: str
    index: int
    level: float
    sign: float = 1.0


@dataclass
class _Run:
    """Nodes, step interpolants and counts of one kernel integration.
    Step k starts at node t[k] and has length h[k] (its end is t[k + 1],
    except when an event root cut the last step short); coef[k] holds its
    y_old and dense output coefficients F0..F6, as 8 consecutive
    (c1, c2, sigma) triples."""

    t: list
    y: list
    h: list
    coef: list
    nfev: int = 0
    accepted: int = 0
    rejected: int = 0
    event: Optional[str] = None


def _rms(x: State, scale: State) -> float:
    a, b, c = x[0] / scale[0], x[1] / scale[1], x[2] / scale[2]
    return math.sqrt(a * a + b * b + c * c) / math.sqrt(3.0)


def _initial_step(f, y, fy, interval, rtol, atol) -> float:
    """scipy's select_initial_step (Hairer, Norsett & Wanner, Sec. II.4)."""
    scale = tuple(atol + abs(v) * rtol for v in y)
    d0, d1 = _rms(y, scale), _rms(fy, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = f(*(v + h0 * dv for v, dv in zip(y, fy)))
    # h0 underflows to 0 only when d1 overflows; numpy would divide to inf
    d2 = _rms(tuple(p - q for p, q in zip(f1, fy)), scale) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-ERROR_EXPONENT)
    return min(100.0 * h0, h1, interval)


def _interpolate(terms, x):
    """A step's dense output at the fraction x of the step, from its 8 terms
    y_old, F0..F6 (floats, or arrays over points), in the operation order
    of scipy's Dop853DenseOutput."""
    y = 0.0
    for k in range(7, 0, -1):
        y += terms[k]
        y *= x if k % 2 else 1.0 - x
    return y + terms[0]


def _brentq(g: Callable[[float], float], xa: float, xb: float) -> float:
    """Root of g in [xa, xb] to ROOT_TOL, by scipy's brentq (Brent's
    method: inverse quadratic interpolation, secant or bisection)."""
    xpre, xcur = xa, xb
    fpre, fcur = g(xpre), g(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        # the interpolant misses the sign change g showed at the step's
        # end by rounding: the event is at the end
        return xb
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_TOL + ROOT_TOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = g(xcur)
    return xcur


def _dop853(f: Callable[[float, float, float], State], t0: float, y0: State,
            t_bound: float, rtol: float, atol: float,
            events: list[_Event]) -> _Run:
    """Integrate the autonomous system y' = f(y) from (t0, y0) towards
    t_bound with scipy's DOP853: its initial step, error norm, step
    factors and step-size underflow, and its event rule (a sign change
    of g between step ends, g <= 0 <= g_new or g >= 0 >= g_new). A step
    is rejected with factor MIN_FACTOR, where scipy would propagate the
    error, when f raises ValueError or OverflowError at one of its stages,
    its end or the three stages of its dense output: the state left the
    orbit space (DomainError, SingularBoundaryError, a math domain error)
    or the float range. Every event is terminal: the run
    ends at the earliest root, located on the step's interpolant, with y
    there from the interpolant. A run that tries more than MAX_STEPS
    steps raises StepSizeUnderflow.
    """
    run = _Run([t0], [y0], [], [])
    t, y = t0, y0
    fy = f(*y)
    h_abs = _initial_step(f, y, fy, t_bound - t0, rtol, atol)
    run.nfev = 2
    g = [ev.sign * (y[ev.index] - ev.level) for ev in events]
    while True:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        y0_, y1_, y2_ = y
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise StepSizeUnderflow(
                    f"required step size is less than spacing between numbers at s = {t!r}")
            if run.accepted + run.rejected >= MAX_STEPS:
                raise StepSizeUnderflow(
                    f"step budget of {MAX_STEPS} steps spent at s = {t!r}")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            K = [fy]
            try:
                for row in _STAGES:
                    d0 = d1 = d2 = 0.0
                    for j, a in row:
                        k = K[j]
                        d0 += a * k[0]
                        d1 += a * k[1]
                        d2 += a * k[2]
                    K.append(f(y0_ + d0 * h, y1_ + d1 * h, y2_ + d2 * h))
                b0 = b1 = b2 = p0 = p1 = p2 = q0 = q1 = q2 = 0.0
                for j, b, e5, e3 in _WEIGHTS:
                    k0, k1, k2 = K[j]
                    b0 += b * k0
                    b1 += b * k1
                    b2 += b * k2
                    p0 += e5 * k0
                    p1 += e5 * k1
                    p2 += e5 * k2
                    q0 += e3 * k0
                    q1 += e3 * k1
                    q2 += e3 * k2
                y_new = (y0_ + h * b0, y1_ + h * b1, y2_ + h * b2)
                f_new = f(*y_new)
                s0 = atol + max(abs(y0_), abs(y_new[0])) * rtol
                s1 = atol + max(abs(y1_), abs(y_new[1])) * rtol
                s2 = atol + max(abs(y2_), abs(y_new[2])) * rtol
                p0, p1, p2 = p0 / s0, p1 / s1, p2 / s2
                q0, q1, q2 = q0 / s0, q1 / s1, q2 / s2
                err5 = p0 * p0 + p1 * p1 + p2 * p2
                err3 = q0 * q0 + q1 * q1 + q2 * q2
                if err5 == 0.0 and err3 == 0.0:
                    error_norm = 0.0
                else:
                    error_norm = h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * 3.0)
                if error_norm < 1.0:
                    # dense output: three more stages
                    K.append(f_new)
                    for row in _EXTRA_STAGES:
                        d0 = d1 = d2 = 0.0
                        for j, a in row:
                            k = K[j]
                            d0 += a * k[0]
                            d1 += a * k[1]
                            d2 += a * k[2]
                        K.append(f(y0_ + d0 * h, y1_ + d1 * h, y2_ + d2 * h))
            except (ValueError, OverflowError):
                # the calls made, the failed one included
                run.nfev += len(K)
                h_abs *= MIN_FACTOR
                rejected = True
                run.rejected += 1
                continue
            if error_norm < 1.0:
                run.nfev += N_STAGES + 3
                factor = (MAX_FACTOR if error_norm == 0.0 else
                          min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            run.nfev += N_STAGES
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
            run.rejected += 1
        run.accepted += 1

        # F0..F6 of the dense output
        coef = [y0_, y1_, y2_]
        for i in range(3):
            coef.append(y_new[i] - y[i])
        for i in range(3):
            coef.append(h * fy[i] - coef[3 + i])
        for i in range(3):
            coef.append(2.0 * coef[3 + i] - h * (f_new[i] + fy[i]))
        for row in D:
            d0 = d1 = d2 = 0.0
            for j, dd in row:
                k = K[j]
                d0 += dd * k[0]
                d1 += dd * k[1]
                d2 += dd * k[2]
            coef += (h * d0, h * d1, h * d2)
        run.h.append(h)
        run.coef.append(coef)

        g_new = [ev.sign * (y_new[ev.index] - ev.level) for ev in events]
        hit = None
        for ev, g_old, g_end in zip(events, g, g_new):
            if g_old <= 0.0 <= g_end or g_old >= 0.0 >= g_end:
                terms = coef[ev.index::3]
                root = _brentq(lambda s, ev=ev, t=t, h=h, terms=terms: ev.sign * (
                    _interpolate(terms, (s - t) / h) - ev.level), t, t_new)
                if hit is None or root < hit[0]:
                    hit = (root, ev.name)
        if hit is not None:
            root, run.event = hit
            x = (root - t) / h
            run.t.append(root)
            run.y.append(tuple(_interpolate(coef[i::3], x) for i in range(3)))
            return run
        run.t.append(t_new)
        run.y.append(y_new)
        if t_new >= t_bound:
            return run
        t, y, fy, g = t_new, y_new, f_new, g_new


def _dense(run: _Run, s: np.ndarray) -> np.ndarray:
    """The run's dense output at the points s, as (len(s), 3) rows; a
    point on a node takes the earlier step's interpolant."""
    t = np.array(run.t)
    seg = np.clip(np.searchsorted(t, s, side="left") - 1, 0, len(run.coef) - 1)
    coef = np.array(run.coef).reshape(-1, 8, 3)[seg]
    x = ((s - t[seg]) / np.array(run.h)[seg])[:, None]
    return _interpolate(np.moveaxis(coef, 1, 0), x)


# ---------------------------------------------------------------------------
# profile curves


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


def _events(case: ReducedCase, c1_floor: Optional[float]) -> list[_Event]:
    events = []
    if case.kind in (ELLIPTIC, LOXODROMIC, SPECIAL_LOXODROMIC):
        top = np.pi if case.kind == SPECIAL_LOXODROMIC else 0.5 * np.pi
        events += [_Event("domain_exit", 1, 1e-12),
                   _Event("domain_exit", 1, top - 1e-12, -1.0)]
    if case.kind == PARABOLIC:
        events += [_Event("sigma_event", 2, np.pi, -1.0),
                   _Event("domain_exit", 1, 1e-14)]
    if c1_floor is not None:
        # special parabolic curves integrate ln(alpha) in place of alpha
        f = np.log(c1_floor) if case.kind == SPECIAL_PARABOLIC else c1_floor
        events.append(_Event("c1_floor", 0, float(f)))
    return events


def _mirror(states: np.ndarray) -> np.ndarray:
    out = states.copy()
    out[:, 1] = np.pi - out[:, 1]
    out[:, 2] = -out[:, 2]
    return out


def check_start(case: ReducedCase, a: float, s_max: float = 20.0,
                tol: float = 1e-10, h: float = 0.0, n_samples: int = 801) -> float:
    """The arc length at which the curve for a starts; DomainError when a,
    s_max, tol, h or n_samples leave nothing to integrate.

    a must be finite, and positive except in the special loxodromic
    case (a = 0 is the invariant line, a < 0 its mirror image); tol must
    be positive and h finite; s_max must be finite and beyond the start;
    n_samples must not be negative.
    """
    if n_samples < 0:
        raise DomainError("the number of samples must not be negative")
    if not math.isfinite(a):
        raise DomainError("start parameter a must be finite")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError("tol must be positive and finite")
    if not math.isfinite(h):
        raise DomainError("mean curvature h must be finite")
    if case.kind == SPECIAL_PARABOLIC:
        if a <= 0.0:
            raise DomainError("special parabolic start needs alpha > 0")
        s_start = 0.0
    elif case.kind != SPECIAL_LOXODROMIC and a <= 0.0:
        raise DomainError("start parameter a must be positive")
    else:
        s_start = TAYLOR_STEP
    if not (s_start < s_max < math.inf):
        raise DomainError(f"s_max must be finite and above the start s = {s_start!r}")
    return s_start


def residual_column(case: ReducedCase, h: float, s: np.ndarray,
                    states: np.ndarray) -> np.ndarray:
    """Central-difference residual of states sampled on the uniform grid s:
    at each interior sample, max over components of
    |(y[i+1] - y[i-1]) / (2 ds) - f(y[i])|. It is 0 at the two ends,
    where the right-hand side is undefined, and everywhere on a grid of one
    repeated s (a curve that ends where it starts), where ds = 0."""
    out = np.zeros(len(s))
    if len(s) < 3 or s[1] == s[0]:
        return out
    rhs = case_rhs(case, h)
    df = (states[2:] - states[:-2]) / (2.0 * (s[1] - s[0]))
    f = np.zeros_like(df)
    defined = np.ones(len(df), dtype=bool)
    for i, y in enumerate(states[1:-1].tolist()):
        try:
            f[i] = rhs(*y)
        except (DomainError, SingularBoundaryError):
            defined[i] = False
    out[1:-1] = np.where(defined, np.max(np.abs(df - f), axis=1), 0.0)
    return out


def integrate_profile(case: ReducedCase, a: float, s_max: float = 20.0,
                      tol: float = 1e-10, h: float = 0.0,
                      c1_floor: Optional[float] = None,
                      n_samples: int = 801) -> ProfileCurve:
    """Integrate the reduced system from the standard start for a.

    Starts: elliptic/loxodromic/parabolic at the stratum point with
    parameter a > 0 and sigma = pi/2; special loxodromic additionally
    accepts a = 0 (the invariant line) and a < 0 (mirror image); special
    parabolic starts at the interior state (a, 0, pi/2). The tolerance
    is atol = tol and rtol = max(tol, 100 eps).
    """
    s_start = check_start(case, a, s_max, tol, h, n_samples)
    mirror = case.kind == SPECIAL_LOXODROMIC and a < 0.0
    a_run = -a if mirror else a
    if case.kind == PARABOLIC and c1_floor is None:
        c1_floor = 1e-8

    rhs = case_rhs(case, h)
    # Special parabolic curves run in (ln alpha, rho, sigma): alpha decays
    # toward the boundary, and no Runge-Kutta stage can then step to alpha <= 0.
    # At h = 0 they run in (ln alpha, rho, w), w = ln tan(sigma/2): there
    # sin(sigma) = I1 alpha^{2n+1} keeps sigma in (0, pi), and near pi an
    # error of pi tol in sigma would be one of pi tol / sin(sigma) in I1.
    log_alpha = case.kind == SPECIAL_PARABOLIC
    tan_half = log_alpha and h == 0.0
    if log_alpha:
        y0 = (math.log(a_run), 0.0, 0.0 if tan_half else 0.5 * math.pi)
        exp, atan2, sin = math.exp, math.atan2, math.sin

        def f_sigma(log_a, rho, sigma):
            alpha = exp(log_a)
            dc1, dc2, dsig = rhs(alpha, rho, sigma)
            return dc1 / alpha, dc2, dsig

        def f_w(log_a, rho, w):
            # sigma = 2 atan(e^w); w only grows from 0, so e^{-w} cannot overflow
            sigma = 2.0 * atan2(1.0, exp(-w))
            dlog_a, dc2, dsig = f_sigma(log_a, rho, sigma)
            return dlog_a, dc2, dsig / sin(sigma)

        f = f_w if tan_half else f_sigma
    else:
        f = rhs
        if case.kind == SPECIAL_LOXODROMIC and a_run == 0.0:
            y0 = (0.5 * TAYLOR_STEP, 0.5 * math.pi, 0.0)
        else:
            y0 = tuple(_taylor_start(case, a_run, TAYLOR_STEP).tolist())

    run = _dop853(f, s_start, y0, s_max, rtol=max(tol, 100.0 * EPS), atol=tol,
                  events=_events(case, c1_floor))

    s_nodes = np.array(run.t)
    states = np.array(run.y)
    uniform_s = np.linspace(s_start, s_nodes[-1], n_samples)
    uniform_states = _dense(run, uniform_s)
    if tan_half:
        log_a, abs_w = uniform_states[:, 0].copy(), np.abs(uniform_states[:, 2])
    for y in (states, uniform_states):
        if log_alpha:
            y[:, 0] = np.exp(y[:, 0])
        if tan_half:
            y[:, 2] = 2.0 * np.arctan2(1.0, np.exp(-y[:, 2]))
    if mirror:
        states = _mirror(states)
        uniform_states = _mirror(uniform_states)

    c1, c2, sigma = uniform_states.T
    V = volume_functional(case, (c1, c2))
    vals = first_integral_values(case, PhaseState(c1, c2, sigma))
    I1 = vals["I1"]
    if tan_half:
        # I1 = alpha^{-2n-1} sin(sigma) with sin(sigma) = 1/cosh(w), from the
        # integrated (ln alpha, w): near pi, sigma has rounded away what w keeps
        log_cosh_w = abs_w + np.log1p(np.exp(-2.0 * abs_w)) - math.log(2.0)
        I1 = np.exp(-(2 * case.n + 1) * log_a - log_cosh_w)
    return ProfileCurve(case=case, a=a, h=h, s=s_nodes, states=states,
                        uniform_s=uniform_s, uniform_states=uniform_states,
                        V=V, I1=I1,
                        I2=vals.get("I2", np.full(n_samples, np.nan)),
                        termination=run.event or "smax", nfev=run.nfev,
                        accepted=run.accepted, rejected=run.rejected)


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

    from scipy.integrate import quad

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

    from scipy.integrate import quad

    tail, err = quad(slope, 0.0, fin.c1, epsabs=1e-13, epsrel=1e-13)
    if not np.isfinite(tail):
        raise ExtrapolationError("tail quadrature failed")
    sign = 1.0 if fin.c2 >= 0 else -1.0
    return EndpointLimit(0.0, float(fin.c2 + sign * tail), True, "extrapolated")
