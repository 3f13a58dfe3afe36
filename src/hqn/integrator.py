"""Adaptive integration of the reduced ODE systems.

The systems are singular on the orbit-space boundary strata, so curves
that start there take one second-order Taylor step (sized s0) before the
adaptive integrator takes over. The integrator is a DOP853 loop on
Python floats for the three-component state, with SciPy's step control
and event semantics; events (domain exit, sigma reaching pi, a floor on
c1) are located on the step's interpolant. One attempt of a step is
straight-line code generated per case on first use, from the tableau and
the case's right-hand side (reduction.rhs_lines) written in.
"""

from __future__ import annotations

import functools
import itertools
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
    LOG_ALPHA,
    LOXODROMIC,
    PARABOLIC,
    POLAR_KINDS,
    SPECIAL_LOXODROMIC,
    SPECIAL_PARABOLIC,
    TAN_HALF,
    PhaseState,
    ReducedCase,
    boundary_sigma_rate,
    case_rhs,
    compile_function,
    first_integral_values,
    rhs_lines,
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
    residual: np.ndarray          # error estimate of the step holding each sample
    termination: str
    nfev: int                     # right-hand side evaluations
    accepted: int                 # steps, len(s) - 1
    rejected: int

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
    (c1, c2, sigma) triples, and err[k] its error_norm."""

    t: list
    y: list
    h: list
    coef: list
    err: list
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


def _step_source(case: ReducedCase, coords: Optional[str] = None) -> str:
    """The source of _step, one DOP853 attempt for the case's right-hand side
    (in coords, as case_rhs takes them), written out from the tableau with
    the statements of rhs_lines at each of its 15 evaluations.

    _step(y0, y1, y2, k0_0, k0_1, k0_2, dt, dt_abs, rtol, atol, h) tries the
    step dt from the state y with slope k0 = f(y), f the right-hand side at
    mean curvature h, and returns (error_norm, (y_new, f_new, coef) or None,
    calls). An accepted attempt (error_norm < 1.0) returns the end state,
    its slope and the 24 terms of _Run.coef; calls is 15. A rejected one
    returns None, with calls 12; when an evaluation raises ValueError or
    OverflowError, error_norm is NaN and calls counts the evaluations made,
    the failed one included. Stage j's slope is kj_0, kj_1, kj_2 (k12 is
    f_new), and every sum over a tableau row is the flat left-associative
    0.0 + w * kj_c + ... in column order: the IEEE operations of a loop over
    the rows calling f, in its order, so the bits are the loop's.
    """
    args, rhs, value = rhs_lines(case, coords)

    def dot(row, c):
        return "(0.0 + " + " + ".join(f"{w!r} * k{j}_{c}" for j, w in row) + ")"

    def evaluate(j, state):
        return ([f"calls = {j}"] + [f"{a} = {x}" for a, x in zip(args, state)] + rhs
                + [f"k{j}_0, k{j}_1, k{j}_2 = {', '.join(value)}"])

    def stage(j):
        return evaluate(j, [f"y{c} + {dot(A[j], c)} * dt" for c in range(3)])

    body = [line for j in range(1, N_STAGES) for line in stage(j)]
    body += [f"n{c} = y{c} + dt * {dot(B, c)}" for c in range(3)]
    body += evaluate(N_STAGES, ["n0", "n1", "n2"])
    for c in range(3):
        body += [f"u, v = abs(y{c}), abs(n{c})",
                 f"s{c} = atol + (v if v > u else u) * rtol",   # max(u, v)
                 f"p{c} = {dot(E5, c)} / s{c}",
                 f"q{c} = {dot(E3, c)} / s{c}"]
    body += ["err5 = p0 * p0 + p1 * p1 + p2 * p2",
             "err3 = q0 * q0 + q1 * q1 + q2 * q2",
             "error_norm = 0.0 if err5 == 0.0 and err3 == 0.0 else "
             "dt_abs * err5 / sqrt((err5 + 0.01 * err3) * 3.0)",
             "if not error_norm < 1.0:",
             f"    return error_norm, None, {N_STAGES}"]
    body += [line for j in range(N_STAGES + 1, len(A)) for line in stage(j)]
    body += [f"a{c} = n{c} - y{c}" for c in range(3)]
    coef = ([f"y{c}" for c in range(3)] + [f"a{c}" for c in range(3)]
            + [f"dt * k0_{c} - a{c}" for c in range(3)]
            + [f"2.0 * a{c} - dt * (k{N_STAGES}_{c} + k0_{c})" for c in range(3)]
            + [f"dt * {dot(row, c)}" for row in D for c in range(3)])
    body.append("coef = " + ", ".join(coef))
    return "\n".join(
        ["def _step(y0, y1, y2, k0_0, k0_1, k0_2, dt, dt_abs, rtol, atol, h):",
         "    try:"]
        + ["        " + line for line in body]
        + ["    except (ValueError, OverflowError):",
           "        return float('nan'), None, calls",
           f"    return error_norm, ((n0, n1, n2), (k{N_STAGES}_0, k{N_STAGES}_1, "
           f"k{N_STAGES}_2), coef), {N_STAGES + 3}", ""])


@functools.cache
def _make_step(case: ReducedCase, coords: Optional[str] = None):
    """The case's _step, compiled from _step_source on first use."""
    return compile_function(_step_source(case, coords), "_step",
                            f"<dop853 step, {case.kind}>")


def _dop853(case: ReducedCase, coords: Optional[str], h: float, t0: float,
            y0: State, t_bound: float, rtol: float, atol: float,
            events: list[_Event]) -> _Run:
    """Integrate the autonomous system y' = f(y), f = case_rhs(case, h,
    coords), from (t0, y0) towards t_bound with scipy's DOP853: its initial
    step, error norm, step factors and step-size underflow, and its event
    rule (a sign change of g between step ends, g <= 0 <= g_new or
    g >= 0 >= g_new). A step is rejected with factor MIN_FACTOR, where
    scipy would propagate the error, when f raises ValueError or
    OverflowError at one of its stages, its end or the three stages of its
    dense output: the state left the orbit space (DomainError,
    SingularBoundaryError, a math domain error) or the float range. Only
    f(y0) and the initial-step probe raise out of the run. Every event is
    terminal: the run ends at the earliest root, located on the step's
    interpolant, with y there from the interpolant. A run that tries more
    than MAX_STEPS steps raises StepSizeUnderflow.
    """
    f, step = case_rhs(case, h, coords), _make_step(case, coords)
    run = _Run([t0], [y0], [], [], [])
    t_append, y_append, h_append = run.t.append, run.y.append, run.h.append
    coef_append, err_append = run.coef.append, run.err.append
    t, y = t0, y0
    fy = f(*y)
    h_abs = _initial_step(f, y, fy, t_bound - t0, rtol, atol)
    nfev, accepted, rejected_steps = 2, 0, 0
    g = [ev.sign * (y[ev.index] - ev.level) for ev in events]
    while True:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise StepSizeUnderflow(
                    f"required step size is less than spacing between numbers at s = {t!r}")
            if accepted + rejected_steps >= MAX_STEPS:
                raise StepSizeUnderflow(
                    f"step budget of {MAX_STEPS} steps spent at s = {t!r}")
            t_new = min(t + h_abs, t_bound)
            dt = t_new - t
            h_abs = abs(dt)
            error_norm, new, calls = step(*y, *fy, dt, h_abs, rtol, atol, h)
            nfev += calls
            if error_norm < 1.0:
                factor = (MAX_FACTOR if error_norm == 0.0 else
                          min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            # a NaN norm, from f raising, gives MIN_FACTOR
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
            rejected_steps += 1
        accepted += 1
        y_new, f_new, coef = new
        h_append(dt)
        coef_append(coef)
        err_append(error_norm)

        g_new = [ev.sign * (y_new[ev.index] - ev.level) for ev in events]
        hit = None
        for ev, g_old, g_end in zip(events, g, g_new):
            if g_old <= 0.0 <= g_end or g_old >= 0.0 >= g_end:
                terms = coef[ev.index::3]
                root = _brentq(lambda s, ev=ev, t=t, dt=dt, terms=terms: ev.sign * (
                    _interpolate(terms, (s - t) / dt) - ev.level), t, t_new)
                if hit is None or root < hit[0]:
                    hit = (root, ev.name)
        if hit is not None:
            root, run.event = hit
            x = (root - t) / dt
            t_append(root)
            y_append(tuple(_interpolate(coef[i::3], x) for i in range(3)))
            break
        t_append(t_new)
        y_append(y_new)
        if t_new >= t_bound:
            break
        t, y, fy, g = t_new, y_new, f_new, g_new
    run.nfev, run.accepted, run.rejected = nfev, accepted, rejected_steps
    return run


def _dense(run: _Run, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The run's dense output at the points s, as (len(s), 3) rows, and
    the index of the step that gives each point; a point on a node takes
    the earlier step's interpolant."""
    t, steps = np.array(run.t), len(run.coef)
    seg = np.clip(np.searchsorted(t, s, side="left") - 1, 0, steps - 1)
    coef = np.fromiter(itertools.chain.from_iterable(run.coef), float,
                       24 * steps).reshape(-1, 8, 3)[seg]
    x = ((s - t[seg]) / np.array(run.h)[seg])[:, None]
    return _interpolate(np.moveaxis(coef, 1, 0), x), seg


# ---------------------------------------------------------------------------
# profile curves


def _taylor_start(case: ReducedCase, a: float, s0: float) -> np.ndarray:
    """Second-order start orthogonal to the singular stratum. Past a ~ 710
    sinh(a) overflows: theta0 is 0, on the stratum, and f(y0) raises."""
    rate = boundary_sigma_rate(case, a)
    if case.kind in POLAR_KINDS:
        with np.errstate(over="ignore"):
            theta0 = s0 / (2.0 * np.sinh(a))
        return np.array([a - rate * s0 ** 2 / 4.0, theta0, 0.5 * np.pi + rate * s0])
    return np.array([a * (1.0 - rate * s0 ** 2 / 2.0),
                     0.5 * np.sqrt(a) * s0,
                     0.5 * np.pi + rate * s0])


def _events(case: ReducedCase, c1_floor: Optional[float]) -> list[_Event]:
    events = []
    if case.kind in POLAR_KINDS:
        events += [_Event("domain_exit", 1, 1e-12),
                   _Event("domain_exit", 1, case.theta_max - 1e-12, -1.0)]
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


def integrate_profile(case: ReducedCase, a: float, s_max: float = 20.0,
                      tol: float = 1e-10, h: float = 0.0,
                      c1_floor: Optional[float] = None,
                      n_samples: int = 801) -> ProfileCurve:
    """Integrate the reduced system from the standard start for a.

    Starts: elliptic/loxodromic/parabolic at the stratum point with
    parameter a > 0 and sigma = pi/2; special loxodromic additionally
    accepts a = 0 (the invariant line) and a < 0 (mirror image); special
    parabolic starts at the interior state (a, 0, pi/2). The tolerance
    is atol = tol and rtol = max(tol, 100 eps). A start that is not clear
    of the singular strata (f raises there, or the start state is at or
    past the level of one of the curve's events: in the polar cases
    theta0 < 1e-12 once a > ~18.4) or not above the c1 floor raises
    SingularBoundaryError.
    """
    s_start = check_start(case, a, s_max, tol, h, n_samples)
    mirror = case.kind == SPECIAL_LOXODROMIC and a < 0.0
    a_run = -a if mirror else a
    if c1_floor is None:
        # special parabolic curves run in ln(alpha), and past ln(alpha) ~ -745
        # exp gives alpha = 0, where the right-hand side refuses every stage:
        # they stop at the least normal float
        c1_floor = {PARABOLIC: 1e-8, SPECIAL_PARABOLIC: sys.float_info.min}.get(case.kind)

    # Special parabolic curves run in (ln alpha, rho, sigma): alpha decays
    # toward the boundary, and no Runge-Kutta stage can then step to alpha <= 0.
    # At h = 0 they run in (ln alpha, rho, w), w = ln tan(sigma/2): there
    # sin(sigma) = I1 alpha^{2n+1} keeps sigma in (0, pi), and near pi an
    # error of pi tol in sigma would be one of pi tol / sin(sigma) in I1.
    log_alpha = case.kind == SPECIAL_PARABOLIC
    tan_half = log_alpha and h == 0.0
    coords = TAN_HALF if tan_half else LOG_ALPHA if log_alpha else None
    if log_alpha:
        y0 = (math.log(a_run), 0.0, 0.0 if tan_half else 0.5 * math.pi)
    elif case.kind == SPECIAL_LOXODROMIC and a_run == 0.0:
        y0 = (0.5 * TAYLOR_STEP, 0.5 * math.pi, 0.0)
    else:
        y0 = tuple(_taylor_start(case, a_run, TAYLOR_STEP).tolist())

    def off_start(ev: Optional[_Event] = None):
        # f raised at the start (ev None), or the start is at or past the
        # level of ev: theta0 or rho0 on a stratum, or parabolic sigma0 past pi
        if ev is not None and ev.index == 2:
            return SingularBoundaryError(
                f"a = {a!r} starts the curve at sigma0 = pi/2 + rate s0 = {y0[2]!r}, "
                f"at or past its {ev.name} level {ev.level!r}; choose another a")
        start = ("theta0 = s0/(2 sinh |a|)" if case.kind in POLAR_KINDS
                 else "rho0 = sqrt(a) s0/2")
        return SingularBoundaryError(
            f"a = {a!r} starts the curve at {start} = {y0[1]!r}, which is not "
            "clear of the singular strata; choose another a")

    events = _events(case, c1_floor)
    # a start at or past an event level would end, or never end, the curve
    # by a crossing in the wrong direction
    for ev in events:
        if not ev.sign * (y0[ev.index] - ev.level) > 0.0:
            if ev.name != "c1_floor":
                raise off_start(ev)
            c1 = a_run if log_alpha else y0[0]
            raise SingularBoundaryError(
                f"a = {a!r} starts the curve at c1 = {c1!r}, not above its "
                f"floor {c1_floor!r}; choose another a")
    rtol, atol = max(tol, 100.0 * EPS), tol
    try:
        run = _dop853(case, coords, h, s_start, y0, s_max, rtol=rtol, atol=atol,
                      events=events)
    except SingularBoundaryError:
        # a stage that raises is a rejected step, so this is f at the
        # start or the initial-step probe next to it
        raise off_start() from None

    s_nodes = np.array(run.t)
    states = np.array(run.y)
    uniform_s = np.linspace(s_start, s_nodes[-1], n_samples)
    uniform_states, seg = _dense(run, uniform_s)
    # step k's own error estimate, in the integrated coordinates: its
    # error_norm weighs each component's error by 1 / (atol + rtol
    # max(|y_k|, |y_{k+1}|)), so times the largest of those it is absolute
    ends = np.abs(states)
    scale = atol + rtol * np.max(np.maximum(ends[:-1], ends[1:]), axis=1)
    residual = (np.array(run.err) * scale)[seg]
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
    # far out (r past ~80 at n = 2) V and I1 overflow to inf or NaN
    I2 = np.full(n_samples, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        V = volume_functional(case, (c1, c2))
        if case.kind in POLAR_KINDS:
            # first_integral_values' I1 = V cos(sigma), from the V at hand
            I1 = V * np.cos(sigma)
        elif tan_half:
            # I1 = alpha^{-2n-1} sin(sigma) with sin(sigma) = 1/cosh(w), from the
            # integrated (ln alpha, w): near pi, sigma has rounded away what w keeps
            log_cosh_w = abs_w + np.log1p(np.exp(-2.0 * abs_w)) - math.log(2.0)
            I1 = np.exp(-(2 * case.n + 1) * log_a - log_cosh_w)
        else:
            vals = first_integral_values(case, PhaseState(c1, c2, sigma))
            I1, I2 = vals["I1"], vals.get("I2", I2)
    return ProfileCurve(case=case, a=a, h=h, s=s_nodes, states=states,
                        uniform_s=uniform_s, uniform_states=uniform_states,
                        V=V, I1=I1, I2=I2, residual=residual,
                        termination=run.event or "smax", nfev=run.nfev,
                        accepted=run.accepted, rejected=run.rejected)


def _beta_half(p: float) -> float:
    """The complete beta function B(p, 1/2)."""
    return math.gamma(p) * math.sqrt(math.pi) / math.gamma(p + 0.5)


def _beta_series(x: float, a: float, c: float) -> float:
    """sum_k (c)_k x^k / (k! (a + k)) for 0 <= x <= 1/2, to rounding: the
    hypergeometric series of x^-a B(x; a, 1 - c)."""
    total, term = 0.0, 1.0
    for k in range(64):       # (c)_k / k! <= 1 for c <= 1: term k is below 2^-k
        add = term / (a + k)
        total += add
        if add <= EPS * total:
            break
        term *= (c + k) * x / (k + 1)
    return total


def elliptic_integral_R(n: int) -> float:
    """The total transverse displacement R of the special parabolic
    solution through (1, 0, pi/2):

        R = (1/2) integral_0^1 sqrt(t^{4n+1} / (1 - t^{4n+2})) dt
          = B(p, 1/2) / (2 (4n + 2)),  p = (4n + 3) / (8n + 4),

    by x = t^{4n+2}.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    return _beta_half((4 * n + 3) / (8 * n + 4)) / (2 * (4 * n + 2))


@dataclass(frozen=True)
class EndpointLimit:
    c1: float
    c2: float
    converged: bool


def limit_endpoint(curve: ProfileCurve) -> EndpointLimit:
    """Extrapolated endpoint of the orbit-space curve.

    Parabolic curves stopped at a small alpha floor get a tail
    correction for rho from the tangent-slope sandwich; special
    parabolic curves add the exact tail, an incomplete beta function of
    the conserved quantity. Both tails are h = 0 asymptotics: a curve
    with h != 0 raises ExtrapolationError. Elliptic and loxodromic curves
    have no finite limit and the final sample is returned unconverged.
    """
    case = curve.case
    n, m = case.n, case.m
    fin = curve.final_state()
    if case.kind in (ELLIPTIC, LOXODROMIC, SPECIAL_LOXODROMIC):
        return EndpointLimit(fin.c1, fin.c2, False)
    if curve.h != 0:
        raise ExtrapolationError(f"the {case.kind} tail is that of h = 0, not h = {curve.h!r}")
    if case.kind == PARABOLIC:
        if curve.termination not in ("sigma_event", "c1_floor") or fin.c1 > 1e-6:
            raise ExtrapolationError("curve tail has not reached small alpha")
        lo = (4 * n - 4 * m - 1) / (4 * n + 1)
        hi = (4 * n - 4 * m) / (4 * n + 2)
        c = 0.5 * (lo + hi)
        rho_lim = float(np.sqrt(fin.c2 ** 2 + c * fin.c1))
        return EndpointLimit(0.0, rho_lim, True)
    # special parabolic: I = alpha^{-2n-1} sin(sigma) is conserved, so the rest
    # of the curve adds (1/2) int_0^alpha I t^{2n+1/2} / sqrt(1 - (I t^{2n+1})^2) dt
    # to |rho|. By x = (I t^{2n+1})^2 that is, with x = sin^2(sigma) here,
    # sqrt(alpha) sin(sigma) x^-p B(x; p, 1/2) / (2 (4n + 2)); past x = 1/2,
    # B(x; p, 1/2) = B(p, 1/2) - B(1 - x; 1/2, p). alpha^{-2n-1} is never formed.
    if fin.c1 > 0.5:
        raise ExtrapolationError("curve tail has not reached small alpha")
    p = (4 * n + 3) / (8 * n + 4)
    sin, cos = math.sin(fin.sigma), math.cos(fin.sigma)
    x = sin * sin
    if x <= 0.5:
        S = _beta_series(x, p, 0.5)
    else:
        S = (_beta_half(p) - abs(cos) * _beta_series(cos * cos, 0.5, 1.0 - p)) / x ** p
    tail = math.sqrt(fin.c1) * sin * S / (2 * (4 * n + 2))
    sign = 1.0 if fin.c2 >= 0 else -1.0
    return EndpointLimit(0.0, float(fin.c2 + sign * tail), True)
