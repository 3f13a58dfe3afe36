import math
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.special import beta as beta_fn

import hqn.cli
import hqn.integrator
from hqn.dop853 import A, B, D, E3, E5, N_STAGES
from hqn.errors import DomainError, ExtrapolationError, SingularBoundaryError
from hqn.integrator import (
    EPS,
    MAX_STEPS,
    EndpointLimit,
    ProfileCurve,
    elliptic_integral_R,
    integrate_profile,
    limit_endpoint,
)
from hqn.reduction import (
    ELLIPTIC,
    LOXODROMIC,
    PARABOLIC,
    SPECIAL_LOXODROMIC,
    SPECIAL_PARABOLIC,
    PhaseState,
    LOG_ALPHA,
    RHS_GLOBALS,
    TAN_HALF,
    ReducedCase,
    case_rhs,
)
from residual_reference import residual_column


def test_elliptic_profile():
    case = ReducedCase(ELLIPTIC, 2, 1)
    c = integrate_profile(case, 1.0, s_max=20.0, tol=1e-10)
    assert c.termination == "smax"
    assert np.all(np.diff(c.s) > 0)
    r = c.uniform_states[:, 0]
    sig = c.uniform_states[:, 2]
    assert np.all(np.diff(r) > 0)
    assert np.all(sig > -np.pi / 2) and np.all(sig < np.pi / 2 + 1e-12)
    assert np.all(sig[1:] < np.pi / 2)


def test_growth_of_semi_integral():
    # dI/ds >= ((4n+1)/2) I, checked with forward differences against
    # the left sample
    for case, smax in [(ReducedCase(ELLIPTIC, 2, 1), 10.0),
                       (ReducedCase(LOXODROMIC, 3, 2), 8.0)]:
        c = integrate_profile(case, 1.0, s_max=smax, tol=1e-11)
        I, s = c.I1, c.uniform_s
        rate = (4 * case.n + 1) / 2.0
        dI = np.diff(I) / np.diff(s)
        assert np.all(dI >= rate * I[:-1])


def test_parabolic_profile():
    case = ReducedCase(PARABOLIC, 2, 1)
    c = integrate_profile(case, 1.0, s_max=100.0, tol=1e-10)
    assert c.termination == "c1_floor"
    al, rho, sig = c.uniform_states.T
    assert np.all(np.diff(al) < 0)
    assert np.all(np.diff(rho) > 0)
    assert np.all(np.diff(sig) > 0)
    assert al[-1] < 1e-7
    assert sig[-1] > np.pi / 2


def test_special_loxodromic_invariant_line():
    case = ReducedCase(SPECIAL_LOXODROMIC, 2)
    c = integrate_profile(case, 0.0, s_max=10.0, tol=1e-13)
    assert np.max(np.abs(c.uniform_states[:, 1] - np.pi / 2)) < 1e-12


def test_special_loxodromic_mirror():
    case = ReducedCase(SPECIAL_LOXODROMIC, 2)
    fam = [integrate_profile(case, a, s_max=5.0, tol=1e-11) for a in (-0.5, 0.0, 0.5)]
    cm, c0, cp = fam
    assert cm.a == -0.5 and cp.a == 0.5
    np.testing.assert_allclose(cm.uniform_states[:, 0],
                               cp.uniform_states[:, 0], atol=1e-12)
    np.testing.assert_allclose(cm.uniform_states[:, 1],
                               np.pi - cp.uniform_states[:, 1], atol=1e-12)
    np.testing.assert_allclose(cm.uniform_states[:, 2],
                               -cp.uniform_states[:, 2], atol=1e-12)


def test_special_parabolic_conservation():
    case = ReducedCase(SPECIAL_PARABOLIC, 2)
    c = integrate_profile(case, 1.0, s_max=50.0, tol=1e-12, c1_floor=0.3)
    assert np.max(np.abs(c.I1 - 1.0)) < 1e-8


@pytest.mark.parametrize("a", [0.2, 0.9, 2.0])
def test_special_parabolic_I1_column_at_h0(a):
    # I1 = alpha^{-5} sin(sigma) is conserved on the whole n = 2 curve: in
    # its tail sigma is within a rounding of pi, and I1 taken from sigma
    # there read up to 1e92 times a^{-5}
    case = ReducedCase(SPECIAL_PARABOLIC, 2)
    c = integrate_profile(case, a, s_max=50.0, tol=1e-11)
    assert c.termination == "smax"
    assert np.max(np.abs(c.I1 * a ** 5 - 1.0)) <= 1e-10


# a values whose tol-1e-11 curves once failed with an RK stage at alpha < 0
STAGE_FAILURE_A = [1.0874414337171368, 1.0897434186292159, 1.202390859257005,
                   1.1126284926983443, 1.6011720417059925]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("tol", [1e-6, 1e-11, 1e-13])
def test_special_parabolic_small_alpha(n, tol):
    case = ReducedCase(SPECIAL_PARABOLIC, n)
    for a in STAGE_FAILURE_A:
        c = integrate_profile(case, a, s_max=50.0, tol=tol)
        assert c.termination == "smax"
        assert np.all(c.uniform_states[:, 0] > 0.0)
        assert np.all(np.isfinite(c.uniform_states))
        assert c.uniform_states[-1, 0] < 1e-6 * a      # alpha has decayed


def test_special_parabolic_sigma_coordinate_at_nonzero_h():
    # away from h = 0 the special parabolic curve runs in (ln alpha, rho,
    # sigma), and sigma passes pi; counts and states are pinned to the bit
    case = ReducedCase(SPECIAL_PARABOLIC, 2)
    c = integrate_profile(case, 0.9, s_max=3.0, tol=1e-10, h=0.3, n_samples=3)
    assert (c.nfev, c.accepted, c.rejected, c.termination) == (374, 24, 1, "smax")
    np.testing.assert_array_equal(c.uniform_states, [
        [0.9, 0.0, 1.5707963267948966],
        [0.22846086928486092, 0.11293328294340248, 3.200509477447929],
        [0.051113773193162036, 0.09784126507828343, 3.2016280845987026]])
    np.testing.assert_array_equal(c.states[-1], c.uniform_states[-1])


def test_event_root_state_is_the_dense_output():
    # the kernel's state at an event root comes from the float interpolant,
    # the samples from the array one; at the root the two agree bit for bit
    curves = [integrate_profile(ReducedCase(PARABOLIC, 2, 1), a, s_max=60.0, tol=1e-10)
              for a in (0.5, 1.0, 2.0)]
    curves.append(integrate_profile(ReducedCase(SPECIAL_PARABOLIC, 3), 1.0, s_max=50.0,
                                    tol=1e-12, c1_floor=0.3))
    for c in curves:
        assert c.termination == "c1_floor"
        assert c.uniform_s[-1] == c.s[-1]
        np.testing.assert_array_equal(c.states[-1], c.uniform_states[-1])


def test_special_parabolic_floor_event():
    case = ReducedCase(SPECIAL_PARABOLIC, 2)
    c = integrate_profile(case, 1.0, s_max=50.0, tol=1e-12, c1_floor=0.3)
    assert c.termination == "c1_floor"
    assert c.final_state().c1 == pytest.approx(0.3, abs=1e-12)


def test_parabolic_dilation_family():
    # curves for a and e^2 a are related by (alpha, rho) -> (e^2 alpha, e rho)
    case = ReducedCase(PARABOLIC, 2, 1)
    e = np.e
    c1 = integrate_profile(case, 1.0, s_max=12.0, tol=1e-11, c1_floor=1e-6)
    c2 = integrate_profile(case, e * e, s_max=12.0, tol=1e-11, c1_floor=1e-6)
    s_hi = 0.999 * min(c1.uniform_s[-1], c2.uniform_s[-1])
    s_common = np.linspace(c1.uniform_s[0], s_hi, 200)
    a1 = np.vstack([np.interp(s_common, c1.uniform_s, c1.uniform_states[:, i])
                    for i in range(3)]).T
    a2 = np.vstack([np.interp(s_common, c2.uniform_s, c2.uniform_states[:, i])
                    for i in range(3)]).T
    np.testing.assert_allclose(a2[:, 0], e * e * a1[:, 0], rtol=1e-6)
    np.testing.assert_allclose(a2[:, 1], e * a1[:, 1], rtol=1e-6)
    np.testing.assert_allclose(a2[:, 2], a1[:, 2], atol=1e-6)


def test_elliptic_family_disjoint():
    case = ReducedCase(ELLIPTIC, 2, 1)
    fam = [integrate_profile(case, a, s_max=8.0, tol=1e-10) for a in (0.5, 1.0)]
    pts0 = fam[0].uniform_states[:, :2]
    pts1 = fam[1].uniform_states[:, :2]
    d = np.min(np.linalg.norm(pts0[:, None, :] - pts1[None, :, :], axis=2))
    assert d > 1e-3


def test_family_grid_curves_repeat_exactly():
    # the curves of an a grid keep the grid's order and repeat bit for bit
    case = ReducedCase(ELLIPTIC, 2, 1)
    grid = [0.4, 0.9, 1.3]
    first, second = ([integrate_profile(case, a, s_max=3.0, tol=1e-9) for a in grid]
                     for _ in range(2))
    assert [c.a for c in first] == grid
    for cs, cp in zip(first, second):
        assert cs.a == cp.a
        np.testing.assert_array_equal(cs.uniform_states, cp.uniform_states)


def test_step_halving():
    case = ReducedCase(ELLIPTIC, 2, 1)
    tol = 1e-9
    c1 = integrate_profile(case, 1.0, s_max=5.0, tol=tol)
    c2 = integrate_profile(case, 1.0, s_max=5.0, tol=tol / 16.0)
    assert np.max(np.abs(c1.uniform_states - c2.uniform_states)) < 10 * tol


def test_elliptic_integral_R():
    for n in (1, 2, 3, 4):
        p = 4 * n + 2
        oracle = beta_fn((4 * n + 3) / (8 * n + 4), 0.5) / (2 * p)
        assert elliptic_integral_R(n) == pytest.approx(oracle, abs=1e-10)
    assert elliptic_integral_R(2) == pytest.approx(0.1471, abs=5e-5)
    vals = [elliptic_integral_R(n) for n in range(1, 6)]
    assert np.all(np.diff(vals) < 0)


def test_elliptic_integral_R_matches_mpmath():
    # the gamma-function ratio is B(p, 1/2) / (2 (4n + 2)) to 1e-15 relative,
    # against 40 digits with the exact p
    with mpmath.workdps(40):
        for n in range(2, 41):
            p = mpmath.mpf(4 * n + 3) / (8 * n + 4)
            want = mpmath.beta(p, mpmath.mpf(1) / 2) / (2 * (4 * n + 2))
            assert abs(elliptic_integral_R(n) - want) <= 1e-15 * want


def _ending_at(n, alpha, sigma, rho=0.0):
    """A special parabolic curve, as limit_endpoint reads it, whose last
    sample is (alpha, rho, sigma)."""
    return SimpleNamespace(case=ReducedCase(SPECIAL_PARABOLIC, n), h=0.0,
                           termination="smax", final_state=lambda: PhaseState(alpha, rho, sigma))


def test_special_parabolic_tail_is_the_incomplete_beta():
    # the tail is sqrt(alpha) sin(sigma)^(-1/(4n+2)) B(sin^2 sigma; p, 1/2) / (2 (4n+2)),
    # on both sides of the reflection at sin^2 sigma = 1/2
    from scipy.special import beta, betainc

    rng = np.random.default_rng(26)
    reflected = 0
    for n in (2, 3, 4, 5):
        p = (4 * n + 3) / (8 * n + 4)
        for alpha, sigma in zip(10.0 ** rng.uniform(-300, math.log10(0.5), 400),
                                rng.uniform(0.0, math.pi, 400)):
            x = math.sin(sigma) ** 2
            reflected += x > 0.5
            want = (math.sqrt(alpha) * math.sin(sigma) ** (-1.0 / (4 * n + 2))
                    * betainc(p, 0.5, x) * beta(p, 0.5) / (2 * (4 * n + 2)))
            lim = limit_endpoint(_ending_at(n, alpha, sigma))
            assert lim.converged and lim.c1 == 0.0
            assert abs(lim.c2 - want) <= 1e-13 * want
            # the tail moves rho away from 0
            assert limit_endpoint(_ending_at(n, alpha, sigma, -1.0)).c2 == -1.0 - lim.c2
    assert 600 <= reflected <= 1000


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_special_parabolic_limit_matches_quadrature(n):
    # the closed-form tail gives the limit that the quadrature of
    # (1/2) I t^{2n+1/2} / sqrt(1 - (I t^{2n+1})^2) over [0, alpha] gave
    from scipy.integrate import quad

    case = ReducedCase(SPECIAL_PARABOLIC, n)
    for a in (0.2, 0.5, 1.0, 2.0):
        for s_max in (3.0, 10.0, 50.0):
            curve = integrate_profile(case, a, s_max=s_max, tol=1e-10)
            fin = curve.final_state()
            I = fin.c1 ** (-2 * n - 1) * math.sin(fin.sigma)
            tail, _ = quad(lambda t: 0.5 * I * t ** (2 * n + 0.5)
                           / math.sqrt(1.0 - (I * t ** (2 * n + 1)) ** 2),
                           0.0, fin.c1, epsabs=1e-13, epsrel=1e-13)
            want = fin.c2 + math.copysign(tail, fin.c2)
            assert limit_endpoint(curve).c2 == pytest.approx(want, rel=1e-13, abs=0.0)


def test_limit_endpoint_parabolic():
    case = ReducedCase(PARABOLIC, 2, 1)
    c = integrate_profile(case, 1.0, s_max=100.0, tol=1e-10)
    lim = limit_endpoint(c)
    assert lim.converged and lim.c1 == 0.0
    assert np.sqrt(1.0 / 3.0) <= lim.c2 <= np.sqrt(2.0 / 5.0)
    # short curve: tail not yet converged
    short = integrate_profile(case, 1.0, s_max=1.0, tol=1e-10)
    with pytest.raises(ExtrapolationError):
        limit_endpoint(short)


def test_limit_endpoint_special_parabolic():
    case = ReducedCase(SPECIAL_PARABOLIC, 2)
    c = integrate_profile(case, 1.0, s_max=50.0, tol=1e-12, c1_floor=0.3)
    lim = limit_endpoint(c)
    assert lim.converged
    assert lim.c2 == pytest.approx(elliptic_integral_R(2), abs=1e-6)


def test_limit_endpoint_elliptic_unconverged():
    case = ReducedCase(ELLIPTIC, 2, 1)
    c = integrate_profile(case, 1.0, s_max=5.0, tol=1e-9)
    lim = limit_endpoint(c)
    fin = c.final_state()
    assert not lim.converged and (lim.c1, lim.c2) == (fin.c1, fin.c2)


def test_limit_endpoint_refuses_h_nonzero():
    # both tails are h = 0 asymptotics: at h = 0.5 the special-parabolic
    # tail read rho 0.10005 off a curve that runs on to rho 0.04999
    for case, kw in ((ReducedCase(SPECIAL_PARABOLIC, 2), dict(s_max=800.0, c1_floor=0.3)),
                     (ReducedCase(PARABOLIC, 2, 1), dict(s_max=100.0))):
        curve = integrate_profile(case, 1.0, h=0.5, **kw)
        with pytest.raises(ExtrapolationError, match="h = 0.5"):
            limit_endpoint(curve)


def test_invalid_start():
    with pytest.raises(DomainError):
        integrate_profile(ReducedCase(ELLIPTIC, 2, 1), -1.0)
    with pytest.raises(DomainError):
        integrate_profile(ReducedCase(SPECIAL_PARABOLIC, 2), 0.0)
    # rejected before integrating: tol, s_max, a, h and n_samples
    ell, sl = ReducedCase(ELLIPTIC, 2, 1), ReducedCase(SPECIAL_LOXODROMIC, 2)
    for kwargs in (dict(tol=0.0), dict(tol=-1e-10), dict(tol=np.nan),
                   dict(tol=np.inf), dict(s_max=1e-4), dict(s_max=-1.0),
                   dict(s_max=np.inf), dict(s_max=np.nan), dict(h=np.nan),
                   dict(n_samples=-1)):
        with pytest.raises(DomainError):
            integrate_profile(ell, 1.0, **kwargs)
    for a in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            integrate_profile(sl, a)
    with pytest.raises(DomainError):
        integrate_profile(ReducedCase(SPECIAL_PARABOLIC, 2), 1.0, s_max=0.0)


def test_start_past_an_event_level():
    # a start at or past the level of one of the curve's events raises
    # before the first step: theta0 = s0 / (2 sinh a) < 1e-12 once a > ~18.4,
    # rho0 = sqrt(a) s0 / 2 < 1e-14, or c1 at or below its floor
    ell = ReducedCase(ELLIPTIC, 2, 1)
    assert integrate_profile(ell, 18.0, s_max=2.0, n_samples=5).accepted > 0
    for case, a in ((ell, 19.0), (ell, 25.0), (ell, 300.0),
                    (ReducedCase(LOXODROMIC, 3, 2), 19.0),
                    (ReducedCase(SPECIAL_LOXODROMIC, 2), -19.0)):
        with pytest.raises(SingularBoundaryError,
                           match=r"^a = .* starts the curve at theta0 = "):
            integrate_profile(case, a)
    with pytest.raises(SingularBoundaryError, match=r"at rho0 = sqrt\(a\) s0/2 = "):
        integrate_profile(ReducedCase(PARABOLIC, 2, 1), 1e-30, c1_floor=1e-40)
    with pytest.raises(SingularBoundaryError, match=r"not above its floor 1e-08; "):
        integrate_profile(ReducedCase(PARABOLIC, 2, 1), 1e-9)
    with pytest.raises(SingularBoundaryError,
                       match=r"^a = 0.5 starts the curve at c1 = 0.5, not above its floor 0.5; "):
        integrate_profile(ReducedCase(SPECIAL_PARABOLIC, 2), 0.5, c1_floor=0.5)


@pytest.mark.parametrize("h", [0.0, 0.5])
def test_special_parabolic_stops_at_least_normal_alpha(h):
    # in ln(alpha), exp(ln alpha) is 0 past ln(alpha) ~ -745 and every
    # stage is refused there; by default the curve stops at the least
    # normal float before that, at s ~ 709 for a = 1
    case = ReducedCase(SPECIAL_PARABOLIC, 2)
    c = integrate_profile(case, 1.0, s_max=800.0, h=h)
    assert c.termination == "c1_floor" and c.s[-1] < 800.0
    assert c.states[-1, 0] == pytest.approx(sys.float_info.min, rel=1e-12)
    if h == 0.0:
        # the minimal curve's limit is R(2) (for a CMC curve it is not)
        R = elliptic_integral_R(2)
        assert abs(abs(limit_endpoint(c).c2) - R) <= 1e-6 * R
    with pytest.raises(SingularBoundaryError, match=r"^a = 5e-324 starts the curve at "
                       r"c1 = 5e-324, not above its floor 2.2250738585072014e-308; "):
        integrate_profile(case, 5e-324, h=h)


def test_start_past_sigma_names_sigma(monkeypatch):
    # a parabolic start with sigma0 past the sigma_event level pi names
    # sigma0 and that level, not rho0, which is clear of its own level
    taylor_start = hqn.integrator._taylor_start

    def sigma_past_pi(case, a, s0):
        y0 = taylor_start(case, a, s0)
        y0[2] = 3.2
        return y0

    monkeypatch.setattr(hqn.integrator, "_taylor_start", sigma_past_pi)
    with pytest.raises(SingularBoundaryError) as err:
        integrate_profile(ReducedCase(PARABOLIC, 2, 1), 1.0)
    assert str(err.value) == (
        f"a = 1.0 starts the curve at sigma0 = pi/2 + rate s0 = 3.2, at or past "
        f"its sigma_event level {np.pi!r}; choose another a")


def test_residual_diagnostics():
    # the column is the step's error estimate: finite, not negative, of
    # the tolerance's order, and one value per step
    case = ReducedCase(ELLIPTIC, 2, 1)
    c = integrate_profile(case, 1.0, s_max=5.0, tol=1e-10, n_samples=2001)
    assert np.all(np.isfinite(c.residual)) and np.all(c.residual >= 0.0)
    assert 0.0 < np.max(c.residual) < 1e-9
    # the step whose interpolant gives each sample
    steps = np.clip(np.searchsorted(c.s, c.uniform_s, side="left") - 1, 0, c.accepted - 1)
    for k in np.unique(steps):
        assert np.all(c.residual[steps == k] == c.residual[steps == k][0])
    assert len(np.unique(c.residual)) > 1


def _count_evaluations(monkeypatch, name):
    """Count the right-hand-side evaluations of every compiled right-hand side
    and DOP853 step through their globals: the calls of RHS_GLOBALS[name],
    which rhs_lines calls once per evaluation past its guards, plus the
    guards that raise."""
    calls = []

    def counted(fn):
        def call(*args):
            calls.append(1)
            return fn(*args)
        return call

    for key in (name, "DomainError", "SingularBoundaryError"):
        monkeypatch.setitem(RHS_GLOBALS, key, counted(RHS_GLOBALS[key]))
    return calls


def test_curve_calls_the_right_hand_side_nfev_times(monkeypatch, tmp_path):
    # `hqn curve` evaluates the right-hand side only in the kernel, and nfev
    # counts every evaluation the generated steps and f make: the residual
    # column costs none. These cases call sin once per evaluation.
    calls, curves = _count_evaluations(monkeypatch, "sin"), []
    integrate = hqn.integrator.integrate_profile

    def kept(*args, **kwargs):
        curves.append(integrate(*args, **kwargs))
        return curves[-1]

    monkeypatch.setattr(hqn.cli, "integrate_profile", kept)
    for flags in ("elliptic --n 2 --m 1", "loxodromic --n 3 --m 2",
                  "parabolic --n 2 --m 1 --smax 60", "special-parabolic --n 2 --smax 50",
                  "special-parabolic --n 2 --smax 50 --h 0.3"):
        calls.clear()
        assert hqn.cli.main(["curve", "--case", *flags.split(), "--a", "1", "--tol", "1e-11",
                             "--out", str(tmp_path / "c.csv")]) == 0
        assert len(calls) == curves[-1].nfev > 0


def test_residual_of_a_curve_ending_at_its_start():
    # at h = 1e30 the parabolic curve stops at its first step, at its start:
    # every sample has the same s and reads that step's estimate, without
    # a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = integrate_profile(ReducedCase(PARABOLIC, 2, 1), 1.0, h=1e30)
        assert np.all(c.uniform_s == c.uniform_s[0])
        assert np.all(np.isfinite(c.residual)) and np.all(c.residual >= 0.0)
        assert np.all(c.residual == c.residual[0])


def _residual_per_sample(case, s, states):
    """residual_column sample by sample: 0 where the right-hand side raises."""
    rhs, ds = case_rhs(case), s[1] - s[0]
    out = np.zeros(len(s))
    for i in range(1, len(s) - 1):
        try:
            f = rhs(*states[i].tolist())
        except (DomainError, SingularBoundaryError):
            continue
        out[i] = np.max(np.abs((states[i + 1] - states[i - 1]) / (2.0 * ds) - f))
    return out


def test_residual_where_one_sample_leaves_the_orbit_space():
    # a sample where the right-hand side raises reads 0; the others keep
    # their values
    case = ReducedCase(ELLIPTIC, 2, 1)
    c = integrate_profile(case, 1.0, s_max=5.0, tol=1e-10, n_samples=201)
    s, states = c.uniform_s, c.uniform_states.copy()
    np.testing.assert_array_equal(residual_column(case, 0.0, s, states),
                                  _residual_per_sample(case, s, states))
    states[100, 1] = -0.25      # theta < 0: a singular stratum
    got = residual_column(case, 0.0, s, states)
    assert got[100] == 0.0 and np.all(got[1:100] > 0.0)
    np.testing.assert_array_equal(got, _residual_per_sample(case, s, states))


# ---------------------------------------------------------------------------
# the DOP853 kernel against scipy's solve_ivp

# The curve cases of the benchmark: (case, s_max, a range).
BENCH_CASES = [
    (ReducedCase(ELLIPTIC, 2, 1), 20.0, (0.2, 2.0)),
    (ReducedCase(LOXODROMIC, 3, 2), 20.0, (0.2, 2.0)),
    (ReducedCase(SPECIAL_LOXODROMIC, 2), 20.0, (-1.0, 1.0)),
    (ReducedCase(PARABOLIC, 2, 1), 60.0, (0.2, 2.0)),
    (ReducedCase(SPECIAL_PARABOLIC, 2), 50.0, (0.2, 2.0)),
]
BENCH_IDS = [case.kind for case, _, _ in BENCH_CASES]


def test_tableau_is_scipys():
    from scipy.integrate._ivp import dop853_coefficients as ref

    from hqn import dop853

    def dense(rows, shape):
        out = np.zeros(shape)
        for i, row in enumerate(rows):
            for j, v in row:
                out[i, j] = v
        return out

    assert dop853.N_STAGES == ref.N_STAGES
    np.testing.assert_array_equal(dense(dop853.A, ref.A.shape), ref.A)
    np.testing.assert_array_equal(dense([dop853.B], (1, len(ref.B)))[0], ref.B)
    np.testing.assert_array_equal(dense([dop853.E3], (1, len(ref.E3)))[0], ref.E3)
    np.testing.assert_array_equal(dense([dop853.E5], (1, len(ref.E5)))[0], ref.E5)
    np.testing.assert_array_equal(dense(dop853.D, ref.D.shape), ref.D)
    # _loop_attempt forms the B, E5 and E3 sums in one pass over shared columns
    assert ([j for j, _ in dop853.B] == [j for j, _ in dop853.E5]
            == [j for j, _ in dop853.E3])


def _loop_attempt(f, y, fy, dt, dt_abs, rtol, atol):
    """One DOP853 attempt as loops over the tableau's rows: the reference
    the generated step must match bit for bit. It returns what _step does,
    with the calls counted as the loop's kernel counted them: 12 for an
    attempt rejected on its error, 15 for an accepted one, and len(K),
    the failed call included, when f raises."""
    y0_, y1_, y2_ = y
    K = [fy]
    try:
        for row in A[1:N_STAGES]:
            d0 = d1 = d2 = 0.0
            for j, a in row:
                k = K[j]
                d0 += a * k[0]
                d1 += a * k[1]
                d2 += a * k[2]
            K.append(f(y0_ + d0 * dt, y1_ + d1 * dt, y2_ + d2 * dt))
        b0 = b1 = b2 = p0 = p1 = p2 = q0 = q1 = q2 = 0.0
        for (j, b), (_, e5), (_, e3) in zip(B, E5, E3):
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
        y_new = (y0_ + dt * b0, y1_ + dt * b1, y2_ + dt * b2)
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
            error_norm = dt_abs * err5 / math.sqrt((err5 + 0.01 * err3) * 3.0)
        if not error_norm < 1.0:
            return error_norm, None, N_STAGES
        K.append(f_new)
        for row in A[N_STAGES + 1:]:
            d0 = d1 = d2 = 0.0
            for j, a in row:
                k = K[j]
                d0 += a * k[0]
                d1 += a * k[1]
                d2 += a * k[2]
            K.append(f(y0_ + d0 * dt, y1_ + d1 * dt, y2_ + d2 * dt))
    except (ValueError, OverflowError):
        return math.nan, None, len(K)
    coef = [y0_, y1_, y2_]
    for i in range(3):
        coef.append(y_new[i] - y[i])
    for i in range(3):
        coef.append(dt * fy[i] - coef[3 + i])
    for i in range(3):
        coef.append(2.0 * coef[3 + i] - dt * (f_new[i] + fy[i]))
    for row in D:
        d0 = d1 = d2 = 0.0
        for j, dd in row:
            k = K[j]
            d0 += dd * k[0]
            d1 += dd * k[1]
            d2 += dd * k[2]
        coef += (dt * d0, dt * d1, dt * d2)
    return error_norm, (y_new, f_new, coef), N_STAGES + 3


def _hex(x):
    """Floats, in nested sequences, as float.hex: -0.0 and NaN count."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return tuple(_hex(v) for v in x)
    return x


def _in_coords(rhs, coords):
    """A special parabolic right-hand side in coords, composed from rhs in
    (alpha, rho, sigma) as the integrator composed it before rhs_lines
    wrote the change of coordinates in: the reference for that change."""
    if coords is None:
        return rhs

    def f_sigma(log_a, rho, sigma):
        alpha = math.exp(log_a)
        dc1, dc2, dsig = rhs(alpha, rho, sigma)
        return dc1 / alpha, dc2, dsig

    def f_w(log_a, rho, w):
        sigma = 2.0 * math.atan2(1.0, math.exp(-w))
        dlog_a, dc2, dsig = f_sigma(log_a, rho, sigma)
        return dlog_a, dc2, dsig / math.sin(sigma)

    return f_sigma if coords == LOG_ALPHA else f_w


def _attempt(case, coords, h, y, dt, tol):
    """(the generated step's result, the loop's over case_rhs) for one
    attempt of dt from y at mean curvature h; the two right-hand sides
    agree at y to the bit."""
    f = _in_coords(case_rhs(case, h), coords)
    fy = f(*y)
    assert _hex(case_rhs(case, h, coords)(*y)) == _hex(fy)
    args = (dt, abs(dt), max(tol, 100.0 * EPS), tol)
    return (hqn.integrator._make_step(case, coords)(*y, *fy, *args, h),
            _loop_attempt(f, y, fy, *args))


# the cases of each kind the generated steps are checked in: every term that
# rhs_lines can leave out (C = 0 at elliptic n = 2m and loxodromic n = m + 1,
# A + 1 = 0 at loxodromic n = 2m - 1) is left out of one and kept in another
STEP_CASES = {
    ELLIPTIC: [ReducedCase(ELLIPTIC, 2, 1), ReducedCase(ELLIPTIC, 3, 1),
               ReducedCase(ELLIPTIC, 3, 2)],
    LOXODROMIC: [ReducedCase(LOXODROMIC, 3, 2), ReducedCase(LOXODROMIC, 4, 2),
                 ReducedCase(LOXODROMIC, 5, 3)],
    SPECIAL_LOXODROMIC: [ReducedCase(SPECIAL_LOXODROMIC, 2),
                         ReducedCase(SPECIAL_LOXODROMIC, 3)],
    PARABOLIC: [ReducedCase(PARABOLIC, 2, 1), ReducedCase(PARABOLIC, 3, 1),
                ReducedCase(PARABOLIC, 3, 2)],
    SPECIAL_PARABOLIC: [ReducedCase(SPECIAL_PARABOLIC, 2),
                        ReducedCase(SPECIAL_PARABOLIC, 3)],
}


@pytest.mark.parametrize("case,s_max,a_range", BENCH_CASES, ids=BENCH_IDS)
def test_generated_step_is_the_loop(case, s_max, a_range):
    # seeded nodes of curves at h = 0, 0.3 and -1, with steps from a quarter
    # to 32 times the curve's own: accepted and rejected attempts, and
    # attempts whose evaluations raise. Special
    # parabolic steps run in (ln alpha, rho, w) at h = 0 and in (ln alpha,
    # rho, sigma) otherwise; the special loxodromic a < 0 is a mirrored curve.
    rng = np.random.default_rng(23)
    lo, hi = a_range
    outcomes = set()
    for other in STEP_CASES[case.kind]:
        for h in (0.0, 0.3, -1.0):
            coords = None
            if case.kind == SPECIAL_PARABOLIC:
                coords = TAN_HALF if h == 0.0 else LOG_ALPHA
            for a in (lo + 0.3 * (hi - lo), lo + 0.8 * (hi - lo)):
                for tol in (1e-6, 1e-11):
                    c = integrate_profile(other, a, s_max=s_max, tol=tol, h=h, n_samples=5)
                    for k in rng.integers(0, len(c.s) - 1, 6):
                        y = c.states[k].tolist()
                        if coords is not None:
                            y[0] = math.log(y[0])
                        if coords == TAN_HALF:
                            y[2] = math.log(math.tan(0.5 * y[2]))
                        dt = float(c.s[k + 1] - c.s[k]) * 2.0 ** rng.uniform(-2.0, 5.0)
                        got, want = _attempt(other, coords, h, tuple(y), dt, tol)
                        assert _hex(got) == _hex(want)
                        assert len(got[1][2]) == 24 if got[1] else got[2] <= 12
                        outcomes.add("raised" if math.isnan(got[0]) else
                                     "accepted" if got[1] else "rejected")
    assert outcomes == {"accepted", "rejected", "raised"}


def test_generated_step_counts_the_calls_of_a_raising_stage(monkeypatch):
    # an evaluation that raises at call i (the stages, then the end, then the
    # three dense-output stages) gives a NaN norm and i calls, in every kind
    # and coordinates; each right-hand side calls `name` once per evaluation
    for case, coords, y, name in (
            (ReducedCase(ELLIPTIC, 2, 1), None, (1.0, 0.5, 1.0), "sinh"),
            (ReducedCase(LOXODROMIC, 3, 2), None, (1.0, 0.5, 1.0), "sinh"),
            (ReducedCase(SPECIAL_LOXODROMIC, 2), None, (1.0, 2.0, 1.0), "tan"),
            (ReducedCase(PARABOLIC, 2, 1), None, (1.0, 0.5, 1.0), "sin"),
            (ReducedCase(SPECIAL_PARABOLIC, 2), LOG_ALPHA, (0.0, 0.5, 1.0), "sin"),
            (ReducedCase(SPECIAL_PARABOLIC, 2), TAN_HALF, (0.0, 0.5, 1.0), "sin")):
        dt = 0.01
        got, want = _attempt(case, coords, 0.0, y, dt, 1e-10)
        assert got[0] < 1.0 and got[2] == want[2] == N_STAGES + 3
        f = _in_coords(case_rhs(case), coords)
        fy, args = f(*y), (dt, dt, 1e-10, 1e-10)

        def failing(at, real=RHS_GLOBALS[name]):
            calls = []

            def fn(*x):
                calls.append(1)
                if len(calls) == at:
                    raise (OverflowError if at % 2 else DomainError)("stage")
                return real(*x)
            monkeypatch.setitem(RHS_GLOBALS, name, fn)

        for at in range(1, N_STAGES + 4):
            failing(at)
            got = hqn.integrator._make_step(case, coords)(*y, *fy, *args, 0.0)
            failing(at)
            want = _loop_attempt(f, y, fy, *args)
            assert _hex(got) == _hex(want) == ("nan", None, at)
        monkeypatch.undo()


def test_generated_step_rejects_a_nan_error_norm():
    # at h = 1e300 every sigma slope rounds to 1e300 and no evaluation
    # raises; over a step of 1e-300 the error sums overflow to inf, and the
    # norm is inf / inf
    case, h, y, returned = ReducedCase(ELLIPTIC, 2, 1), 1e300, (1.0, 0.5, 1.0), []
    rhs = case_rhs(case, h)
    fy = rhs(*y)

    def f(*state):
        returned.append(rhs(*state))
        return returned[-1]

    got = hqn.integrator._make_step(case)(*y, *fy, 1e-300, 1e-300, 1e-10, 1e-10, h)
    want = _loop_attempt(f, y, fy, 1e-300, 1e-300, 1e-10, 1e-10)
    assert math.isnan(got[0]) and got[1:] == (None, N_STAGES)
    assert len(returned) == N_STAGES
    assert _hex(got) == _hex(want)


def _scipy_states(curve, tol):
    """solve_ivp(DOP853) on case_rhs from the curve's first node to its last,
    in (ln alpha, rho, sigma) for special parabolic curves and in the mirror
    image for special loxodromic a < 0, sampled at the curve's uniform
    grid."""
    from scipy.integrate import solve_ivp

    case = curve.case
    log_alpha = case.kind == SPECIAL_PARABOLIC
    mirror = case.kind == SPECIAL_LOXODROMIC and curve.a < 0
    flip = lambda y: y * [1.0, -1.0, -1.0] + [0.0, np.pi, 0.0]
    y0 = flip(curve.states[0]) if mirror else curve.states[0].copy()

    rhs = case_rhs(case)

    def f(s, y):
        if log_alpha:
            alpha = np.exp(y[0])
            d1, d2, d3 = rhs(alpha, y[1], y[2])
            return d1 / alpha, d2, d3
        return rhs(*y)

    if log_alpha:
        y0[0] = np.log(y0[0])
    sol = solve_ivp(f, (curve.s[0], curve.s[-1]), y0, method="DOP853",
                    rtol=max(tol, 100 * np.finfo(float).eps), atol=tol,
                    dense_output=True)
    assert sol.status == 0
    out = sol.sol(curve.uniform_s).T
    if log_alpha:
        out[:, 0] = np.exp(out[:, 0])
    return flip(out) if mirror else out


@pytest.mark.parametrize("case,s_max,a_range", BENCH_CASES, ids=BENCH_IDS)
def test_kernel_accuracy_against_scipy(case, s_max, a_range):
    # the kernel's error against a tol-1e-13 scipy run is at most about
    # scipy's own at the same tol
    for a in np.linspace(*a_range, 5)[1:-1]:
        curve = integrate_profile(case, float(a), s_max=s_max, tol=1e-11,
                                  n_samples=201)
        ref = _scipy_states(curve, 1e-13)
        own = np.max(np.abs(_scipy_states(curve, 1e-11) - ref))
        dev = np.max(np.abs(curve.uniform_states - ref))
        assert dev <= 2.0 * own + 1e-12, (a, dev, own)


@pytest.mark.parametrize("case,s_max,a_range", BENCH_CASES, ids=BENCH_IDS)
def test_kernel_sweep_raises_nothing(case, s_max, a_range):
    lo, hi = a_range
    u = (np.arange(20) + np.random.default_rng(7).random(20)) / 20
    for a in lo + (hi - lo) * u:
        for tol in (1e-11, 1e-13):
            curve = integrate_profile(case, float(a), s_max=s_max, tol=tol,
                                      n_samples=5)
            assert np.all(np.isfinite(curve.uniform_states))


@pytest.mark.parametrize("case,s_max,a_range", BENCH_CASES, ids=BENCH_IDS)
def test_cmc_sweep_raises_nothing(case, s_max, a_range):
    # a step whose stages leave the orbit space is rejected, so every CMC
    # curve ends on s_max or a named event; a failed stage ends its step's
    # calls early
    for h in (0.1, -0.1, 1.0, -1.0, 3.0, -3.0):
        for a in (0.3, 0.7, 1.5):
            for tol in (1e-6, 1e-8, 1e-10):
                curve = integrate_profile(case, a, s_max=s_max, tol=tol, h=h,
                                          n_samples=5)
                assert curve.termination in ("smax", "domain_exit",
                                             "sigma_event", "c1_floor")
                assert np.all(np.isfinite(curve.uniform_states))
                assert curve.nfev <= 2 + 15 * curve.accepted + 12 * curve.rejected


@pytest.mark.parametrize("case,s_max,a_range", BENCH_CASES, ids=BENCH_IDS)
def test_kernel_counts(case, s_max, a_range):
    a = float(np.mean(a_range)) + 0.1
    c1, c2 = (integrate_profile(case, a, s_max=s_max, tol=1e-11, n_samples=5)
              for _ in range(2))
    assert (c1.nfev, c1.accepted, c1.rejected) == (c2.nfev, c2.accepted, c2.rejected)
    np.testing.assert_array_equal(c1.states, c2.states)
    assert c1.accepted == len(c1.s) - 1
    # f(y0) and the initial-step probe, 12 stages per attempt, 3 more per
    # accepted step for the dense output
    assert c1.nfev == 2 + 12 * (c1.accepted + c1.rejected) + 3 * c1.accepted


@pytest.mark.parametrize("case,s_max,a_range", BENCH_CASES, ids=BENCH_IDS)
def test_residual_falls_with_tol(case, s_max, a_range):
    # the residual column tracks tol: a thousandfold tighter tol lowers its
    # maximum at least a hundredfold
    loose, tight = (integrate_profile(case, a_range[1] / 2.0, s_max=s_max, tol=tol)
                    for tol in (1e-8, 1e-11))
    assert np.max(tight.residual) * 100.0 <= np.max(loose.residual)
    for c in (loose, tight):
        assert np.all(np.isfinite(c.residual)) and np.all(c.residual >= 0.0)


def test_huge_h_spends_the_step_budget():
    # at h = 1e30 every step is accepted at 10 spacing(s), so without a
    # budget the run would take ~1e16 steps; the subprocess bounds the wait
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
            "from hqn.errors import StepSizeUnderflow\n"
            "from hqn.integrator import integrate_profile\n"
            "from hqn.reduction import ReducedCase\n"
            "try:\n"
            "    integrate_profile(ReducedCase('elliptic', 2, 1), 1.0, h=1e30)\n"
            "except StepSizeUnderflow as exc:\n"
            "    print(exc)\n")
    out = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                         capture_output=True, text=True, timeout=30).stdout
    head = f"step budget of {MAX_STEPS} steps spent at s = "
    assert out.startswith(head)
    assert 0.0 < float(out[len(head):]) < 20.0
