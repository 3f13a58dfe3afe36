import numpy as np
import pytest
from scipy.special import beta as beta_fn

from hqn.errors import DomainError, ExtrapolationError
from hqn.integrator import (
    EndpointLimit,
    ProfileCurve,
    elliptic_integral_R,
    generate_family,
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
    ReducedCase,
    ode_rhs,
)


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
    fam = generate_family(case, [-0.5, 0.0, 0.5], s_max=5.0, tol=1e-11)
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
    fam = generate_family(case, [0.5, 1.0], s_max=8.0, tol=1e-10)
    pts0 = fam[0].uniform_states[:, :2]
    pts1 = fam[1].uniform_states[:, :2]
    d = np.min(np.linalg.norm(pts0[:, None, :] - pts1[None, :, :], axis=2))
    assert d > 1e-3


def test_family_grid_order_and_threads():
    # families run serially, in grid order, and repeat exactly
    case = ReducedCase(ELLIPTIC, 2, 1)
    grid = [0.4, 0.9, 1.3]
    first = generate_family(case, grid, s_max=3.0, tol=1e-9)
    second = generate_family(case, grid, s_max=3.0, tol=1e-9)
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
    assert not lim.converged and lim.tag == "NotConverged"


def test_invalid_start():
    with pytest.raises(DomainError):
        integrate_profile(ReducedCase(ELLIPTIC, 2, 1), -1.0)
    with pytest.raises(DomainError):
        integrate_profile(ReducedCase(SPECIAL_PARABOLIC, 2), 0.0)
    # rejected before integrating: tol, s_max, a and h
    ell, sl = ReducedCase(ELLIPTIC, 2, 1), ReducedCase(SPECIAL_LOXODROMIC, 2)
    for kwargs in (dict(tol=0.0), dict(tol=-1e-10), dict(tol=np.nan),
                   dict(tol=np.inf), dict(s_max=1e-4), dict(s_max=-1.0),
                   dict(s_max=np.inf), dict(s_max=np.nan), dict(h=np.nan)):
        with pytest.raises(DomainError):
            integrate_profile(ell, 1.0, **kwargs)
    for a in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            integrate_profile(sl, a)
    with pytest.raises(DomainError):
        integrate_profile(ReducedCase(SPECIAL_PARABOLIC, 2), 1.0, s_max=0.0)


def test_residual_diagnostics():
    case = ReducedCase(ELLIPTIC, 2, 1)
    c = integrate_profile(case, 1.0, s_max=5.0, tol=1e-10, n_samples=2001)
    assert np.nanmax(c.residual) < 1e-4
    assert c.residual[0] == 0.0 and c.residual[-1] == 0.0


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
    # the kernel forms B, E5 and E3 sums in one pass over shared columns
    assert ([j for j, _ in dop853.B] == [j for j, _ in dop853.E5]
            == [j for j, _ in dop853.E3])


def _scipy_states(curve, tol):
    """solve_ivp(DOP853) on ode_rhs from the curve's first node to its last,
    in the coordinates integrate_profile integrates (ln alpha for special
    parabolic curves, the mirror image for special loxodromic a < 0),
    sampled at the curve's uniform grid."""
    from scipy.integrate import solve_ivp

    case = curve.case
    log_alpha = case.kind == SPECIAL_PARABOLIC
    mirror = case.kind == SPECIAL_LOXODROMIC and curve.a < 0
    flip = lambda y: y * [1.0, -1.0, -1.0] + [0.0, np.pi, 0.0]
    y0 = flip(curve.states[0]) if mirror else curve.states[0].copy()

    def f(s, y):
        if log_alpha:
            alpha = np.exp(y[0])
            d1, d2, d3 = ode_rhs(case, PhaseState(alpha, y[1], y[2]))
            return d1 / alpha, d2, d3
        return ode_rhs(case, PhaseState(*y))

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
