import os

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
    ReducedCase,
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
    case = ReducedCase(ELLIPTIC, 2, 1)
    grid = [0.4, 0.9, 1.3]
    serial = generate_family(case, grid, s_max=3.0, tol=1e-9)
    old = os.environ.get("HQN_THREADS")
    os.environ["HQN_THREADS"] = "3"
    try:
        parallel = generate_family(case, grid, s_max=3.0, tol=1e-9)
    finally:
        if old is None:
            del os.environ["HQN_THREADS"]
        else:
            os.environ["HQN_THREADS"] = old
    for cs, cp in zip(serial, parallel):
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


def test_residual_diagnostics():
    case = ReducedCase(ELLIPTIC, 2, 1)
    c = integrate_profile(case, 1.0, s_max=5.0, tol=1e-10, n_samples=2001)
    assert np.nanmax(c.residual) < 1e-4
    assert c.residual[0] == 0.0 and c.residual[-1] == 0.0
