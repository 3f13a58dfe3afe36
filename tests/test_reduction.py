import numpy as np
import pytest

from hqn.charts import (
    BALL,
    HORO,
    ball_point,
    convert,
    coords_array,
    horo_point,
    metric_matrix,
    point_from_array,
)
from hqn.errors import (
    DomainError,
    NoSingularStratumError,
    SingularBoundaryError,
)
from hqn.isometries import act
from hqn.oracles import section_point
from hqn.quaternion import QI, Quaternion
from hqn.reduction import (
    ALL_KINDS,
    ELLIPTIC,
    LOXODROMIC,
    PARABOLIC,
    SPECIAL_LOXODROMIC,
    SPECIAL_PARABOLIC,
    PhaseState,
    ReducedCase,
    boundary_sigma_rate,
    case_rhs,
    explicit_solutions,
    first_integral_values,
    orbit_project,
    orbital_metric,
    random_symmetry,
    uv_from_polar,
    volume_functional,
)

CASES = [
    ReducedCase(ELLIPTIC, 2, 1),
    ReducedCase(ELLIPTIC, 3, 2),
    ReducedCase(LOXODROMIC, 3, 2),
    ReducedCase(SPECIAL_LOXODROMIC, 2),
    ReducedCase(SPECIAL_LOXODROMIC, 3),
    ReducedCase(PARABOLIC, 2, 1),
    ReducedCase(PARABOLIC, 3, 1),
    ReducedCase(SPECIAL_PARABOLIC, 2),
]


def random_ball_point(rng, n=2, rmax=0.8):
    v = rng.standard_normal(4 * n)
    v *= rng.uniform(0.05, rmax) / np.linalg.norm(v)
    return point_from_array(BALL, v, n)


def random_interior_state(case, rng):
    if case.kind in (ELLIPTIC, LOXODROMIC):
        return PhaseState(rng.uniform(0.3, 2.0), rng.uniform(0.2, 1.3),
                          rng.uniform(-1.2, 1.2))
    if case.kind == SPECIAL_LOXODROMIC:
        return PhaseState(rng.uniform(0.3, 2.0), rng.uniform(0.2, 2.9),
                          rng.uniform(-1.2, 1.2))
    return PhaseState(rng.uniform(0.3, 3.0), rng.uniform(0.2, 2.0),
                      rng.uniform(-1.2, 1.2))


def test_case_validation():
    with pytest.raises(DomainError):
        ReducedCase(ELLIPTIC, 2, 2)
    with pytest.raises(DomainError):
        ReducedCase(LOXODROMIC, 2, 1)
    with pytest.raises(DomainError):
        ReducedCase(SPECIAL_PARABOLIC, 2, 1)
    for kind in (ELLIPTIC, LOXODROMIC, PARABOLIC):
        with pytest.raises(DomainError):
            ReducedCase(kind, 3)
    assert len(ALL_KINDS) == 5


def test_exponent_identities():
    for case in CASES:
        if case.kind not in (ELLIPTIC, LOXODROMIC):
            continue
        A, B, C, D = case.exponents
        assert A + 2 * B == 4 * case.n + 1
        assert C + D == 4 * case.n - 4 * case.m - 1


def test_orbit_project_examples():
    case = ReducedCase(ELLIPTIC, 2, 1)
    assert orbit_project(case, ball_point([0.5, 0])) == pytest.approx(
        (np.arctanh(0.5), 0.0))
    case = ReducedCase(SPECIAL_LOXODROMIC, 2)
    assert orbit_project(case, ball_point([0, 0])) == pytest.approx((0.0, 0.0))
    case = ReducedCase(SPECIAL_PARABOLIC, 2)
    p = horo_point([Quaternion(2.0, 1.0)], 1.0, 0)
    assert orbit_project(case, p) == pytest.approx((1.0, 2.0))


def test_special_loxodromic_section_map():
    # section points x_{n-1} = kb, x_n = kc land at the disc point
    # (u, v) = (c, |b|), that is at r = artanh |(c, b)|, theta = arg(c + i|b|)
    case = ReducedCase(SPECIAL_LOXODROMIC, 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        b, c = rng.uniform(-0.5, 0.5, 2)
        if b * b + c * c >= 0.9:
            continue
        p = ball_point([Quaternion(0, 0, 0, b), Quaternion(0, 0, 0, c)])
        r, theta = orbit_project(case, p)
        assert r == pytest.approx(np.arctanh(np.hypot(c, b)), abs=1e-12)
        assert theta == pytest.approx(np.arctan2(abs(b), c), abs=1e-12)


def test_orbit_invariance():
    rng = np.random.default_rng(1)
    for case in CASES:
        n = case.n
        for _ in range(15):
            p = random_ball_point(rng, n, rmax=0.7)
            g = random_symmetry(case, rng)
            a = orbit_project(case, p)
            b = orbit_project(case, act(g, p))
            np.testing.assert_allclose(b, a, atol=1e-10)


def test_orbital_metric_examples():
    case = ReducedCase(ELLIPTIC, 2, 1)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    r, th = 0.8, 0.6
    assert orbital_metric(case, (r, th), e1, e1) == pytest.approx(4.0)
    assert orbital_metric(case, (r, th), e2, e2) == pytest.approx(
        4.0 * np.sinh(r) ** 2)
    assert orbital_metric(case, (r, th), e1, e2) == 0.0
    pcase = ReducedCase(PARABOLIC, 2, 1)
    assert orbital_metric(pcase, (1.0, 0.7), e2, e2) == pytest.approx(4.0)
    assert orbital_metric(pcase, (0.5, 0.7), e1, e1) == pytest.approx(4.0)


def test_orbital_metric_polar_agreement():
    # the metric in the ODE coordinates is the ambient metric pulled back
    # along the section: the section meets the orbits orthogonally
    rng = np.random.default_rng(2)
    h = 1e-6
    for case in CASES:
        for _ in range(5):
            c = np.array([rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.3)])
            w = rng.standard_normal(2)
            dx = (coords_array(section_point(case, *(c + h * w)))
                  - coords_array(section_point(case, *(c - h * w)))) / (2 * h)
            ambient = dx @ metric_matrix(section_point(case, *c)) @ dx
            assert orbital_metric(case, c, w, w) == pytest.approx(ambient, rel=1e-7)


def test_volume_examples():
    case = ReducedCase(ELLIPTIC, 2, 1)
    v = volume_functional(case, (1.0, np.pi / 4))
    assert v == pytest.approx(np.sinh(1.0) ** 3 * np.sinh(2.0) ** 3, rel=1e-12)
    pcase = ReducedCase(PARABOLIC, 2, 1)
    assert volume_functional(pcase, (1.0, 1.0)) == 1.0
    spcase = ReducedCase(SPECIAL_PARABOLIC, 2)
    assert volume_functional(spcase, (4.0, 0.3)) == pytest.approx(4.0 ** -4.5)


def test_special_loxodromic_volume_identity():
    # the polar form with the cubed bracket equals the disc form
    # (1 + u^2)^3 v^{4n-5} / (1 - u^2 - v^2)^{(4n+1)/2} exactly
    rng = np.random.default_rng(3)
    for n in (2, 3):
        case = ReducedCase(SPECIAL_LOXODROMIC, n)
        r = rng.uniform(0.1, 1.5, 50)
        th = rng.uniform(0.1, np.pi - 0.1, 50)
        u, v = uv_from_polar(r, th)
        disc = (1.0 + u * u) ** 3 * v ** (4 * n - 5) / (1.0 - u * u - v * v) ** (2 * n + 0.5)
        np.testing.assert_allclose(volume_functional(case, (r, th)), disc, rtol=1e-10)


def test_volume_vanishes_on_strata():
    for case in CASES:
        if case.kind in (ELLIPTIC, LOXODROMIC):
            assert volume_functional(case, (1.0, 0.0)) == 0.0
            assert volume_functional(case, (1.0, np.pi / 2)) \
                == pytest.approx(0.0, abs=1e-30)
        elif case.kind == SPECIAL_LOXODROMIC:
            assert volume_functional(case, (1.0, 0.0)) == 0.0
            assert volume_functional(case, (1.0, np.pi)) \
                == pytest.approx(0.0, abs=1e-12)
        elif case.kind == PARABOLIC:
            assert volume_functional(case, (1.0, 0.0)) == 0.0


def test_ode_rhs_transcription():
    # direct check of one elliptic state against the displayed system
    case = ReducedCase(ELLIPTIC, 2, 1)
    r, th, sg, h = 0.9, 0.5, 0.3, 0.7
    d1, d2, d3 = case_rhs(case, h)(r, th, sg)
    assert d1 == pytest.approx(0.5 * np.cos(sg))
    assert d2 == pytest.approx(0.5 * np.sin(sg) / np.sinh(r))
    n, m = 2, 1
    expect = (((2 * n - 4 * m) / np.tan(th) + (4 * m - 1) / np.tan(2 * th))
              * np.cos(sg) / np.sinh(r)
              - ((2 * n - 2) / np.tanh(r) + 3 / np.tanh(2 * r)) * np.sin(sg) + h)
    assert d3 == pytest.approx(expect, rel=1e-14)

    # parabolic display
    pcase = ReducedCase(PARABOLIC, 2, 1)
    al, rho = 1.3, 0.8
    d1, d2, d3 = case_rhs(pcase, h)(al, rho, sg)
    assert d1 == pytest.approx(al * np.cos(sg))
    assert d2 == pytest.approx(0.5 * np.sqrt(al) * np.sin(sg))
    assert d3 == pytest.approx((2 * n - 2 * m - 0.5) * np.sqrt(al) / rho
                               * np.cos(sg) + (2 * n + 1) * np.sin(sg) + h)


def test_ode_rhs_singular_strata():
    case = ReducedCase(ELLIPTIC, 2, 1)
    with pytest.raises(SingularBoundaryError):
        case_rhs(case)(1.0, 0.0, 0.5)
    with pytest.raises(SingularBoundaryError):
        case_rhs(case)(1.0, np.pi / 2, 0.5)
    with pytest.raises(SingularBoundaryError):
        case_rhs(ReducedCase(PARABOLIC, 2, 1))(1.0, 0.0, 0.5)
    # theta = pi/2 is interior for the special loxodromic case
    case_rhs(ReducedCase(SPECIAL_LOXODROMIC, 2))(1.0, np.pi / 2, 0.5)


def test_reconstruction_from_volume():
    # dsigma/ds must follow from finite differences of ln V alone
    rng = np.random.default_rng(4)
    h = 1e-6
    for case in CASES:
        for _ in range(100):
            st = random_interior_state(case, rng)
            c1, c2 = st.c1, st.c2
            lv = lambda a, b: np.log(volume_functional(case, (a, b)))
            if case.kind in (ELLIPTIC, LOXODROMIC, SPECIAL_LOXODROMIC):
                P_fd = 0.5 * (lv(c1, c2 + h) - lv(c1, c2 - h)) / (2 * h)
                Q_fd = 0.5 * ((lv(c1 + h, c2) - lv(c1 - h, c2)) / (2 * h)
                              + 1.0 / np.tanh(c1))
                expect = (P_fd * np.cos(st.sigma) / np.sinh(c1)
                          - Q_fd * np.sin(st.sigma))
            else:
                e2 = 0.5 * np.sqrt(c1)
                P_fd = e2 * (lv(c1, c2 + h) - lv(c1, c2 - h)) / (2 * h)
                Q_fd = c1 * (lv(c1 + h, c2) - lv(c1 - h, c2)) / (2 * h) - 0.5
                expect = P_fd * np.cos(st.sigma) - Q_fd * np.sin(st.sigma)
            got = case_rhs(case, 0.0)(st.c1, st.c2, st.sigma)[2]
            assert got == pytest.approx(expect, rel=1e-6, abs=1e-6)


def test_boundary_sigma_rate():
    case = ReducedCase(ELLIPTIC, 2, 1)
    expect = -(2 / np.tanh(1.0) + 3 / np.tanh(2.0)) / 4.0
    assert boundary_sigma_rate(case, 1.0) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(-1.4345, abs=1e-4)

    pcase = ReducedCase(PARABOLIC, 2, 1)
    assert boundary_sigma_rate(pcase, 1.0) == pytest.approx(5.0 / 4.0)
    assert boundary_sigma_rate(pcase, 3.7) == pytest.approx(5.0 / 4.0)

    sl = ReducedCase(SPECIAL_LOXODROMIC, 2)
    a = 0.8
    expect = -((4 * 2 - 4) / np.tanh(a) + 6 * np.tanh(2 * a)) / (2 * (4 * 2 - 4))
    assert boundary_sigma_rate(sl, a) == pytest.approx(expect, rel=1e-12)

    with pytest.raises(NoSingularStratumError):
        boundary_sigma_rate(ReducedCase(SPECIAL_PARABOLIC, 2), 1.0)
    with pytest.raises(DomainError):
        boundary_sigma_rate(case, -1.0)


def test_boundary_sigma_rate_matches_integration():
    # integrate from a tiny offset and Richardson-extrapolate dsigma/ds
    from scipy.integrate import solve_ivp

    for case, a in [(ReducedCase(ELLIPTIC, 2, 1), 1.0),
                    (ReducedCase(SPECIAL_LOXODROMIC, 2), 0.8),
                    (ReducedCase(PARABOLIC, 2, 1), 1.0)]:
        rate = boundary_sigma_rate(case, a)
        vals = []
        for s0 in (2e-4, 1e-4):
            if case.kind == PARABOLIC:
                y0 = [a * (1 - rate * s0 ** 2 / 2), 0.5 * np.sqrt(a) * s0,
                      np.pi / 2 + rate * s0]
            else:
                y0 = [a - rate * s0 ** 2 / 4, s0 / (2 * np.sinh(a)),
                      np.pi / 2 + rate * s0]
            f = lambda s, y, rhs=case_rhs(case): rhs(*y)
            sol = solve_ivp(f, (s0, 0.05), y0, rtol=1e-12, atol=1e-12,
                            dense_output=True)
            sig = sol.sol(0.05)[2]
            vals.append((sig - np.pi / 2) / 0.05)
        # both offsets must give the same secant slope near the stratum
        assert vals[0] == pytest.approx(vals[1], abs=1e-6)
        assert vals[1] == pytest.approx(rate, rel=0.05)


def test_explicit_solutions():
    rng = np.random.default_rng(5)
    for case in CASES:
        for sol in explicit_solutions(case):
            for _ in range(10):
                a = float(rng.uniform(0.3, 2.0))
                t = float(rng.uniform(0.2, 1.5))
                st = sol.state(a, t)
                h = sol.h(a)
                d1, d2, d3 = case_rhs(case, h)(st.c1, st.c2, st.sigma)
                # the family parameter direction is constant: no drift in
                # sigma, and the transverse coordinate is frozen
                assert d3 == pytest.approx(0.0, abs=1e-12)
                if abs(np.sin(st.sigma)) < 1e-12:
                    assert d2 == pytest.approx(0.0, abs=1e-12)
                else:
                    assert d1 == pytest.approx(0.0, abs=1e-12)


def test_explicit_solution_values():
    case = ReducedCase(ELLIPTIC, 2, 1)
    cone = explicit_solutions(case)[0]
    assert cone.state(1.0, 1.0).c2 == pytest.approx(np.pi / 4)
    sphere = explicit_solutions(case)[1]
    assert sphere.h(1.0) == pytest.approx(2 / np.tanh(1.0) + 3 / np.tanh(2.0))
    assert sphere.h(1.0) == pytest.approx(5.7380, abs=1e-4)

    lox = ReducedCase(LOXODROMIC, 3, 2)
    tube = explicit_solutions(lox)[1]
    assert tube.h(1.0) == pytest.approx(7 / np.tanh(2.0), rel=1e-12)
    assert tube.h(1.0) == pytest.approx(7.2612, abs=1e-4)

    par = ReducedCase(PARABOLIC, 2, 1)
    horo = explicit_solutions(par)[0]
    assert horo.h(0.5) == pytest.approx(5.0)


def test_cone_angle_zeroes_P():
    # at sigma = 0 the polar system reads dsigma/ds = P / sinh r
    for case in CASES:
        if case.kind not in (ELLIPTIC, LOXODROMIC):
            continue
        A, B, C, D = case.exponents
        theta_star = np.arctan(np.sqrt((C + D) / D))
        P = case_rhs(case)(1.0, theta_star, 0.0)[2] * np.sinh(1.0)
        assert P == pytest.approx(0.0, abs=1e-13)


def test_parabolic_dilation_equivariance():
    case = ReducedCase(PARABOLIC, 2, 1)
    rng = np.random.default_rng(6)
    for _ in range(20):
        st = random_interior_state(case, rng)
        t = float(rng.uniform(-1, 1))
        e = np.exp(t)
        scaled = PhaseState(e * e * st.c1, e * st.c2, st.sigma)
        d = case_rhs(case, 0.0)(st.c1, st.c2, st.sigma)
        ds = case_rhs(case, 0.0)(scaled.c1, scaled.c2, scaled.sigma)
        # ds scales trivially: alpha' by e^2, rho' by e, sigma' unchanged
        assert ds[0] == pytest.approx(e * e * d[0], rel=1e-12)
        assert ds[1] == pytest.approx(e * d[1], rel=1e-12)
        assert ds[2] == pytest.approx(d[2], rel=1e-12)


def test_first_integral_values():
    sp = ReducedCase(SPECIAL_PARABOLIC, 2)
    assert first_integral_values(sp, PhaseState(1.0, 0.0, np.pi / 2))["I1"] \
        == pytest.approx(1.0)
    par = ReducedCase(PARABOLIC, 2, 1)
    vals = first_integral_values(par, PhaseState(0.7, 0.0, np.pi / 2))
    assert vals["I1"] == 0.0 and vals["I2"] == 0.0
    ell = ReducedCase(ELLIPTIC, 2, 1)
    assert first_integral_values(ell, PhaseState(1.0, 0.4, np.pi / 2))["I1"] \
        == pytest.approx(0.0, abs=1e-13)


def test_parabolic_integral_signs():
    # along the h = 0 flow: I grows, J decays
    from scipy.integrate import solve_ivp

    case = ReducedCase(PARABOLIC, 2, 1)
    a = 1.0
    rate = boundary_sigma_rate(case, a)
    s0 = 1e-4
    y0 = [a * (1 - rate * s0 ** 2 / 2), 0.5 * np.sqrt(a) * s0,
          np.pi / 2 + rate * s0]
    f = lambda s, y, rhs=case_rhs(case): rhs(*y)
    sol = solve_ivp(f, (s0, 2.0), y0, rtol=1e-11, atol=1e-11, dense_output=True)
    samples = np.linspace(0.01, 2.0, 40)
    I_vals, J_vals = [], []
    for s in samples:
        y = sol.sol(s)
        vals = first_integral_values(case, PhaseState(*y))
        I_vals.append(vals["I1"])
        J_vals.append(vals["I2"])
    I_vals, J_vals = np.array(I_vals), np.array(J_vals)
    assert np.all(I_vals > 0) and np.all(np.diff(I_vals) > 0)
    assert np.all(J_vals < 0) and np.all(np.diff(J_vals) < 0)


def test_in_domain():
    # the orbit-space metric is defined at r >= 0 and at alpha > 0
    e1 = np.array([1.0, 0.0])
    for case in CASES:
        assert orbital_metric(case, (0.9, 0.5), e1, e1) > 0.0
        bad = -0.1 if case.kind in (ELLIPTIC, LOXODROMIC, SPECIAL_LOXODROMIC) else 0.0
        with pytest.raises(DomainError):
            orbital_metric(case, (bad, 0.5), e1, e1)


def test_polar_uv_round_trip():
    # uv_from_polar takes arrays, equal to its values at the points alone;
    # test_section_round_trip inverts it through orbit_project
    rng = np.random.default_rng(7)
    r, th = rng.uniform(0.1, 2.0, 50), rng.uniform(0.05, np.pi / 2 - 0.05, 50)
    u, v = uv_from_polar(r, th)
    assert [uv_from_polar(a, b) for a, b in zip(r.tolist(), th.tolist())] \
        == list(zip(u.tolist(), v.tolist()))
    np.testing.assert_allclose(np.hypot(u, v), np.tanh(r), rtol=1e-15)
    np.testing.assert_allclose(np.arctan2(v, u), th, rtol=1e-14)


def cases_at(n):
    # every reduced case at n
    return ([ReducedCase(ELLIPTIC, n, m) for m in range(1, n)]
            + [ReducedCase(LOXODROMIC, n, m) for m in range(2, n)]
            + [ReducedCase(SPECIAL_LOXODROMIC, n)]
            + [ReducedCase(PARABOLIC, n, m) for m in range(1, n)]
            + [ReducedCase(SPECIAL_PARABOLIC, n)])


STACK_CASES = cases_at(2) + cases_at(3) + cases_at(4)


@pytest.mark.parametrize("case", STACK_CASES,
                         ids=[f"{c.kind}-n{c.n}-m{c.m}" for c in STACK_CASES])
def test_orbit_project_stack_equals_points(case):
    # one stacked projection gives, bit for bit, each point's projection
    n = case.n
    rng = np.random.default_rng([n, ALL_KINDS.index(case.kind), case.m or 0])
    v = rng.standard_normal((9, 4 * n))
    v *= rng.uniform(0.05, 0.8, (9, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
    for chart in (BALL, HORO):
        stack = convert(point_from_array(BALL, v, n), chart)
        got = orbit_project(case, stack)
        want = [orbit_project(case, point_from_array(chart, r.ravel(), n))
                for r in stack.rows]
        assert all(isinstance(c, float) and np.ndim(c) == 0
                   and not isinstance(c, np.ndarray) for pair in want for c in pair)
        assert np.array_equal(np.array(got).T, want)


@pytest.mark.parametrize("case", STACK_CASES,
                         ids=[f"{c.kind}-n{c.n}-m{c.m}" for c in STACK_CASES])
def test_section_round_trip(case):
    # orbit_project inverts section_point in the ODE coordinates, on one
    # point and on a stack
    rng = np.random.default_rng([case.n, ALL_KINDS.index(case.kind), case.m or 0])
    if case.kind in (ELLIPTIC, LOXODROMIC, SPECIAL_LOXODROMIC):
        top = 3.0 if case.kind == SPECIAL_LOXODROMIC else 1.4
        c1, c2 = rng.uniform(0.2, 1.5, 9), rng.uniform(0.1, top, 9)
    else:
        c1, c2 = rng.uniform(0.2, 3.0, 9), rng.uniform(0.1, 2.0, 9)
    for a, b in zip(c1.tolist(), c2.tolist()):
        assert orbit_project(case, section_point(case, a, b)) \
            == pytest.approx((a, b), rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(orbit_project(case, section_point(case, c1, c2)),
                               (c1, c2), rtol=1e-12, atol=1e-12)
