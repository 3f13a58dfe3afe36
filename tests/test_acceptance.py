"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines on stdout.
"""

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from hqn.charts import (
    BALL,
    HORO,
    SIEGEL,
    convert,
    coords_array,
    horo_point,
    point_from_array,
)
from hqn.integrator import elliptic_integral_R, integrate_profile, limit_endpoint
from hqn.isometries import (
    Isometry,
    act,
    act_horo_closed,
    heisenberg_matrix,
    qmat_identity,
    random_sp,
    random_unit_quaternion,
    sp_defect,
    transvection_matrix,
)
from hqn.loci import (
    canonical_bisector_residual,
    fan_at_origin_residual,
    fan_residual,
)
from hqn.oracles import (
    ambient_mean_curvature,
    foliation_certificate,
    killing_ratio_spread,
    killing_volume,
    section_point,
    volume_functional,
)
from hqn.quaternion import Quaternion
from hqn.reduction import (
    ELLIPTIC,
    LOXODROMIC,
    PARABOLIC,
    SPECIAL_LOXODROMIC,
    SPECIAL_PARABOLIC,
    PhaseState,
    ReducedCase,
    case_rhs,
    explicit_solutions,
    random_symmetry,
)

N2_CASES = [
    ReducedCase(ELLIPTIC, 2, 1),
    ReducedCase(SPECIAL_LOXODROMIC, 2),
    ReducedCase(PARABOLIC, 2, 1),
    ReducedCase(SPECIAL_PARABOLIC, 2),
]
# the two-block splitting needs m >= 2 on the noncompact side, so the
# smallest loxodromic example lives at n = 3
LOX = ReducedCase(LOXODROMIC, 3, 2)
ALL_CASES = N2_CASES + [LOX, ReducedCase(ELLIPTIC, 3, 1),
                        ReducedCase(ELLIPTIC, 3, 2)]


def _verdict(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  ({detail})"
    print(line)
    assert ok, line


def _random_ball(rng, n, rmax=0.8):
    v = rng.standard_normal(4 * n)
    v *= rng.uniform(0.05, rmax) / np.linalg.norm(v)
    return point_from_array(BALL, v)


def test_criterion_1_group_and_charts():
    rng = np.random.default_rng(11)
    worst_defect = worst_closed = worst_rt = 0.0
    for n in (2, 3):
        for _ in range(50):
            xi = rng.normal(0, 0.4, (n - 1, 4))
            nu = np.array([0.0, *rng.normal(0, 0.4, 3)])
            t = float(rng.normal(0, 0.5))
            B = random_sp(n - 1, rng)
            lam = random_unit_quaternion(rng)
            big = qmat_identity(n + 1)
            big[:n - 1, :n - 1] = B
            big[n - 1, n - 1] = big[n, n] = lam
            trio = [("heisenberg", heisenberg_matrix(xi, nu),
                     dict(xi=xi, nu=nu)),
                    ("transvection", transvection_matrix(n, t), dict(t=t)),
                    ("rotation", Isometry(big), dict(B=B, lam=lam))]
            p = convert(_random_ball(rng, n), HORO)
            for kind, g, params in trio:
                worst_defect = max(worst_defect, sp_defect(g.A))
                a = coords_array(act(g, p))
                b = coords_array(act_horo_closed(kind, p, **params))
                worst_closed = max(worst_closed, float(np.max(np.abs(a - b))))
            q = _random_ball(rng, n)
            back = convert(convert(convert(q, SIEGEL), HORO), BALL)
            worst_rt = max(worst_rt, float(np.max(np.abs(
                coords_array(back) - coords_array(q)))))
    ok = worst_defect < 1e-12 and worst_closed < 1e-10 and worst_rt < 1e-12
    _verdict(1, ok, f"defect {worst_defect:.2e}, closed-form "
                    f"{worst_closed:.2e}, round-trip {worst_rt:.2e}")


def test_criterion_2_rhs_from_volume():
    rng = np.random.default_rng(22)
    step = 1e-6
    worst = 0.0
    for case in ALL_CASES:
        for _ in range(100):
            if case.kind in (ELLIPTIC, LOXODROMIC, SPECIAL_LOXODROMIC):
                top = 2.9 if case.kind == SPECIAL_LOXODROMIC else 1.3
                st = PhaseState(rng.uniform(0.3, 2.0), rng.uniform(0.2, top),
                                rng.uniform(-1.2, 1.2))
                c1, c2 = st.c1, st.c2
                lv = lambda a, b: np.log(volume_functional(case, (a, b)))
                P = 0.5 * (lv(c1, c2 + step) - lv(c1, c2 - step)) / (2 * step)
                Q = 0.5 * ((lv(c1 + step, c2) - lv(c1 - step, c2)) / (2 * step)
                           + 1.0 / np.tanh(c1))
                expect = (P * np.cos(st.sigma) / np.sinh(c1)
                          - Q * np.sin(st.sigma))
            else:
                st = PhaseState(rng.uniform(0.3, 3.0), rng.uniform(0.2, 2.0),
                                rng.uniform(-1.2, 1.2))
                c1, c2 = st.c1, st.c2
                lv = lambda a, b: np.log(volume_functional(case, (a, b)))
                P = 0.5 * np.sqrt(c1) * (lv(c1, c2 + step)
                                         - lv(c1, c2 - step)) / (2 * step)
                Q = c1 * (lv(c1 + step, c2) - lv(c1 - step, c2)) / (2 * step) \
                    - 0.5
                expect = P * np.cos(st.sigma) - Q * np.sin(st.sigma)
            got = case_rhs(case, 0.0)(st.c1, st.c2, st.sigma)[2]
            worst = max(worst, abs(got - expect) / max(abs(expect), 1.0))
    _verdict(2, worst < 1e-6, f"worst relative deviation {worst:.2e}")


def test_criterion_3_killing_oracle():
    worst = max(killing_ratio_spread(case, n_points=50, seed=7)
                for case in ALL_CASES)
    # the decisive check: the un-cubed bracket must fail by > 10%
    case = ReducedCase(SPECIAL_LOXODROMIC, 2)
    rng = np.random.default_rng(3)
    r, theta = rng.uniform((0.2, 0.2), (0.9, 1.2), (20, 2)).T
    bracket = np.cosh(r) ** 2 + (np.sinh(r) * np.cos(theta)) ** 2
    ratios = killing_volume(case, section_point(case, r, theta)) / (
        volume_functional(case, (r, theta)) / bracket ** 2)
    wrong_spread = (ratios.max() - ratios.min()) / ratios.mean()
    ok = worst < 1e-5 and wrong_spread > 0.1
    _verdict(3, ok, f"ratio spread {worst:.2e}, "
                    f"un-cubed spread {wrong_spread:.2f}")


def test_criterion_4_minimality_oracle():
    rng = np.random.default_rng(44)
    worst_b = worst_f = worst_h = 0.0
    for _ in range(20):
        be = rng.normal(0, 0.2, 3)
        al = float(rng.uniform(0.4, 1.5))
        om = Quaternion(*rng.normal(0, 0.25, 4))
        pb = horo_point((om,), al, Quaternion(0, be[0], be[1], 0.0))
        worst_b = max(worst_b, abs(ambient_mean_curvature(
            canonical_bisector_residual, pb)))
        pf = horo_point((Quaternion(om.q0),), al,
                        Quaternion(0, be[0], be[1], 0.0))
        worst_f = max(worst_f, abs(ambient_mean_curvature(
            fan_at_origin_residual, pf)))
        ph = horo_point((om,), 1.0, Quaternion(0, *be))
        worst_h = max(worst_h, abs(ambient_mean_curvature(
            lambda q: convert(q, HORO).alpha - 1.0, ph) - 5.0))
    ok = worst_b < 1e-3 and worst_f < 1e-3 and worst_h < 1e-3
    _verdict(4, ok, f"bisector {worst_b:.2e}, fan {worst_f:.2e}, "
                    f"horosphere error {worst_h:.2e}")


def test_criterion_5_monotone_growth():
    ok = True
    margins = []
    for case in (ReducedCase(ELLIPTIC, 2, 1), LOX):
        rate = (4 * case.n + 1) / 2.0
        for a in (0.5, 1.0, 2.0):
            c = integrate_profile(case, a, s_max=20.0, tol=1e-10)
            r, sig = c.uniform_states[:, 0], c.uniform_states[:, 2]
            ok &= bool(np.all((sig > -np.pi / 2) & (sig < np.pi / 2 + 1e-12)))
            ok &= bool(np.all(np.diff(r) > 0))
            dI = np.diff(c.I1) / np.diff(c.uniform_s)
            ok &= bool(np.all(dI >= rate * c.I1[:-1]))
            margins.append(float(np.min(dI / np.maximum(
                rate * c.I1[:-1], 1e-300))))
    _verdict(5, ok, f"min growth margin ratio {min(margins):.4f}")


def test_criterion_6_mirror_family():
    case = ReducedCase(SPECIAL_LOXODROMIC, 2)
    line = integrate_profile(case, 0.0, s_max=10.0, tol=1e-13)
    dev_line = float(np.max(np.abs(line.uniform_states[:, 1] - np.pi / 2)))
    cp = integrate_profile(case, 0.5, s_max=5.0, tol=1e-11)
    cm = integrate_profile(case, -0.5, s_max=5.0, tol=1e-11)
    dev_mirror = max(
        float(np.max(np.abs(cm.uniform_states[:, 0]
                            - cp.uniform_states[:, 0]))),
        float(np.max(np.abs(cm.uniform_states[:, 1]
                            - (np.pi - cp.uniform_states[:, 1])))),
        float(np.max(np.abs(cm.uniform_states[:, 2]
                            + cp.uniform_states[:, 2]))))
    ca = integrate_profile(case, 0.5, s_max=5.0, tol=1e-11)
    cb = integrate_profile(case, 0.5 + 1e-3, s_max=5.0, tol=1e-11)
    dev_cont = float(np.max(np.abs(ca.uniform_states - cb.uniform_states)))
    ok = dev_line < 1e-12 and dev_mirror < 1e-12 and dev_cont < 1e-2
    _verdict(6, ok, f"line {dev_line:.2e}, mirror {dev_mirror:.2e}, "
                    f"continuity {dev_cont:.2e}")


def test_criterion_7_parabolic_limit_and_foliation():
    case = ReducedCase(PARABOLIC, 2, 1)
    c = integrate_profile(case, 1.0, s_max=100.0, tol=1e-10)
    lim = limit_endpoint(c)
    lo, hi = np.sqrt(1.0 / 3.0), np.sqrt(2.0 / 5.0)
    in_bounds = lo <= lim.c2 <= hi
    fam = [integrate_profile(case, a, s_max=60.0, tol=1e-11, c1_floor=1e-7,
                             n_samples=4001) for a in (0.5, 1.0, 2.0)]
    rep = foliation_certificate(case, fam, [0.5, 1.0, 2.0, 4.0], tol=1e-5)
    ok = in_bounds and rep["pass"]
    _verdict(7, ok, f"rho limit {lim.c2:.6f} in [{lo:.4f}, {hi:.4f}], "
                    f"certificate {rep['pass']}")


def test_criterion_8_special_parabolic_limit():
    case = ReducedCase(SPECIAL_PARABOLIC, 2)
    c = integrate_profile(case, 1.0, s_max=50.0, tol=1e-12, c1_floor=0.25)
    drift = float(np.max(np.abs(c.I1 - 1.0)))
    R = elliptic_integral_R(2)
    beta_oracle = beta_fn(11.0 / 20.0, 0.5) / 20.0
    quad_err = abs(R - beta_oracle)
    lim = limit_endpoint(c)
    lim_err = abs(abs(lim.c2) - R)
    ok = drift < 1e-8 and quad_err < 1e-9 and lim_err < 1e-6
    _verdict(8, ok, f"conservation drift {drift:.2e}, quadrature vs Beta "
                    f"{quad_err:.2e}, ODE limit error {lim_err:.2e}")


def test_criterion_9_fan_lines():
    case = ReducedCase(SPECIAL_PARABOLIC, 2)
    worst_stat = 0.0
    for al in (0.3, 1.0, 2.5):
        for R in (0.1, elliptic_integral_R(2), 0.7):
            f = case_rhs(case, 0.0)(al, R, 0.0)
            worst_stat = max(worst_stat, abs(f[1]), abs(f[2]))
    rng = np.random.default_rng(99)
    worst_inv = 0.0
    normal = np.array([1.0, 0.0, 0.0, 0.0])     # Re(omega_1)
    for _ in range(50):
        R = float(rng.uniform(0.1, 0.8))
        om = Quaternion(R, *rng.normal(0, 0.3, 3))
        p = horo_point((om,), float(rng.uniform(0.3, 1.5)),
                       Quaternion(0, *rng.normal(0, 0.3, 3)))
        assert abs(fan_residual(p, normal, R)) < 1e-15
        g = random_symmetry(case, rng)
        worst_inv = max(worst_inv, abs(fan_residual(act(g, p), normal, R)))
    ok = worst_stat == 0.0 and worst_inv < 1e-10
    _verdict(9, ok, f"stationary residual {worst_stat:.1e}, "
                    f"invariance {worst_inv:.2e}")


def test_criterion_10_explicit_ledger():
    ell = ReducedCase(ELLIPTIC, 2, 1)
    cone = explicit_solutions(ell)[0]
    angle_err = abs(cone.state(1.0, 1.0).c2 - np.pi / 4)
    sphere = explicit_solutions(ell)[1]
    sphere_err = abs(sphere.h(1.0) - (2 / np.tanh(1.0) + 3 / np.tanh(2.0)))
    sphere_val = abs(sphere.h(1.0) - 5.7380)
    tube = explicit_solutions(LOX)[1]
    tube_err = abs(tube.h(1.0) - 7.0 / np.tanh(2.0))
    tube_val = abs(tube.h(1.0) - 7.2612)
    horo = explicit_solutions(ReducedCase(PARABOLIC, 2, 1))[0]
    horo_err = abs(horo.h(0.7) - 5.0)
    worst_stat = 0.0
    for case in ALL_CASES:
        for sol in explicit_solutions(case):
            for a, t in ((0.5, 0.8), (1.0, 1.4), (2.0, 0.3)):
                st = sol.state(a, t)
                f = case_rhs(case, sol.h(a))(st.c1, st.c2, st.sigma)
                frozen = abs(f[1]) if abs(np.sin(st.sigma)) < 1e-12 \
                    else abs(f[0])
                worst_stat = max(worst_stat, abs(f[2]), frozen)
    ok = (angle_err < 1e-12 and sphere_err < 1e-12 and sphere_val < 1e-4
          and tube_err < 1e-12 and tube_val < 1e-4 and horo_err < 1e-12
          and worst_stat < 1e-12)
    _verdict(10, ok, f"cone angle err {angle_err:.1e}, sphere h "
                     f"{sphere.h(1.0):.4f}, tube h {tube.h(1.0):.4f}, "
                     f"stationarity {worst_stat:.2e}")
