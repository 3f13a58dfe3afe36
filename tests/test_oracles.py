import json

import numpy as np
import pytest

import hqn.oracles
from hqn.charts import (
    BALL,
    HORO,
    _pairing_tables,
    ball_metric_matrix,
    convert,
    coords_array,
    dist,
    horo_metric_matrix,
    horo_point,
    lift,
    metric_jet,
    point_from_array,
)
from hqn.cli import main
from hqn.errors import NotInteriorError, ShapeError, SingularPointError
from hqn.integrator import integrate_profile
from hqn.isometries import (
    Isometry,
    act,
    lorentz_signature,
    qmat_conj_T,
    qmat_mul,
    qmat_to_real,
)
from hqn.loci import canonical_bisector_residual, fan_at_origin_residual
from hqn.oracles import (
    CURVATURE_STEP,
    _christoffel_contraction,
    _complement,
    _grad_hess_weights,
    _richardson_grad_hess,
    _killing_vectors,
    _orbit_basis,
    _stencil_offsets,
    _reference_coords,
    ambient_mean_curvature,
    foliation_certificate,
    generator_basis,
    killing_ratio_spread,
    killing_volume,
    orbit_project,
    section_point,
    volume_functional,
)
from hqn.quaternion import Quaternion
from hqn.reduction import (
    ELLIPTIC,
    LOXODROMIC,
    PARABOLIC,
    POLAR_KINDS,
    SPECIAL_LOXODROMIC,
    SPECIAL_PARABOLIC,
    ReducedCase,
)
from residual_reference import residual_column

ALL_CASES = [
    ReducedCase(ELLIPTIC, 2, 1),
    ReducedCase(LOXODROMIC, 3, 2),
    ReducedCase(SPECIAL_LOXODROMIC, 2),
    ReducedCase(PARABOLIC, 2, 1),
    ReducedCase(SPECIAL_PARABOLIC, 2),
    ReducedCase(ELLIPTIC, 3, 1),
    ReducedCase(ELLIPTIC, 3, 2),
    ReducedCase(ELLIPTIC, 4, 2),
    ReducedCase(LOXODROMIC, 4, 3),
    ReducedCase(SPECIAL_LOXODROMIC, 4),
    ReducedCase(PARABOLIC, 4, 2),
    ReducedCase(SPECIAL_PARABOLIC, 4),
]


@pytest.mark.parametrize("case", ALL_CASES,
                         ids=[f"{c.kind}-n{c.n}-m{c.m}" for c in ALL_CASES])
def test_killing_ratio_constant(case):
    # Gram-determinant orbit volume from Killing fields agrees with the
    # closed-form functional up to one constant per case
    spread = killing_ratio_spread(case, n_points=50, seed=7)
    assert spread < 1e-12


CONTROL = "un-cubed bracket control 0.1/spread"


def test_cube_exponent_is_decisive(capsys):
    # dropping the cube on the bracket cosh^2 r + sinh^2 r cos^2 theta
    # breaks the ratio by double digits; the volume report's control row
    # reads 0.1 / spread over its 20 points (seed 0)
    for n in (2, 3, 4):
        assert main(["oracle", "--oracle", "volume", "--n", str(n)]) == 0
        control = next(c for c in json.loads(capsys.readouterr().out)["checks"]
                       if c["name"] == CONTROL)
        case = ReducedCase(SPECIAL_LOXODROMIC, n)
        r, theta = np.random.default_rng(0).uniform((0.2, 0.2), (0.9, 1.2), (20, 2)).T
        bracket = np.cosh(r) ** 2 + (np.sinh(r) * np.cos(theta)) ** 2
        ratios = killing_volume(case, section_point(case, r, theta)) / (
            volume_functional(case, (r, theta)) / bracket ** 2)
        spread = (ratios.max() - ratios.min()) / ratios.mean()
        assert spread > 0.1
        assert control["value"] == pytest.approx(0.1 / spread, rel=1e-12)
        assert control["bound"] == 1.0 and control["pass"] is True


def test_killing_volume_vanishes_at_stratum():
    # theta = pi/2 is the elliptic stratum u = 0
    case = ReducedCase(ELLIPTIC, 2, 1)
    bulk = killing_volume(case, section_point(case, 0.5, 0.7))
    near = killing_volume(case, section_point(case, 0.5, 0.5 * np.pi - 1e-3))
    assert near < 1e-6 * bulk


def test_killing_volume_needs_the_open_ball():
    # a horospherical point at |omega| = 1e9 lifts to a ball point with
    # |x|^2 rounded up to 1: the Gram's s = 1 - |x|^2 is not positive
    case = ReducedCase(PARABOLIC, 2, 1)
    far = horo_point((Quaternion(1e9),), 1.0, Quaternion())
    with pytest.raises(NotInteriorError):
        killing_volume(case, far)
    stack = point_from_array(HORO, np.array([[0.3, 0, 0, 0, 1.0, 0, 0, 0],
                                             [1e9, 0, 0, 0, 1.0, 0, 0, 0]]), 2)
    with pytest.raises(NotInteriorError):
        killing_volume(case, stack)


def test_generator_counts():
    assert len(generator_basis(ReducedCase(SPECIAL_LOXODROMIC, 2))) == 6
    assert len(generator_basis(ReducedCase(PARABOLIC, 2, 1))) == 6
    assert len(generator_basis(ReducedCase(SPECIAL_PARABOLIC, 2))) == 6
    assert len(generator_basis(ReducedCase(ELLIPTIC, 2, 1))) == 6
    assert len(generator_basis(ReducedCase(LOXODROMIC, 3, 2))) == 13


def test_mean_curvature_horosphere():
    def res(p):
        return convert(p, HORO).alpha - 1.0

    p = horo_point((Quaternion(0.2),), 1.0, Quaternion(0, 0.1, 0, 0))
    assert ambient_mean_curvature(res, p) == pytest.approx(5.0, abs=1e-3)


def test_mean_curvature_minimal_loci():
    pb = horo_point((Quaternion(0.15, 0.1, 0, 0),), 0.8,
                    Quaternion(0, 0.05, 0.02, 0.0))
    assert abs(ambient_mean_curvature(canonical_bisector_residual, pb)) < 1e-3
    pf = horo_point((Quaternion(0.3),), 0.7, Quaternion(0, 0.1, -0.05, 0))
    assert fan_at_origin_residual(pf) == 0.0
    assert abs(ambient_mean_curvature(fan_at_origin_residual, pf)) < 1e-3


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_mean_curvature_geodesic_sphere(n, r):
    # principal curvatures coth(r/2)/2 (multiplicity 4n-4) and coth r
    # (multiplicity 3), Berndt, J. reine angew. Math. 419 (1991); the
    # outward normal gives the negative sign
    o = point_from_array(BALL, np.zeros(4 * n), n)
    u = np.random.default_rng(n).normal(size=4 * n)
    p = point_from_array(BALL, np.tanh(r / 2.0) * u / np.linalg.norm(u), n)
    want = -((2 * n - 2) / np.tanh(r / 2.0) + 3.0 / np.tanh(r))
    for q in (p, convert(p, HORO)):
        got = ambient_mean_curvature(lambda x: dist(x, o) - r, q)
        assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("surface, p, want", [
    (canonical_bisector_residual,
     horo_point((Quaternion(0.15, 0.1, 0.0, 0.0),), 0.8, Quaternion(0, 0.05, 0.02, 0)),
     0.0),
    (fan_at_origin_residual,
     horo_point((Quaternion(0.3),), 0.7, Quaternion(0, 0.1, -0.05, 0)), 0.0),
    (lambda q: convert(q, HORO).alpha - 1.0,
     horo_point((Quaternion(0.2, -0.1, 0.3, 0.1),), 1.0, Quaternion(0, 0.1, 0, -0.2)),
     5.0),
    (lambda q: convert(q, HORO).alpha - 0.02,
     horo_point((Quaternion(0.2, 0.1, 0.0, 0.0),), 0.02, Quaternion(0, 0.1, 0, 0)),
     5.0),
], ids=["bisector", "fan", "horosphere", "horosphere-small-alpha"])
def test_mean_curvature_chart_invariant(surface, p, want):
    # the same surface at the same point, differentiated in either chart;
    # the charts agree to 4.2e-10 (the horosphere, whose ball residual the
    # stencil does not differentiate exactly), and the horo chart, where
    # every residual here is a polynomial of degree <= 2, gives want to
    # 1.8e-15
    in_horo = ambient_mean_curvature(surface, p)
    in_ball = ambient_mean_curvature(surface, convert(p, BALL))
    assert in_horo == pytest.approx(in_ball, abs=4e-9)
    assert in_horo == pytest.approx(want, abs=2e-14)


@pytest.mark.parametrize("n", [2, 3])
def test_horo_metric_stack(n):
    rng = np.random.default_rng(n)
    c = rng.normal(0.0, 0.5, (2, 5, 4 * n))
    c[..., 4 * n - 4] = rng.uniform(0.1, 2.0, (2, 5))
    stack = horo_metric_matrix(c, n)
    assert stack.shape == (2, 5, 4 * n, 4 * n)
    for idx in np.ndindex(2, 5):
        assert np.array_equal(stack[idx], horo_metric_matrix(c[idx], n))


@pytest.mark.parametrize("n", [2, 3])
def test_ball_metric_stack(n):
    rng = np.random.default_rng(n)
    x = rng.normal(0.0, 0.5, (2, 5, 4 * n))
    x *= rng.uniform(0.0, 0.95, (2, 5, 1)) / np.linalg.norm(x, axis=-1, keepdims=True)
    x[0, 0, ::3] = -0.0
    stack = ball_metric_matrix(x, n)
    assert stack.shape == (2, 5, 4 * n, 4 * n)
    for idx in np.ndindex(2, 5):
        assert np.array_equal(stack[idx], ball_metric_matrix(x[idx], n))


def _same_bits(a, b):
    # equal values and equal signs of zero
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _loop_stencil(x, step):
    # the reference stencil: one shifted copy of x at a time
    dim = len(x)
    a, b = np.triu_indices(dim, 1)
    stencil = [x[None]]
    for h in (step / 2.0, step):
        E = h * np.eye(dim)
        P, M = x + E, x - E
        stencil += [P, M, P[a] + E[b], P[a] - E[b], M[a] + E[b], M[a] - E[b]]
    return np.concatenate(stencil)


def _signed_zero_point(dim, h, rng):
    # a point with +0.0 and -0.0 coordinates, and coordinates at -h and +h,
    # where x + h or x - h cancels exactly
    x = rng.uniform(-0.6, 0.6, dim)
    x[0::5], x[1::5], x[2::5], x[3::5] = 0.0, -0.0, -h, h
    return x


@pytest.mark.parametrize("dim", [8, 12, 16])
def test_stencil_offsets_give_the_loop_stencil(dim):
    # x + the cached table has the bits of the loop-built stencil, signed
    # zeros included, and the table is read-only
    table = _stencil_offsets(dim, CURVATURE_STEP)
    assert table.shape == (1 + 4 * dim + 4 * dim * (dim - 1), dim)
    assert not table.flags.writeable
    assert _stencil_offsets(dim, CURVATURE_STEP) is table
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    rng = np.random.default_rng(dim)
    for h in (CURVATURE_STEP / 2.0, CURVATURE_STEP):
        x = _signed_zero_point(dim, h, rng)
        assert _same_bits(x + table, _loop_stencil(x, CURVATURE_STEP))


@pytest.mark.parametrize("n", [2, 3])
def test_mean_curvature_call_count(n):
    # one residual call on the stacked stencil, in the point's chart: f(x),
    # then per step the 2d axis points (shared by the gradient and the
    # Hessian diagonal) and the 2d(d-1) off-diagonal points
    p = horo_point((Quaternion(0.2),) * (n - 1), 1.0, Quaternion(0, 0.1, 0, 0))
    d = 4 * n
    for chart in (HORO, BALL):
        calls = []

        def res(q):
            calls.append(q)
            return convert(q, HORO).alpha - 1.0

        ambient_mean_curvature(res, convert(p, chart))
        [stack] = calls
        assert stack.rows.shape == (1 + 2 * (2 * d + 2 * d * (d - 1)), n, 4)    # 257 at n = 2
        assert stack.chart == chart


def _loop_grad_hess(f, x, step):
    # the per-point reference: one f call per stencil point, in a double
    # loop, with the same differences in the same order
    dim = len(x)
    f0 = f(x)

    def grad_hess(h):
        E = h * np.eye(dim)
        g = np.empty(dim)
        H = np.empty((dim, dim))
        for a in range(dim):
            ea = E[a]
            fp, fm = f(x + ea), f(x - ea)
            g[a] = (fp - fm) / (2.0 * h)
            H[a, a] = (fp - 2.0 * f0 + fm) / h ** 2
            for b in range(a + 1, dim):
                eb = E[b]
                H[a, b] = H[b, a] = (f(x + ea + eb) - f(x + ea - eb)
                                     - f(x - ea + eb) + f(x - ea - eb)) / (4.0 * h ** 2)
        return g, H

    g_half, H_half = grad_hess(step / 2.0)
    g_full, H_full = grad_hess(step)
    return (4.0 * g_half - g_full) / 3.0, (4.0 * H_half - H_full) / 3.0


def _horo_surface_point(n, kind, rng):
    # omega in Q^{n-1}, alpha, beta; the fan point's last omega is real with
    # beta_3 = 0, and the horosphere passes through the point
    omega = rng.uniform(-0.3, 0.3, (n - 1, 4))
    beta = rng.uniform(-0.2, 0.2, 3)
    if kind == "fan":
        omega[-1, 1:] = 0.0
        beta[2] = 0.0
    alpha = rng.uniform(0.5, 1.5)
    p = point_from_array(HORO, np.concatenate([omega.ravel(), [alpha], beta]), n)
    surface = {"bisector": canonical_bisector_residual,
               "fan": fan_at_origin_residual,
               "horosphere": lambda q, a=alpha: convert(q, HORO).alpha - a}[kind]
    return surface, p


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("chart", [HORO, BALL])
@pytest.mark.parametrize("kind", ["bisector", "fan", "horosphere"])
def test_stacked_stencil_matches_loop(n, chart, kind):
    # the stacked stencil gives bit-identical (g, H) to the per-point loop
    rng = np.random.default_rng([n, [HORO, BALL].index(chart), len(kind)])
    for _ in range(2):
        surface, p = _horo_surface_point(n, kind, rng)
        x = coords_array(convert(p, chart))
        want = _loop_grad_hess(
            lambda arr: float(surface(point_from_array(chart, arr, n))), x, CURVATURE_STEP)
        got = _richardson_grad_hess(
            lambda stack: surface(point_from_array(chart, stack, n)), x, CURVATURE_STEP)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _weight_map(dim):
    # the map of _grad_hess_weights applied to stencil values, and the
    # rounding bound of its 8-term rows, 4 * 8 eps (|scale weights| @ |f|)
    index, weights, scale = _grad_hess_weights(dim, CURVATURE_STEP)

    def apply(f):
        bound = 32.0 * np.finfo(float).eps * scale * (np.abs(weights) * np.abs(f[index])).sum(axis=1)
        return scale * (weights * f[index]).sum(axis=1), bound
    return apply


@pytest.mark.parametrize("dim", [8, 12, 16])
def test_grad_hess_weights_are_the_differences_on_unit_vectors(dim):
    # the map's matrix, scaled, has the bits of _richardson_grad_hess on
    # the k unit vectors, one call per column; the cached tables are
    # read-only
    index, weights, scale = _grad_hess_weights(dim, CURVATURE_STEP)
    assert _grad_hess_weights(dim, CURVATURE_STEP)[0] is index
    assert index.shape == weights.shape == (dim + dim * dim, 8) == scale.shape + (8,)
    for table in (index, weights, scale):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1
    k = len(_stencil_offsets(dim, CURVATURE_STEP))
    want = np.empty((dim + dim * dim, k))
    for j, unit in enumerate(np.eye(k)):
        grad, hess = _richardson_grad_hess(lambda stack: unit, np.zeros(dim), CURVATURE_STEP)
        want[:, j] = np.concatenate([grad, hess.ravel()])
    matrix = np.zeros((dim + dim * dim, k))
    np.add.at(matrix, (np.arange(len(index))[:, None], index), weights)
    assert _same_bits(scale[:, None] * matrix, want)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("chart", [HORO, BALL])
@pytest.mark.parametrize("kind", ["bisector", "fan", "horosphere"])
def test_grad_hess_weights_match_differences(n, chart, kind):
    # on a surface's stencil values the map gives the differences of
    # _richardson_grad_hess within the rounding of its rows
    rng = np.random.default_rng([n, [HORO, BALL].index(chart), len(kind), 1])
    apply = _weight_map(4 * n)
    for _ in range(3):
        surface, p = _horo_surface_point(n, kind, rng)
        x = coords_array(convert(p, chart))
        k = len(_stencil_offsets(4 * n, CURVATURE_STEP))
        f = np.broadcast_to(surface(point_from_array(
            chart, x + _stencil_offsets(4 * n, CURVATURE_STEP), n)), (k,))
        g, H = _richardson_grad_hess(lambda stack: f, x, CURVATURE_STEP)
        got, bound = apply(f)
        assert np.all(np.abs(got - np.concatenate([g, H.ravel()])) <= bound)


@pytest.mark.parametrize("dim", [8, 12])
def test_grad_hess_weights_are_exact_on_quadratics(dim):
    # central differences are exact on a quadratic, so the map gives its
    # gradient and Hessian to rounding; at x = 0 the stencil points are the
    # offsets themselves
    rng = np.random.default_rng(dim)
    apply = _weight_map(dim)
    pts = _stencil_offsets(dim, CURVATURE_STEP)
    for _ in range(5):
        c, b = rng.normal(), rng.normal(size=dim)
        Q = rng.normal(size=(dim, dim))
        Q = Q + Q.T
        got, bound = apply(c + pts @ b + 0.5 * np.einsum("ka,ab,kb->k", pts, Q, pts))
        assert np.all(np.abs(got - np.concatenate([b, Q.ravel()])) <= bound)


def _metric_points(chart, n, rng):
    # three points of the chart, the first near its edge: alpha = 0.02 in
    # horo coordinates, |x| = 0.95 in the ball
    d = 4 * n
    if chart == HORO:
        x = rng.uniform(-0.4, 0.4, (3, d))
        x[:, d - 4] = (0.02, 0.7, 1.5)
        return x
    x = rng.normal(size=(3, d))
    return x * (np.array([[0.95], [0.3], [0.7]]) / np.linalg.norm(x, axis=1, keepdims=True))


def _richardson_metric_derivative(metric, x, n, h):
    # the reference: Richardson-extrapolated central differences of the
    # metric matrix at steps h and h / 2, one coordinate at a time
    def central(step):
        E = step * np.eye(len(x))
        return np.array([(metric(x + e, n) - metric(x - e, n)) / (2.0 * step) for e in E])
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("chart", [HORO, BALL])
def test_metric_jet_matches_references(n, chart):
    # the closed-form inverse is the inverse of the metric matrix, and the
    # closed-form derivative is its Richardson difference, whose truncation
    # and rounding leave up to 2.7e-10 relative; the tables are cached and
    # read-only, and a Siegel chart is refused
    metric = horo_metric_matrix if chart == HORO else ball_metric_matrix
    tables = _pairing_tables(chart, n)
    assert _pairing_tables(chart, n) is tables
    assert not any(table.flags.writeable for table in tables)
    with pytest.raises(ShapeError):
        metric_jet("siegel", np.zeros(4 * n), n)
    d = 4 * n
    for x in _metric_points(chart, n, np.random.default_rng([n, len(chart)])):
        ginv, dg = metric_jet(chart, x, n)
        g = metric(x, n)
        assert np.max(np.abs(ginv @ g - np.eye(d))) <= 5e-14
        assert np.max(np.abs(ginv - np.linalg.inv(g))) <= 5e-14 * np.max(np.abs(ginv))
        scale = x[d - 4] if chart == HORO else 1.0 - x @ x
        want = _richardson_metric_derivative(metric, x, n, 1e-5 * scale)
        assert np.max(np.abs(dg - want)) <= 2e-9 * np.max(np.abs(dg))


def _einsum_christoffel(dg, ginv):
    # the reference: the full d^3 Christoffel array of dg[c] = d_c g
    return 0.5 * np.einsum("cd,abd->cab", ginv,
                           dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("chart", [HORO, BALL])
def test_christoffel_contraction_matches_einsum(n, chart):
    # sum_c Gamma^c_ab d_c f from the contraction of the closed-form dg
    # with u = g^-1 df equals the one from the full Christoffel array, to
    # 1e-13 relative
    rng = np.random.default_rng([n, [HORO, BALL].index(chart), 2])
    d = 4 * n
    for i in range(20):
        _, p = _horo_surface_point(n, ["bisector", "fan", "horosphere"][i % 3], rng)
        ginv, dg = metric_jet(chart, coords_array(convert(p, chart)), n)
        grad = rng.normal(size=d)
        want = np.einsum("cab,c->ab", _einsum_christoffel(dg, ginv), grad)
        got = _christoffel_contraction(dg, ginv @ grad)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_mean_curvature_stencil_leaves_chart():
    # at alpha = 5e-4 the step-1e-3 stencil point alpha - h is outside the chart
    assert CURVATURE_STEP == 1e-3
    p = horo_point((Quaternion(0.2),), 5e-4, Quaternion(0, 0.1, 0, 0))
    with pytest.raises(NotInteriorError):
        ambient_mean_curvature(canonical_bisector_residual, p)


def test_mean_curvature_degenerate_gradient():
    p = horo_point((Quaternion(0.3),), 0.7, Quaternion())
    with pytest.raises(SingularPointError):
        ambient_mean_curvature(lambda q: 0.0, p)


def test_mean_curvature_surface_shape():
    # the surface gives one value per stencil point, or one that broadcasts
    p = horo_point((Quaternion(0.3),), 0.7, Quaternion(0, 0.1, 0, 0))
    for bad in (lambda q: np.zeros((len(q.rows), 2)), lambda q: np.zeros(3),
                lambda q: convert(q, HORO).rows[:, 0, :]):
        with pytest.raises(ShapeError):
            ambient_mean_curvature(bad, p)


def test_ode_residual_and_sensitivity():
    case = ReducedCase(ELLIPTIC, 2, 1)
    c = integrate_profile(case, 1.0, s_max=5.0, tol=1e-10, n_samples=2001)

    def worst():
        return float(np.max(residual_column(case, c.h, c.uniform_s, c.uniform_states)))

    assert worst() < 1e-4
    c.uniform_states[500] += 1e-3
    assert worst() > 1e-2


def test_foliation_certificate():
    case = ReducedCase(PARABOLIC, 2, 1)
    fam = [integrate_profile(case, a, s_max=60.0, tol=1e-11, c1_floor=1e-7,
                             n_samples=4001) for a in (0.5, 1.0, 2.0)]
    rep = foliation_certificate(case, fam, [0.5, 1.0, 2.0, 4.0], tol=1e-5)
    assert rep["pass"]
    assert len(rep["checks"]) == 15
    assert foliation_certificate(case, fam, [])["pass"]


def test_foliation_certificate_failure():
    case = ReducedCase(PARABOLIC, 2, 1)
    short = integrate_profile(case, 1.0, s_max=0.5, tol=1e-10)
    rep = foliation_certificate(case, [short], [0.1])
    assert rep["pass"] is False
    [check] = rep["checks"]
    assert check["name"] == "crossings a=1.0 q=0.1"
    assert check["pass"] is False
    assert check["value"] == 0


# The eleven cases of `hqn oracle --n 2` and `--n 3`.
BENCH_CASES = [
    ReducedCase(ELLIPTIC, 2, 1),
    ReducedCase(SPECIAL_LOXODROMIC, 2),
    ReducedCase(PARABOLIC, 2, 1),
    ReducedCase(SPECIAL_PARABOLIC, 2),
    ReducedCase(ELLIPTIC, 3, 1),
    ReducedCase(ELLIPTIC, 3, 2),
    ReducedCase(LOXODROMIC, 3, 2),
    ReducedCase(SPECIAL_LOXODROMIC, 3),
    ReducedCase(PARABOLIC, 3, 1),
    ReducedCase(PARABOLIC, 3, 2),
    ReducedCase(SPECIAL_PARABOLIC, 3),
]
BENCH_IDS = [f"{c.kind}-n{c.n}-m{c.m}" for c in BENCH_CASES]


@pytest.mark.parametrize("case", BENCH_CASES, ids=BENCH_IDS)
def test_killing_spread_pinned(case):
    # exact Killing fields leave only rounding in the ratio
    assert killing_ratio_spread(case, 20, seed=5) <= 1e-12


@pytest.mark.parametrize("case", BENCH_CASES, ids=BENCH_IDS)
def test_exact_killing_fields(case):
    # every generator lies in sp(n,1), and its exact field matches the
    # central difference of the group action exp(+-dG) at the reference point
    basis = generator_basis(case)
    J = lorentz_signature(case.n + 1)
    for G in basis:
        assert np.max(np.abs(qmat_mul(qmat_conj_T(G), J) + qmat_mul(J, G))) == 0.0
    from scipy.linalg import expm

    def exp(G):
        # exp in the real representation; the first column of each 4x4 block
        # is its quaternion entry
        R = expm(qmat_to_real(G)).reshape(G.shape[0], 4, G.shape[1], 4)
        return Isometry(np.ascontiguousarray(R[..., 0].transpose(0, 2, 1)))

    p = convert(section_point(case, *_reference_coords(case)), BALL)
    d = 1e-5
    fd = np.array([(coords_array(act(exp(d * G), p))
                    - coords_array(act(exp(-d * G), p))) / (2.0 * d)
                   for G in basis])
    assert np.max(np.abs(_killing_vectors(basis, lift(p)) - fd)) <= 1e-8


# Every check value of `hqn oracle --n 2`, `--n 3` and `--n 4`, as
# float.hex. The Killing spreads and the un-cubed control are as computed
# from the case's orbit basis (the complement folded into the generators)
# with the Gram taken from the ball pairing; the curvatures as computed
# with the stencil's integer weight map and the closed-form inverse and
# derivative of the metric.
ORACLE_VALUES = {
    2: [
        ("killing ratio spread elliptic m=1", "0x1.8fffffffffffep-49"),
        ("killing ratio spread special-loxodromic m=None", "0x1.a000000000009p-49"),
        ("killing ratio spread parabolic m=1", "0x1.a7ffffffffff4p-48"),
        ("killing ratio spread special-parabolic m=None", "0x1.efffffffffffap-48"),
        ("un-cubed bracket control 0.1/spread", "0x1.f78eb67887fb2p-5"),
        ("bisector mean curvature", "0x1.36839ef8592c3p-55"),
        ("fan mean curvature", "0x1.1a738253437fep-49"),
        ("horosphere mean curvature error", "0x1.0000000000000p-49"),
        ("general fan mean curvature", "0x1.c000e34717ad0p-32"),
        ("bisector family t=0.7 mean curvature", "0x1.9b824dc50b8d4p-34"),
    ],
    3: [
        ("killing ratio spread elliptic m=1", "0x1.6fffffffffffdp-48"),
        ("killing ratio spread elliptic m=2", "0x1.8800000000002p-48"),
        ("killing ratio spread loxodromic m=2", "0x1.d00000000000dp-48"),
        ("killing ratio spread special-loxodromic m=None", "0x1.3000000000001p-48"),
        ("killing ratio spread parabolic m=1", "0x1.5bffffffffffcp-46"),
        ("killing ratio spread parabolic m=2", "0x1.07ffffffffff9p-47"),
        ("killing ratio spread special-parabolic m=None", "0x1.67ffffffffffap-47"),
        ("un-cubed bracket control 0.1/spread", "0x1.f78eb67887fb0p-5"),
        ("bisector mean curvature", "0x1.481f3960ca886p-53"),
        ("fan mean curvature", "0x1.67b8dfcbc2d43p-45"),
        ("horosphere mean curvature error", "0x1.0000000000000p-49"),
        ("general fan mean curvature", "0x1.13a85f2c212c9p-30"),
        ("bisector family t=0.7 mean curvature", "0x1.3c1a37e9a43e4p-34"),
    ],
    4: [
        ("killing ratio spread elliptic m=1", "0x1.47ffffffffff8p-47"),
        ("killing ratio spread elliptic m=2", "0x1.b800000000000p-48"),
        ("killing ratio spread elliptic m=3", "0x1.880000000000cp-48"),
        ("killing ratio spread loxodromic m=2", "0x1.0400000000006p-47"),
        ("killing ratio spread loxodromic m=3", "0x1.3800000000009p-47"),
        ("killing ratio spread special-loxodromic m=None", "0x1.03ffffffffffap-47"),
        ("killing ratio spread parabolic m=1", "0x1.a7ffffffffffbp-46"),
        ("killing ratio spread parabolic m=2", "0x1.0000000000002p-46"),
        ("killing ratio spread parabolic m=3", "0x1.87ffffffffff4p-47"),
        ("killing ratio spread special-parabolic m=None", "0x1.03ffffffffffap-46"),
        ("un-cubed bracket control 0.1/spread", "0x1.f78eb67887fabp-5"),
        ("bisector mean curvature", "0x1.3d97f2904af27p-53"),
        ("fan mean curvature", "0x1.3d596c6fa421cp-44"),
        ("horosphere mean curvature error", "0x1.0000000000000p-49"),
        ("general fan mean curvature", "0x1.b79f0c76f2e02p-29"),
        ("bisector family t=0.7 mean curvature", "0x1.3b0c1d217bccdp-34"),
    ],
}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_report_values_are_pinned(n, capsys):
    assert main(["oracle", "--n", str(n)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["value"].hex()) for c in report["checks"]] == ORACLE_VALUES[n]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_killing_pins_are_the_volume_oracle(n, capsys):
    # the Killing-spread pins are the bits of `hqn oracle --oracle volume`,
    # which runs no curvature code: a change to the curvature oracle moves
    # only the curvature pins
    assert main(["oracle", "--oracle", "volume", "--n", str(n)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["value"].hex()) for c in report["checks"]] == [
        pin for pin in ORACLE_VALUES[n]
        if pin[0].startswith("killing ratio spread") or pin[0] == CONTROL]


def test_curvature_oracle_pinned(capsys):
    # `hqn oracle --oracle curvature` draws the points of the full report:
    # its three rows are that report's bisector, fan and horosphere pins
    names = {"bisector mean curvature", "fan mean curvature",
             "horosphere mean curvature error"}
    for n in (2, 3, 4):
        assert main(["oracle", "--oracle", "curvature", "--n", str(n)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [(c["name"], c["value"].hex()) for c in report["checks"]] == [
            pin for pin in ORACLE_VALUES[n] if pin[0] in names]


@pytest.mark.parametrize("factor", [0.5, 1.0 + 1e-6])
def test_oracle_bounds_catch_a_wrong_christoffel_term(factor, monkeypatch, capsys):
    # the Christoffel term off by a factor moves the horosphere's curvature
    # by ~5 (factor - 1): 2.5 halved, 5e-6 at 1 + 1e-6, which the curvature
    # bounds (1e-12 for the exact surfaces) must refuse
    contraction = hqn.oracles._christoffel_contraction
    monkeypatch.setattr(hqn.oracles, "_christoffel_contraction",
                        lambda dg, u: factor * contraction(dg, u))
    assert main(["oracle", "--n", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == ["horosphere mean curvature error"]


def cases_at(n):
    # every reduced case at n
    return ([ReducedCase(ELLIPTIC, n, m) for m in range(1, n)]
            + [ReducedCase(LOXODROMIC, n, m) for m in range(2, n)]
            + [ReducedCase(SPECIAL_LOXODROMIC, n)]
            + [ReducedCase(PARABOLIC, n, m) for m in range(1, n)]
            + [ReducedCase(SPECIAL_PARABOLIC, n)])


STACK_CASES = cases_at(2) + cases_at(3) + cases_at(4)
REFERENCE_CASES = STACK_CASES + cases_at(8)


def _reference_killing_volume(case, p):
    # the full-basis path: every generator's Killing field, projected by
    # the complement, with the Gram taken through the 4n x 4n ball metric
    X = lift(p)
    rows = _complement(case) @ _killing_vectors(generator_basis(case), X)
    x = X[..., :-1, :].reshape(X.shape[:-2] + (-1,))
    return rows, np.sqrt(np.linalg.det(
        rows @ ball_metric_matrix(x, case.n) @ np.swapaxes(rows, -1, -2)))


@pytest.mark.parametrize("case", REFERENCE_CASES,
                         ids=[f"{c.kind}-n{c.n}-m{c.m}" for c in REFERENCE_CASES])
def test_killing_volume_matches_the_full_basis_reference(case):
    # the orbit basis gives the complement's combinations of the full
    # basis's fields, and the pairing's Gram the metric's, to rounding
    basis = _orbit_basis(case)
    assert basis.shape == (4 * case.n - 2,) + generator_basis(case).shape[1:]
    assert not basis.flags.writeable
    rng = np.random.default_rng([case.n, case.m or 0, len(case.kind), 1])
    lo, hi = ((0.2, 0.2), (0.9, 1.2)) if case.kind in POLAR_KINDS else ((0.4, 0.3), (2.0, 1.5))
    c1, c2 = rng.uniform(lo, hi, (20, 2)).T
    p = section_point(case, c1, c2)
    rows, want = _reference_killing_volume(case, p)
    fields = _killing_vectors(basis, lift(p))
    assert np.max(np.abs(fields - rows)) <= 1e-13 * np.max(np.abs(rows))
    assert np.max(np.abs(killing_volume(case, p) / want - 1.0)) <= 1e-13


@pytest.mark.parametrize("mutant", ["no pairing term", "s = 1"])
def test_volume_oracle_catches_a_wrong_ball_gram(mutant, monkeypatch, capsys):
    # the Gram without its (R M^T)(R M^T)^T term, or with s = 1 - |x|^2 put
    # to 1, breaks every Killing spread
    if mutant == "no pairing term":
        pairing = hqn.oracles._ball_pairing
        monkeypatch.setattr(hqn.oracles, "_ball_pairing",
                            lambda x, n: 0.0 * pairing(x, n))
    else:
        monkeypatch.setattr(hqn.oracles, "qnorm2", lambda x: np.zeros(x.shape[:-1]))
    assert main(["oracle", "--oracle", "volume", "--n", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    spreads = [c for c in report["checks"] if c["name"].startswith("killing ratio spread")]
    assert len(spreads) == 4 and not any(c["pass"] for c in spreads)


@pytest.mark.parametrize("case", STACK_CASES,
                         ids=[f"{c.kind}-n{c.n}-m{c.m}" for c in STACK_CASES])
def test_killing_volume_stack_equals_points(case):
    # one stacked Killing volume gives, bit for bit, each point's volume
    rng = np.random.default_rng([case.n, case.m or 0, len(case.kind)])
    c1, c2 = rng.uniform(0.15, 0.5, (2, 9))
    stack = section_point(case, c1, c2)
    assert stack.rows.shape == (9, case.n, 4)
    want = [killing_volume(case, section_point(case, a, b)) for a, b in zip(c1, c2)]
    assert all(isinstance(w, float) and np.ndim(w) == 0
               and not isinstance(w, np.ndarray) for w in want)
    assert np.array_equal(killing_volume(case, stack), want)
    other = convert(stack, HORO if stack.chart == BALL else BALL)
    assert np.array_equal(killing_volume(case, other), [
        killing_volume(case, point_from_array(other.chart, r.ravel(), case.n))
        for r in other.rows])


def _loop_spread(case, n_points, seed):
    # the per-point reference for killing_ratio_spread: alternating scalar
    # draws, and one point at a time
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(n_points):
        if case.kind in POLAR_KINDS:
            c1 = float(rng.uniform(0.2, 0.9))
            c2 = float(rng.uniform(0.2, 1.2))
        else:
            c1 = float(rng.uniform(0.4, 2.0))
            c2 = float(rng.uniform(0.3, 1.5))
        p = section_point(case, c1, c2)
        ratios.append(killing_volume(case, p)
                      / volume_functional(case, orbit_project(case, p)))
    ratios = np.array(ratios)
    return float((ratios.max() - ratios.min()) / np.mean(ratios))


@pytest.mark.parametrize("case", BENCH_CASES, ids=BENCH_IDS)
def test_stacked_spread_matches_loop(case):
    for n_points, seed in ((20, 5), (50, 0), (1, 3)):
        got = killing_ratio_spread(case, n_points, seed)
        assert abs(got - _loop_spread(case, n_points, seed)) <= 1e-15


@pytest.mark.parametrize("col", [0, 1])
def test_foliation_certificate_fails_a_nan_state(col):
    # a NaN in either column of one curve makes the dilation deviation NaN,
    # which fails its check
    case = ReducedCase(PARABOLIC, 2, 1)
    fam = [integrate_profile(case, a, s_max=60.0, tol=1e-11, c1_floor=1e-7,
                             n_samples=4001) for a in (0.5, 2.0)]
    assert foliation_certificate(case, fam, [])["pass"]
    # NaN on a stretch of samples wider than the certificate's grid step
    fam[1].uniform_states[1000:1100, col] = np.nan
    rep = foliation_certificate(case, fam, [])
    [check] = rep["checks"]
    assert np.isnan(check["value"])
    assert check["pass"] is False and rep["pass"] is False
