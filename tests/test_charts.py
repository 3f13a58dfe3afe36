import warnings

import numpy as np
import pytest

from hqn import charts
from hqn.charts import (
    BALL,
    HORO,
    SIEGEL,
    ball_from_lift,
    ball_point,
    convert,
    coords_array,
    dist,
    horo_point,
    lift,
    metric_matrix,
    point_from_array,
    siegel_point,
)
from hqn.errors import NotInteriorError, ShapeError
from hqn.quaternion import QJ, QK, Quaternion, components, hamilton

from geometry_reference import push_tangent


def isclose(a, b, tol=1e-12) -> bool:
    # Quaternion.isclose on rows: a Euclidean-norm test
    return float(np.linalg.norm(np.subtract(a, b))) <= tol


def random_ball_point(rng, n=2, rmax=0.8):
    v = rng.standard_normal(4 * n)
    v *= rng.uniform(0.05, rmax) / np.linalg.norm(v)
    return point_from_array(BALL, v)


def test_ball_from_lift():
    q = Quaternion(0.2, 0.3, 0.0, 0.1)
    X = components([0, q, 1])
    p = ball_from_lift(X)
    assert isclose(p.rows[0], Quaternion().as_array())
    assert isclose(p.rows[1], q.as_array())

    # projective invariance under right scaling
    p2 = ball_from_lift(hamilton(X, QJ.as_array()))
    for a, b in zip(p.rows, p2.rows):
        assert isclose(a, b, 1e-14)

    with pytest.raises(NotInteriorError):
        ball_from_lift(components([0, 1, 1]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ball_from_lift_stack_matches_vectors(n):
    rng = np.random.default_rng(70 + n)
    X = rng.standard_normal((6, n + 1, 4))
    # negative: the last entry outweighs the rest
    X[:, -1] *= ((1.5 + np.linalg.norm(X[:, :-1], axis=(1, 2)))
                 / np.linalg.norm(X[:, -1], axis=1))[:, None]
    p = ball_from_lift(X)
    assert p.rows.shape == (6, n, 4)
    for i in range(6):
        assert p.rows[i].tobytes() == ball_from_lift(X[i]).rows.tobytes()
    # one positive vector in the stack fails the whole stack
    X[4] = 0.0
    X[4, 0, 0] = 1.0
    with pytest.raises(NotInteriorError):
        ball_from_lift(X)


def test_dist_examples():
    n = 2
    origin = ball_point([0, 0])
    y = ball_point([0, Quaternion(0.5)])
    # d(0, y) = 2 artanh |y|; |y| = 1/2 gives ln 3
    assert dist(origin, y) == pytest.approx(np.log(3.0), abs=1e-13)
    assert dist(y, y) == 0.0

    # gamma(s) = (0', tanh s) has speed 2
    for s in (0.3, 0.7, 1.5):
        g = ball_point([0, np.tanh(s)])
        assert dist(origin, g) == pytest.approx(2 * s, abs=1e-12)

    # cross-check with the canonical-bisector display at x = 0, p1 = (0', k/2)
    p1 = ball_point([0, 0.5 * QK])
    coshhalf = abs(Quaternion(2.0)) / np.sqrt(3.0)
    assert dist(origin, p1) == pytest.approx(2 * np.arccosh(coshhalf), abs=1e-13)


def test_dist_additive_along_geodesic():
    a, b = 0.4, 0.9
    g0 = ball_point([0, 0])
    ga = ball_point([0, np.tanh(a)])
    gab = ball_point([0, np.tanh(a + b)])
    assert dist(g0, gab) == pytest.approx(dist(g0, ga) + dist(ga, gab), abs=1e-10)


def test_cayley_examples():
    p = convert(ball_point([0, 0]), SIEGEL)
    assert isclose(p.rows[1], Quaternion(0.5).as_array())
    s = 0.8
    p = convert(ball_point([0, np.tanh(s)]), SIEGEL)
    assert isclose(p.rows[1], Quaternion(0.5 * np.exp(2 * s)).as_array(), 1e-12)

    assert isclose(convert(siegel_point([0, 0.5]), BALL).rows[1], Quaternion().as_array())
    assert isclose(convert(siegel_point([0, 0.5 * np.e ** 2]), BALL).rows[1],
                   Quaternion(np.tanh(1.0)).as_array(), 1e-12)


def test_round_trips():
    rng = np.random.default_rng(42)
    for _ in range(100):
        p = random_ball_point(rng)
        q = convert(convert(convert(convert(p, SIEGEL), HORO), SIEGEL), BALL)
        np.testing.assert_allclose(coords_array(q), coords_array(p), atol=1e-12)


def test_horo_from_siegel_examples():
    h = convert(siegel_point([0, 0.5]), HORO)
    assert h.alpha == pytest.approx(1.0)
    assert np.linalg.norm(h.beta) == 0.0 and np.linalg.norm(h.omega[0]) == 0.0
    t = 0.6
    h = convert(siegel_point([0, 0.5 * np.exp(2 * t)]), HORO)
    assert h.alpha == pytest.approx(np.exp(2 * t), rel=1e-14)

    rng = np.random.default_rng(3)
    for _ in range(50):
        p = convert(random_ball_point(rng), SIEGEL)
        q = convert(convert(p, HORO), SIEGEL)
        np.testing.assert_allclose(coords_array(q), coords_array(p), atol=1e-13)


def test_metric_examples():
    n = 2
    origin = ball_point([0, 0])
    u = np.zeros(8)
    u[4] = 1.0
    assert u @ metric_matrix(origin) @ u == pytest.approx(4.0)

    t = 0.3
    p = ball_point([0, t])
    e_n = np.zeros(8)
    e_n[4] = 1.0  # real direction of x_n
    assert e_n @ metric_matrix(p) @ e_n == pytest.approx(4.0 / (1 - t * t) ** 2, rel=1e-13)

    h = horo_point([0], 1.0, 0)
    k_dir = np.zeros(8)
    k_dir[7] = 1.0  # beta_3 direction
    assert k_dir @ metric_matrix(h) @ k_dir == pytest.approx(1.0)
    # the metric is given in the ball and horo charts only
    with pytest.raises(ShapeError):
        metric_matrix(convert(p, SIEGEL))


def test_metric_positive_definite():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = random_ball_point(rng)
        u = rng.standard_normal(8)
        assert u @ metric_matrix(p) @ u > 0
        h = convert(p, HORO)
        v = rng.standard_normal(8)
        assert v @ metric_matrix(h) @ v > 0


def test_metric_chart_agreement():
    # g_ball(u, v) equals g_horo(du', dv') under the pushforward
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = random_ball_point(rng)
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        q, uh = push_tangent(p, u, HORO)
        _, vh = push_tangent(p, v, HORO)
        gb = u @ metric_matrix(p) @ v
        gh = uh @ metric_matrix(q) @ vh
        assert gh == pytest.approx(gb, rel=1e-8, abs=1e-8)


def test_dist_chart_invariance():
    rng = np.random.default_rng(19)
    for _ in range(100):
        p, q = random_ball_point(rng), random_ball_point(rng)
        d1 = dist(p, q)
        d2 = dist(convert(p, SIEGEL), convert(q, HORO))
        assert d2 == pytest.approx(d1, abs=1e-10)


def test_interior_validation():
    with pytest.raises(NotInteriorError):
        ball_point([0, 1.0])
    with pytest.raises(NotInteriorError):
        siegel_point([1.0, 0.5])
    with pytest.raises(NotInteriorError):
        horo_point([0], 0.0, 0)


INSIDE = [0.1, 0.2, 0.0, 0.0, 0.3, 0.0, 0.1, 0.0]   # interior in all three charts


@pytest.mark.parametrize("chart", [BALL, SIEGEL, HORO])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
@pytest.mark.parametrize("slot", [0, 4, 5])
def test_non_finite_rows_are_not_interior(chart, bad, slot):
    # one NaN, infinite or square-overflowing component in any slot
    # (omega, alpha or Re zeta_n, beta) fails the interior test, for a
    # single point and for one row of a stack, without a numpy warning
    arr = np.array(INSIDE)
    point_from_array(chart, arr)
    arr[slot] = bad
    stack = np.array([INSIDE] * 3)
    stack[1, slot] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotInteriorError):
            point_from_array(chart, arr)
        with pytest.raises(NotInteriorError):
            point_from_array(chart, stack)


@pytest.mark.parametrize("chart", [BALL, SIEGEL, HORO])
def test_stack_points_match_single_points(chart):
    # a stack's points are read-only views of one frozen copy, equal to
    # point_from_array of the same row, and pass or fail with it
    rng = np.random.default_rng(5)
    arr = np.array(INSIDE) + rng.uniform(-0.05, 0.05, (6, 8))
    stack = point_from_array(chart, arr)
    assert len(stack.rows) == 6
    for i, row in enumerate(arr):
        q = point_from_array(chart, row)
        assert stack.chart == q.chart == chart
        assert np.array_equal(stack.rows[i], q.rows)
        assert not stack.rows[i].flags.writeable and not stack.rows[i].flags.owndata
        with pytest.raises(ValueError):
            stack.rows[i][0, 0] = 0.25
    assert stack.rows[0].base is stack.rows[-1].base
    arr[0, 0] = 0.5
    assert stack.rows[0][0, 0] != 0.5
    outside = {BALL: [0.9, 0.9, 0, 0, 0, 0, 0, 0], SIEGEL: [1.0, 0, 0, 0, 0.2, 0, 0, 0],
               HORO: [0.1, 0, 0, 0, 0.0, 0, 0, 0]}[chart]
    with pytest.raises(NotInteriorError):
        point_from_array(chart, np.array(outside))
    with pytest.raises(NotInteriorError):
        point_from_array(chart, np.vstack([arr, outside]))
    # n is read off the width, which must be a positive multiple of 4
    assert point_from_array(chart, arr[:, :4]).rows.shape == (6, 1, 4)
    for bad in (arr[:, :6], arr[0, :7], arr[:, :0], arr[None]):
        with pytest.raises(ShapeError):
            point_from_array(chart, bad)


def test_rows_are_read_only():
    # a ChartPoint's (n, 4) rows are frozen, and no constructor aliases its input
    arr = np.zeros(8)
    points = [ball_point([0, 0.5]), point_from_array(BALL, arr),
              horo_point([Quaternion(0.1, 0.2)], 0.7, QK)]
    points += [convert(points[0], c) for c in (SIEGEL, HORO)]
    for p in points:
        assert p.rows.shape == (2, 4)
        assert not p.rows.flags.writeable
        with pytest.raises(ValueError):
            p.rows[0, 0] = 0.25
        assert not p.omega.flags.writeable and not p.beta.flags.writeable
    arr[0] = 0.25
    assert points[1].rows[0, 0] == 0.0
    h = points[2]
    assert h.alpha == 0.7 and isinstance(h.alpha, float)
    assert np.array_equal(h.omega, [[0.1, 0.2, 0.0, 0.0]])
    assert np.array_equal(h.beta, [0.0, 0.0, 1.0])


def ball_stack(rng, n, k=7, rmax=0.8):
    # k seeded interior ball points as one (k, 4n) array
    v = rng.standard_normal((k, 4 * n))
    return v * (rng.uniform(0.05, rmax, (k, 1)) / np.linalg.norm(v, axis=1, keepdims=True))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("src", [BALL, SIEGEL, HORO])
def test_convert_stack_equals_points(n, src):
    # a stacked conversion gives, bit for bit, what each point gives alone
    stack = convert(point_from_array(BALL, ball_stack(np.random.default_rng(n), n)), src)
    assert stack.chart == src and stack.rows.shape == (7, n, 4)
    for dst in (BALL, SIEGEL, HORO):
        got = convert(stack, dst)
        assert got.chart == dst and not got.rows.flags.writeable
        for i, rows in enumerate(stack.rows):
            want = convert(point_from_array(src, rows.ravel()), dst)
            assert np.array_equal(got.rows[i], want.rows)
    assert np.array_equal(lift(stack)[:, :-1], convert(stack, BALL).rows)
    assert np.array_equal(coords_array(stack), stack.rows.reshape(7, -1))
    horo = convert(stack, HORO)
    alphas = [convert(point_from_array(src, r.ravel()), HORO).alpha for r in stack.rows]
    assert isinstance(horo.alpha, np.ndarray) and np.array_equal(horo.alpha, alphas)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dist_stack_equals_points(n):
    rng = np.random.default_rng(10 + n)
    arr, other = ball_stack(rng, n), ball_stack(rng, n)
    for chart in (BALL, HORO):
        stack = convert(point_from_array(BALL, arr), chart)
        others = point_from_array(BALL, other)
        q = random_ball_point(rng, n)
        points = [point_from_array(chart, r.ravel()) for r in stack.rows]
        pairs = [point_from_array(BALL, r) for r in other]
        assert np.array_equal(dist(stack, q), [dist(p, q) for p in points])
        assert np.array_equal(dist(q, stack), [dist(q, p) for p in points])
        assert np.array_equal(dist(stack, others),
                              [dist(p, o) for p, o in zip(points, pairs)])
        one = dist(points[0], q)
        assert isinstance(one, float) and np.ndim(one) == 0 and not isinstance(one, np.ndarray)
