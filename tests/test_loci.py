import numpy as np
import pytest

from hqn.charts import (
    BALL,
    HORO,
    SIEGEL,
    ball_point,
    convert,
    coords_array,
    horo_point,
    point_from_array,
)
from hqn.errors import DegenerateLocusError, ShapeError
from hqn.isometries import act_horo_closed, inversion_horo
from hqn.loci import (
    bisector_family_residual,
    bisector_residual,
    canonical_bisector_residual,
    fan_at_origin_residual,
    fan_normal,
    fan_residual,
    spine_projection,
)
from hqn.quaternion import QI, QK, Quaternion


def random_ball_point(rng, n=2, rmax=0.8):
    v = rng.standard_normal(4 * n)
    v *= rng.uniform(0.05, rmax) / np.linalg.norm(v)
    return point_from_array(BALL, v, n)


CANON_P1 = ball_point([0, 0.5 * QK])
CANON_P2 = ball_point([0, -0.5 * QK])


def test_bisector_trivial():
    mid = ball_point([0, 0])
    assert bisector_residual(mid, CANON_P1, CANON_P2) == 0.0
    assert bisector_residual(CANON_P1, CANON_P1, CANON_P2) < 0.0
    with pytest.raises(DegenerateLocusError):
        bisector_residual(mid, CANON_P1, CANON_P1)


def test_bisector_canonical_grid():
    # zero exactly where the k-part of x_n vanishes
    rng = np.random.default_rng(21)
    for _ in range(100):
        v = rng.standard_normal(8)
        v *= rng.uniform(0.05, 0.8) / np.linalg.norm(v)
        on = v.copy()
        on[7] = 0.0
        p_on = point_from_array(BALL, on, 2)
        assert abs(bisector_residual(p_on, CANON_P1, CANON_P2)) < 1e-12
        off = v.copy()
        off[7] = rng.uniform(0.05, 0.3) * rng.choice([-1, 1])
        if np.linalg.norm(off) < 1.0:
            p_off = point_from_array(BALL, off, 2)
            assert abs(bisector_residual(p_off, CANON_P1, CANON_P2)) > 1e-6


def test_canonical_bisector_residual():
    assert canonical_bisector_residual(horo_point([0], 1.0, 0)) == 0.0
    assert canonical_bisector_residual(horo_point([0], 1.0, QK)) == -1.0
    rng = np.random.default_rng(1)
    for _ in range(10):
        w = Quaternion.from_array(0.5 * rng.standard_normal(4))
        a = float(rng.uniform(0.2, 3.0))
        assert canonical_bisector_residual(horo_point([w], a, QI)) == 0.0


def test_zero_set_agreement():
    # the equidistance residual and Re(k beta) vanish together
    rng = np.random.default_rng(2)
    agree = 0
    for _ in range(2000):
        p = random_ball_point(rng)
        b = bisector_residual(p, CANON_P1, CANON_P2)
        c = canonical_bisector_residual(p)
        assert (abs(b) < 1e-9) == (abs(c) < 1e-9)
        agree += 1
    assert agree == 2000


def test_spine_projection():
    p = horo_point([0], 1.0, 0)
    np.testing.assert_allclose(coords_array(spine_projection(p)),
                               coords_array(p), atol=1e-15)
    xi = Quaternion(0.3, -0.2, 0.1, 0.4)
    q = spine_projection(horo_point([xi], 1.0, 0))
    assert np.linalg.norm(q.omega[0]) == 0.0
    assert q.alpha == pytest.approx(1.0 + xi.norm2())
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = convert(random_ball_point(rng), HORO)
        once = spine_projection(p)
        twice = spine_projection(once)
        np.testing.assert_allclose(coords_array(twice), coords_array(once),
                                   atol=1e-14)
        # fibers keep beta, so they lie in the canonical bisector iff
        # their spine point does
        assert canonical_bisector_residual(p) == pytest.approx(
            canonical_bisector_residual(once), abs=1e-15)


def test_fan_residual():
    normal = fan_normal(2, 0)
    assert fan_residual(horo_point([0], 1.0, 0), normal) == 0.0
    assert fan_residual(horo_point([Quaternion(1.0)], 1.0, 0), normal) == 1.0
    assert fan_residual(horo_point([Quaternion(1.0)], 1.0, 0), normal, 0.25) == 0.75
    with pytest.raises(DegenerateLocusError):
        fan_residual(horo_point([0], 1.0, 0), np.zeros(4))
    with pytest.raises(ShapeError):
        fan_residual(horo_point([0], 1.0, 0), np.ones(8))

    # invariance under Heisenberg translations with Re(xi_{n-1}) = 0
    rng = np.random.default_rng(4)
    for _ in range(30):
        p = convert(random_ball_point(rng), HORO)
        xi = np.array([[0.0, *rng.standard_normal(3)]])
        nu = np.array([0.0, *rng.standard_normal(3)])
        q = act_horo_closed("heisenberg", p, xi=xi, nu=nu)
        assert fan_residual(q, normal) == pytest.approx(
            fan_residual(p, normal), abs=1e-12)


def test_bisector_family():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = convert(random_ball_point(rng), HORO)
        assert bisector_family_residual(p, 0.0) == \
            canonical_bisector_residual(p)
    t = 0.7
    w = Quaternion(0.1, 0.2, -0.3, 0.4)
    p = horo_point([w], 1.0, Quaternion(0, 0.5, -0.1, 2.0 * t * w.q3))
    assert bisector_family_residual(p, t) == pytest.approx(0.0, abs=1e-15)

    # the translation with xi_{n-1} = t carries the bisector to member t
    for _ in range(30):
        p = convert(random_ball_point(rng), HORO)
        t = float(rng.uniform(-2, 2))
        q = act_horo_closed("heisenberg", p, xi=np.array([[t, 0.0, 0.0, 0.0]]),
                            nu=np.zeros(4))
        assert bisector_family_residual(q, t) == pytest.approx(
            canonical_bisector_residual(p), abs=1e-12)


def test_fan_at_origin_examples():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = float(rng.uniform(0.1, 3.0))
        b = Quaternion(0, *rng.standard_normal(3))
        assert fan_at_origin_residual(horo_point([0], a, b)) == 0.0
    assert fan_at_origin_residual(horo_point([QK], 1.0, 0)) == 2.0


def test_fan_at_origin_gradient():
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(1000):
        p = convert(random_ball_point(rng), HORO)
        c = coords_array(p)
        g = np.zeros(8)
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            g[i] = (fan_at_origin_residual(point_from_array(HORO, c + e, 2))
                    - fan_at_origin_residual(point_from_array(HORO, c - e, 2))) / (2 * h)
        assert np.linalg.norm(g) > 1e-8


def test_inversion_maps_fan_to_fan_at_origin():
    # points with vanishing k-part of omega_{n-1} invert into the
    # vertex-at-origin fan
    rng = np.random.default_rng(8)
    for _ in range(200):
        w = Quaternion.from_array(rng.standard_normal(4))
        w = Quaternion(w.q0, w.q1, w.q2, 0.0)
        a = float(rng.uniform(0.1, 4.0))
        b = Quaternion(0, *rng.standard_normal(3))
        p = horo_point([w], a, b)
        q = inversion_horo(p)
        assert abs(fan_at_origin_residual(q)) < 1e-9 * (1.0 + a + abs(b))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("chart", [BALL, SIEGEL, HORO])
def test_residuals_stack_equals_points(n, chart):
    # every residual on a stack gives, bit for bit, its values at the points
    # alone, and a float at one point, not a 0-d array
    rng = np.random.default_rng([n, len(chart)])
    v = rng.standard_normal((7, 4 * n))
    v *= rng.uniform(0.05, 0.8, (7, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
    stack = convert(point_from_array(BALL, v, n), chart)
    points = [point_from_array(chart, r.ravel(), n) for r in stack.rows]
    p1, p2 = random_ball_point(rng, n), random_ball_point(rng, n)
    normal = rng.standard_normal(4 * (n - 1))
    residuals = [lambda q: bisector_residual(q, p1, p2), canonical_bisector_residual,
                 lambda q: fan_residual(q, fan_normal(n, 0)),
                 lambda q: fan_residual(q, normal, 0.3),
                 lambda q: bisector_family_residual(q, 0.7),
                 lambda q: bisector_family_residual(q, -1.3), fan_at_origin_residual]
    for f in residuals:
        got = f(stack)
        assert isinstance(got, np.ndarray) and got.shape == (7,)
        want = [f(p) for p in points]
        assert all(isinstance(w, float) and np.ndim(w) == 0
                   and not isinstance(w, np.ndarray) for w in want)
        assert np.array_equal(got, want)
