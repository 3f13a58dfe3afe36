import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hqn.charts import (
    BALL,
    HORO,
    ball_point,
    convert,
    coords_array,
    dist,
    horo_point,
    point_from_array,
)
import hqn.isometries
from hqn.errors import DomainError, NotSymplecticError, ShapeError
from hqn.isometries import (
    Isometry,
    act,
    act_horo_closed,
    heisenberg_matrix,
    lorentz_signature,
    qmat_conj_T,
    qmat_identity,
    qmat_mul,
    qmat_to_real,
    qmat_vec,
    random_sp,
    random_unit_quaternion,
    rotation_matrix,
    sp_defect,
    sp_from_normals,
    transvection_matrix,
    unit_quaternions,
)
from hqn.quaternion import (
    QI,
    UNIT,
    Quaternion,
    components,
    hamilton,
    herm_definite,
)

from geometry_reference import heis_mul, inversion_horo


def random_ball_point(rng, n=2, rmax=0.8):
    v = rng.standard_normal(4 * n)
    v *= rng.uniform(0.05, rmax) / np.linalg.norm(v)
    return point_from_array(BALL, v)


def random_heis(rng, n=2):
    xi = rng.standard_normal((n - 1, 4))
    nu = np.concatenate([[0.0], rng.standard_normal(3)])
    return xi, nu


def test_membership_identity():
    rng = np.random.default_rng(0)
    for n in (2, 3):
        for _ in range(10):
            xi, nu = random_heis(rng, n)
            assert sp_defect(heisenberg_matrix(xi, nu).A) < 1e-12
            assert sp_defect(transvection_matrix(n, rng.uniform(-2, 2)).A) < 1e-12
            g = rotation_matrix(random_sp(n, rng), random_unit_quaternion(rng))
            assert sp_defect(g.A) < 1e-12


def test_compose_and_inverse():
    rng = np.random.default_rng(1)
    n = 2
    xi, nu = random_heis(rng, n)
    g = heisenberg_matrix(xi, nu).compose(transvection_matrix(n, 0.7))
    # A^{-1} = I_{n,1} A* I_{n,1} for members of Sp(n,1)
    J = lorentz_signature(n + 1)
    prod = g.compose(Isometry(qmat_mul(qmat_mul(J, qmat_conj_T(g.A)), J)))
    assert float(np.max(np.abs(prod.A - qmat_identity(n + 1)))) < 1e-12
    with pytest.raises(NotSymplecticError):
        Isometry(2.0 * qmat_identity(n + 1))


def test_nan_matrix_is_not_symplectic():
    # a NaN defect fails the membership check
    with pytest.raises(NotSymplecticError):
        Isometry(np.full((3, 3, 4), np.nan))
    with pytest.raises(NotSymplecticError):
        rotation_matrix(np.full((2, 2, 4), np.nan), UNIT)


@pytest.mark.parametrize("t", [8.0, -8.0, 10.0, -10.0])
def test_large_transvection_matches_closed_form(t):
    # the matrix's rounding grows like cosh(t)^2 eps, past any absolute
    # defect bound, yet its action stays accurate
    p = point_from_array(HORO, np.array([0.3, -0.1, 0.2, 0.05, 0.7, 0.1, -0.2, 0.3]))
    got = coords_array(act(transvection_matrix(2, t), p))
    want = coords_array(act_horo_closed("transvection", p, t=t))
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 711.0, -1e3])
def test_transvection_needs_finite_cosh(t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            transvection_matrix(2, t)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
@pytest.mark.parametrize("where", ["xi", "nu"])
def test_heisenberg_pair_needs_finite_entries(bad, where):
    xi, nu = np.zeros((1, 4)), np.zeros(4)
    (xi[0] if where == "xi" else nu)[1] = bad
    p = point_from_array(HORO, np.array([0.3, -0.1, 0.2, 0.05, 0.7, 0.1, -0.2, 0.3]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            heisenberg_matrix(xi, nu)
        with pytest.raises(DomainError):
            act_horo_closed("heisenberg", p, xi=xi, nu=nu)


def test_membership_checked_only_at_raw_matrices(monkeypatch):
    calls = []

    def counted(A):
        calls.append(1)
        return sp_defect(A)

    monkeypatch.setattr(hqn.isometries, "sp_defect", counted)
    rng = np.random.default_rng(3)
    n = 2
    xi, nu = random_heis(rng, n)
    g = heisenberg_matrix(xi, nu).compose(transvection_matrix(n, 0.4))
    g = g.compose(rotation_matrix(random_sp(n, rng), random_unit_quaternion(rng)))
    g.compose(g)
    assert len(calls) == 0
    Isometry(g.A)
    assert len(calls) == 1


def test_matrix_vs_closed_form():
    # matrix action through the lift agrees with the horospherical formulas
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        p = convert(random_ball_point(rng, n), HORO)
        kind = ["heisenberg", "transvection", "rotation"][int(rng.integers(3))]
        if kind == "heisenberg":
            xi, nu = random_heis(rng, n)
            params = {"xi": xi, "nu": nu}
            g = heisenberg_matrix(xi, nu)
        elif kind == "transvection":
            params = {"t": float(rng.uniform(-1.5, 1.5))}
            g = transvection_matrix(n, params["t"])
        else:
            lam = random_unit_quaternion(rng)
            B = random_sp(n - 1, rng)
            params = {"B": B, "lam": lam}
            # the horospherical rotation (B, lam) is the matrix diag(B, lam, lam)
            big = qmat_identity(n)
            big[:n - 1, :n - 1] = B
            big[n - 1, n - 1] = lam
            g = rotation_matrix(big, lam)
        q1 = act(g, p)
        q2 = act_horo_closed(kind, p, **params)
        np.testing.assert_allclose(coords_array(q1), coords_array(q2), atol=1e-10)


def test_heisenberg_group_law():
    rng = np.random.default_rng(3)
    n = 3
    for _ in range(20):
        a = random_heis(rng, n)
        b = random_heis(rng, n)
        ab = heis_mul(a, b)
        m1 = heisenberg_matrix(*a).compose(heisenberg_matrix(*b))
        m2 = heisenberg_matrix(*ab)
        np.testing.assert_allclose(m1.A, m2.A, atol=1e-13)
        # inverse: a a^{-1} = identity, with a^{-1} = (-xi, -nu)
        xi, nu = heis_mul(a, (-a[0], -a[1]))
        assert all(np.linalg.norm(x) < 1e-14 for x in xi) and np.linalg.norm(nu) < 1e-14


def test_transvection_one_parameter():
    n = 2
    for s, t in [(0.3, 0.5), (-1.1, 0.8), (2.0, -2.0)]:
        g = transvection_matrix(n, s).compose(transvection_matrix(n, t))
        np.testing.assert_allclose(g.A, transvection_matrix(n, s + t).A, atol=1e-13)


def test_distance_invariance():
    rng = np.random.default_rng(4)
    n = 2
    for _ in range(30):
        p, q = random_ball_point(rng, n), random_ball_point(rng, n)
        xi, nu = random_heis(rng, n)
        g = (heisenberg_matrix(xi, nu)
             .compose(transvection_matrix(n, rng.uniform(-1, 1)))
             .compose(rotation_matrix(random_sp(n, rng),
                                      random_unit_quaternion(rng))))
        assert dist(act(g, p), act(g, q)) == pytest.approx(dist(p, q), abs=1e-9)


def test_busemann_under_transvection():
    # the Busemann function of the axis through 0 and infinity is -ln(alpha)
    rng = np.random.default_rng(5)
    n = 2
    for _ in range(10):
        p = convert(random_ball_point(rng, n), HORO)
        t = float(rng.uniform(-1.5, 1.5))
        q = act_horo_closed("transvection", p, t=t)
        assert np.log(convert(q, HORO).alpha) == pytest.approx(np.log(p.alpha) + 2.0 * t,
                                                               abs=1e-12)
        # heisenberg translations preserve horospheres
        xi, nu = random_heis(rng, n)
        assert np.log(convert(act_horo_closed("heisenberg", p, xi=xi, nu=nu), HORO).alpha) \
            == pytest.approx(np.log(p.alpha), abs=1e-12)


def test_inversion_horo():
    rng = np.random.default_rng(6)
    n = 2
    # fixes the unit sphere |omega|^2 + alpha = 1 with beta = 0
    fixed = horo_point([Quaternion(0.6)], 1.0 - 0.36, 0)
    np.testing.assert_allclose(coords_array(inversion_horo(fixed)),
                               coords_array(fixed), atol=1e-14)
    for _ in range(30):
        p = convert(random_ball_point(rng, n), HORO)
        q = inversion_horo(inversion_horo(p))
        np.testing.assert_allclose(coords_array(q), coords_array(p), atol=1e-12)
        # inversion is an isometry
        p2 = convert(random_ball_point(rng, n), HORO)
        assert dist(inversion_horo(p), inversion_horo(p2)) == \
            pytest.approx(dist(p, p2), abs=1e-9)


def test_rotation_validation():
    with pytest.raises(NotSymplecticError):
        rotation_matrix(2.0 * qmat_identity(2), UNIT)
    with pytest.raises(NotSymplecticError):
        rotation_matrix(qmat_identity(2), 2.0 * UNIT)
    with pytest.raises(ShapeError):
        rotation_matrix(qmat_identity(2)[:, :1], UNIT)
    for xi in (np.zeros((1, 3)), np.zeros(4)):      # not rows of 4
        with pytest.raises(ShapeError):
            heisenberg_matrix(xi, QI.as_array())
    with pytest.raises(NotSymplecticError):
        heisenberg_matrix(components([QI]), UNIT)


def test_inputs_sized_for_another_n_are_refused():
    # xi and a rotation block fix the n of their own matrices, so the
    # closed-form action holds each to the point's n (a block on Q^{n-1}),
    # and qmat_vec holds the vector to the matrix
    rng = np.random.default_rng(9)
    p = convert(random_ball_point(rng, 3), HORO)
    xi, nu = random_heis(rng, 2)
    B, lam = random_sp(1, rng), random_unit_quaternion(rng)
    assert heisenberg_matrix(xi, nu).A.shape == (3, 3, 4)
    assert rotation_matrix(B, lam).A.shape == (2, 2, 4)
    with pytest.raises(ShapeError):
        act_horo_closed("heisenberg", p, xi=xi, nu=nu)
    with pytest.raises(ShapeError):
        act_horo_closed("rotation", p, B=B, lam=lam)
    with pytest.raises(ShapeError):
        act_horo_closed("rotation", p, B=random_sp(3, rng), lam=lam)
    with pytest.raises(ShapeError):
        qmat_vec(qmat_identity(4), np.zeros((3, 4)))


def test_qmat_vec_right_module():
    # matrix action commutes with right scalar multiplication of the vector
    rng = np.random.default_rng(8)
    A = random_sp(3, rng)
    X = rng.standard_normal((3, 4))
    lam = random_unit_quaternion(rng)
    lhs = qmat_vec(A, hamilton(X, lam))
    rhs = hamilton(qmat_vec(A, X), lam)
    for a, b in zip(lhs, rhs):
        assert np.linalg.norm(a - b) <= 1e-13


finite = st.floats(min_value=-3, max_value=3, allow_nan=False)
small = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)


@given(st.data())
def test_real_representation_is_homomorphism(data):
    m, k, c = (data.draw(st.integers(1, 3)) for _ in range(3))
    A = data.draw(arrays(float, (m, k, 4), elements=finite))
    B = data.draw(arrays(float, (k, c, 4), elements=finite))
    np.testing.assert_array_equal(qmat_to_real(qmat_conj_T(A)), qmat_to_real(A).T)
    AB = qmat_mul(A, B)
    scale = 1e-14 * (1.0 + k * 9.0)
    assert np.max(np.abs(qmat_to_real(AB) - qmat_to_real(A) @ qmat_to_real(B))) <= scale
    # entrywise against the scalar Quaternion product
    for r in range(m):
        for col in range(c):
            want = sum((Quaternion(*A[r, l]) * Quaternion(*B[l, col])
                        for l in range(k)), Quaternion())
            assert np.max(np.abs(AB[r, col] - want.as_array())) <= scale


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3),
       st.lists(st.sampled_from(["heisenberg", "transvection", "rotation"]),
                min_size=1, max_size=4),
       st.lists(small, min_size=8, max_size=8), st.integers(0, 2 ** 32 - 1))
def test_subgroup_products_stay_symplectic(n, kinds, params, seed):
    rng = np.random.default_rng(seed)
    xi = np.zeros((n - 1, 4))
    xi[0] = params[:4]
    nu = np.array([0.0, *params[4:7]])
    g = Isometry(qmat_identity(n + 1))
    for kind in kinds:
        if kind == "heisenberg":
            f = heisenberg_matrix(xi, nu)
        elif kind == "transvection":
            f = transvection_matrix(n, params[7])
        else:
            f = rotation_matrix(random_sp(n, rng), random_unit_quaternion(rng))
        g = g.compose(f)
        assert sp_defect(g.A) <= 1e-12


@given(st.integers(2, 4), st.data())
def test_heisenberg_action_matches_scalar_sums(n, data):
    # the closed-form Heisenberg action against the same sums in scalar
    # Quaternion arithmetic: (xi + omega, alpha, nu + beta + 2 Im(xi, omega))
    xi = data.draw(arrays(float, (n - 1, 4), elements=finite))
    nu = np.array([0.0, *data.draw(st.lists(finite, min_size=3, max_size=3))])
    omega = data.draw(arrays(float, (n - 1, 4), elements=finite))
    last = np.array([data.draw(st.floats(0.1, 3.0)),
                     *data.draw(st.lists(finite, min_size=3, max_size=3))])
    p = point_from_array(HORO, np.vstack([omega, last]).ravel())
    q = act_horo_closed("heisenberg", p, xi=xi, nu=nu)
    cross = sum((Quaternion(*x).conj() * Quaternion(*w) for x, w in zip(xi, omega)),
                Quaternion())
    beta = Quaternion(*nu) + Quaternion(0.0, *last[1:]) + 2.0 * cross.im()
    # relative to the size of the terms; the floor covers underflow
    scale = 1e-14 * (np.linalg.norm(nu) + np.linalg.norm(last[1:])
                     + 2.0 * float(np.sum(np.linalg.norm(xi, axis=1)
                                          * np.linalg.norm(omega, axis=1)))) + 1e-300
    assert np.array_equal(q.omega, xi + omega)
    assert q.alpha == last[0]
    assert np.linalg.norm(q.beta - beta.as_array()[1:]) <= scale


# ---------------------------------------------------------------------------
# stacks: each element gives the bits it gives alone

KINDS = ("heisenberg", "transvection", "rotation")


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _stacked_draws(n, k, seed):
    """k Heisenberg pairs, transvection times, rotations (B, lam) with their
    (n+1)x(n+1) matrices, and ball coordinates of k points."""
    rng = np.random.default_rng(seed)
    xi = rng.normal(0, 0.4, (k, n - 1, 4))
    nu = np.zeros((k, 4))
    nu[:, 1:] = rng.normal(0, 0.4, (k, 3))
    t = rng.normal(0, 0.5, k)
    B = np.array([random_sp(n - 1, rng) for _ in range(k)])
    lam = np.array([random_unit_quaternion(rng) for _ in range(k)])
    big = np.array([qmat_identity(n + 1)] * k)
    big[:, :n - 1, :n - 1] = B
    big[:, n - 1, n - 1] = big[:, n, n] = lam
    x = rng.standard_normal((k, 4 * n))
    x *= rng.uniform(0.05, 0.8, (k, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    return dict(xi=xi, nu=nu), dict(t=t), dict(B=B, lam=lam), big, x


def _generator(kind, n, params, big, i=...):
    """The stacked generator of kind, or, for an index i, its element i."""
    if kind == "heisenberg":
        return heisenberg_matrix(params["xi"][i], params["nu"][i])
    if kind == "transvection":
        return transvection_matrix(n, params["t"][i])
    return Isometry(big[i])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matrix_stack_matches_elements(n):
    rng = np.random.default_rng(40 + n)
    k = 6
    A = rng.standard_normal((k, n + 1, n + 1, 4))
    B = rng.standard_normal((k, n + 1, 2, 4))
    X = rng.standard_normal((k, n + 1, 4))
    AB, AX, A0X = qmat_mul(A, B), qmat_vec(A, X), qmat_vec(A[0], X)
    R, AH = qmat_to_real(A), qmat_conj_T(A)
    for i in range(k):
        assert _bits(AB[i]) == _bits(qmat_mul(A[i], B[i]))
        assert _bits(AX[i]) == _bits(qmat_vec(A[i], X[i]))
        assert _bits(A0X[i]) == _bits(qmat_vec(A[0], X[i]))
        assert _bits(R[i]) == _bits(qmat_to_real(A[i]))
        assert _bits(AH[i]) == _bits(qmat_conj_T(A[i]))
    defects = sp_defect(A)
    assert defects.shape == (k,)
    assert all(_bits(defects[i]) == _bits(sp_defect(A[i])) for i in range(k))
    one = sp_defect(A[0])
    assert isinstance(one, float) and np.ndim(one) == 0 and not isinstance(one, np.ndarray)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_isometry_stack_matches_elements(n):
    k = 7
    heis, trans, rot, big, x = _stacked_draws(n, k, 50 + n)
    p = convert(point_from_array(BALL, x), HORO)
    for kind, params in zip(KINDS, (heis, trans, rot)):
        g, g0 = _generator(kind, n, params, big), _generator(kind, n, params, big, 0)
        assert g.A.shape == (k, n + 1, n + 1, 4)
        one = {name: v[0] for name, v in params.items()}
        defects = sp_defect(g.A)
        moved = coords_array(act(g, p))
        closed = coords_array(act_horo_closed(kind, p, **params))
        # one matrix, or one parameter set, on the whole stack
        moved_one = coords_array(act(g0, p))
        closed_one = coords_array(act_horo_closed(kind, p, **one))
        for i in range(k):
            pi = convert(point_from_array(BALL, x[i]), HORO)
            gi = _generator(kind, n, params, big, i)
            each = {name: v[i] for name, v in params.items()}
            assert _bits(g.A[i]) == _bits(gi.A)
            assert _bits(defects[i]) == _bits(sp_defect(gi.A))
            assert _bits(moved[i]) == _bits(coords_array(act(gi, pi)))
            assert _bits(closed[i]) == _bits(coords_array(act_horo_closed(kind, pi, **each)))
            assert _bits(moved_one[i]) == _bits(coords_array(act(g0, pi)))
            assert _bits(closed_one[i]) == _bits(coords_array(act_horo_closed(kind, pi, **one)))


def test_isometry_stack_checks_every_matrix():
    n = 2
    heis, trans, rot, big, x = _stacked_draws(n, 5, 60)
    Isometry(big)
    for bad in (2.0, np.nan):
        A = big.copy()
        A[3] *= bad
        with pytest.raises(NotSymplecticError):
            Isometry(A)
    with pytest.raises(ShapeError):
        Isometry(big[..., :3])


def test_stacked_parameters_checked_per_element():
    n = 3
    heis, trans, rot, big, x = _stacked_draws(n, 4, 61)
    p = convert(point_from_array(BALL, x), HORO)
    xi, nu = heis["xi"].copy(), heis["nu"].copy()
    xi[2, 1, 3] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            heisenberg_matrix(xi, nu)
        with pytest.raises(DomainError):
            act_horo_closed("heisenberg", p, xi=xi, nu=nu)
        with pytest.raises(DomainError):
            transvection_matrix(n, np.array([0.1, 0.2, 1e3, 0.3]))
    nu[1, 0] = 0.5
    with pytest.raises(NotSymplecticError):
        heisenberg_matrix(heis["xi"], nu)
    with pytest.raises(ShapeError):
        heisenberg_matrix(heis["xi"], heis["nu"][:3])
    with pytest.raises(ShapeError):
        heisenberg_matrix(heis["xi"][None], heis["nu"][None])
    with pytest.raises(ShapeError):
        transvection_matrix(n, np.zeros((2, 2)))
    # parameters stacked unlike the points
    with pytest.raises(ShapeError):
        act_horo_closed("transvection", p, t=trans["t"][:3])
    with pytest.raises(ShapeError):
        act_horo_closed("rotation", p, B=rot["B"][:2], lam=rot["lam"][:2])


def test_act_on_mismatched_stacks_is_shape_error():
    n = 2
    heis, trans, rot, big, x = _stacked_draws(n, 4, 62)
    g = transvection_matrix(n, trans["t"][:3])
    p = point_from_array(BALL, x)
    with pytest.raises(ShapeError):
        act(g, p)
    with pytest.raises(ShapeError):
        qmat_vec(g.A, np.zeros((4, n + 1, 4)))


def _random_sp_per_column(n, rng):
    # random_sp as it was written before it took a stack: one draw and one
    # Gram-Schmidt pass per column
    A = np.zeros((n, n, 4))
    for c in range(n):
        v = rng.standard_normal((n, 4))
        for u in A[:, :c].transpose(1, 0, 2):
            v = v - hamilton(u, herm_definite(u, v))
        A[:, c] = v * (1.0 / float(np.sqrt(np.sum(v * v))))
    return A


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_sp_stack_equals_single_calls(n):
    k = 7
    per_column, single, stacked = (np.random.default_rng(31 + n) for _ in range(3))
    want = [_random_sp_per_column(n, per_column) for _ in range(k)]
    got = [random_sp(n, single) for _ in range(k)]
    stack = sp_from_normals(stacked.standard_normal((k, n, n, 4)))
    assert stack.shape == (k, n, n, 4)
    for i in range(k):
        assert want[i].tobytes() == got[i].tobytes() == stack[i].tobytes()
    assert (per_column.bit_generator.state == single.bit_generator.state
            == stacked.bit_generator.state)
    # each column is a unit vector orthogonal to the columns before it
    B = stack[0]
    np.testing.assert_allclose(qmat_mul(qmat_conj_T(B), B), qmat_identity(n), atol=1e-14)


def test_unit_quaternions_stack_equals_rows():
    rng = np.random.default_rng(5)
    v = rng.standard_normal((9, 4))
    stacked = unit_quaternions(v)
    for row, got in zip(v, stacked):
        # the normalisation random_unit_quaternion had: np.linalg.norm of the row
        assert got.tobytes() == (row / np.linalg.norm(row)).tobytes()
        assert got.tobytes() == unit_quaternions(row).tobytes()
    again = np.random.default_rng(5)
    assert random_unit_quaternion(again).tobytes() == stacked[0].tobytes()
