import numpy as np
import pytest
from hypothesis import given, strategies as st

from hqn.errors import ShapeError
from hqn.quaternion import (
    ONE,
    QI,
    QJ,
    QK,
    Quaternion,
    components,
    hamilton,
    herm_definite,
    herm_lorentz,
    left_mult_matrix,
    lorentz_sign,
    right_mult_matrix,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def isclose(a, b, tol=1e-12) -> bool:
    # Quaternion.isclose on rows: a Euclidean-norm test
    return float(np.linalg.norm(np.subtract(a, b))) <= tol


def test_defining_relations():
    assert (QI * QJ).isclose(QK)
    assert (QJ * QI).isclose(-QK)
    s = Quaternion(1 / np.sqrt(2), 1 / np.sqrt(2))
    assert (s * s).isclose(QI)


def test_qinv():
    assert ONE.inverse().isclose(ONE)
    assert QK.inverse().isclose(-QK)
    with pytest.raises(ZeroDivisionError):
        Quaternion().inverse()


@given(quats, quats, quats)
def test_associativity(p, q, r):
    lhs = (p * q) * r
    rhs = p * (q * r)
    scale = 1.0 + abs(p) * abs(q) * abs(r)
    assert abs(lhs - rhs) <= 1e-14 * scale


@given(quats, quats)
def test_normed_algebra(p, q):
    assert abs(p * q) == pytest.approx(abs(p) * abs(q), abs=1e-12, rel=1e-12)


@given(quats)
def test_conj_involution(q):
    assert q.conj().conj() == q
    assert q.im().re() == 0.0


@given(quats, quats)
def test_hamilton_matches_scalar_product(p, q):
    got = hamilton(p.as_array(), q.as_array())
    want = (p * q).as_array()
    assert np.max(np.abs(got - want)) <= 1e-14 * (1.0 + abs(p) * abs(q))


@given(st.lists(quats, min_size=1, max_size=4), quats)
def test_hamilton_broadcasts_rows(ps, q):
    # rows times one quaternion, and one quaternion times rows
    right = hamilton(components(ps), q.as_array())
    left = hamilton(q.as_array(), components(ps))
    for p, r, l in zip(ps, right, left):
        scale = 1e-14 * (1.0 + abs(p) * abs(q))
        assert np.max(np.abs(r - (p * q).as_array())) <= scale
        assert np.max(np.abs(l - (q * p).as_array())) <= scale


@given(quats, quats)
def test_mult_matrices_match_scalar_product(p, q):
    want = (p * q).as_array()
    scale = 1e-14 * (1.0 + abs(p) * abs(q))
    assert np.max(np.abs(left_mult_matrix(p.as_array()) @ q.as_array() - want)) <= scale
    assert np.max(np.abs(right_mult_matrix(q.as_array()) @ p.as_array() - want)) <= scale


def test_mult_matrices():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = Quaternion.from_array(rng.standard_normal(4))
        q = Quaternion.from_array(rng.standard_normal(4))
        np.testing.assert_allclose(left_mult_matrix(p.as_array()) @ q.as_array(),
                                   (p * q).as_array(), atol=1e-14)
        np.testing.assert_allclose(right_mult_matrix(p.as_array()) @ q.as_array(),
                                   (q * p).as_array(), atol=1e-14)


def test_herm_lorentz_examples():
    n = 3
    e_last = components([0] * n + [1])
    assert isclose(herm_lorentz(e_last, e_last), Quaternion(-1.0).as_array())
    x_inf = components([0] * (n - 1) + [1, 1])
    assert isclose(herm_lorentz(x_inf, x_inf), Quaternion().as_array())
    e1 = components([1] + [0] * n)
    assert isclose(herm_lorentz(e1, e1), ONE.as_array())
    with pytest.raises(ShapeError):
        herm_lorentz(e1, components([0, 1]))


def test_herm_definite_examples():
    e1 = components([1, 0])
    e2 = components([0, 1])
    assert isclose(herm_definite(e1, e1), ONE.as_array())
    assert isclose(herm_definite(e1, e2), Quaternion().as_array())
    x = components([QI, QJ])
    assert isclose(herm_definite(x, x), Quaternion(2.0).as_array())
    with pytest.raises(ShapeError):
        herm_definite(e1, components([0, 1, 0]))


def test_signature_class():
    n = 3
    X = np.stack([components([0] * n + [1]), components([0] * (n - 1) + [1, 1]),
                  components([1] + [0] * n), np.full((n + 1, 4), np.nan)])
    # one test for a vector and for each vector of a stack; NaN is null
    assert lorentz_sign(X).tolist() == [-1, 0, 1, 0]
    assert [lorentz_sign(x) for x in X] == [-1, 0, 1, 0]


@given(st.lists(quats, min_size=2, max_size=4), quats)
def test_right_module_equivariance(entries, lam):
    # <X lam, Y lam> = conj(lam) <X, Y> lam for unit lam
    if abs(lam) < 1e-3:
        lam = ONE
    lam = lam * (1.0 / abs(lam))
    rng = np.random.default_rng(7)
    X = components(entries)
    Y = rng.standard_normal(X.shape)
    lhs = herm_lorentz(hamilton(X, lam.as_array()), hamilton(Y, lam.as_array()))
    rhs = lam.conj() * Quaternion(*herm_lorentz(X, Y)) * lam
    assert np.linalg.norm(lhs - rhs.as_array()) <= 1e-13 * (1.0 + abs(rhs))


@given(st.lists(quats, min_size=2, max_size=4))
def test_form_is_real_on_diagonal(entries):
    X = components(entries)
    val = Quaternion(*herm_lorentz(X, X))
    assert abs(val.im()) <= 1e-14 * (1.0 + abs(val))


@given(st.lists(st.tuples(quats, quats), min_size=1, max_size=4))
def test_forms_match_scalar_sums(pairs):
    # the row forms against the same sums in scalar Quaternion arithmetic
    X = components([x for x, _ in pairs])
    Y = components([y for _, y in pairs])
    terms = [x.conj() * y for x, y in pairs]
    definite = sum(terms, Quaternion())
    lorentz = sum(terms[:-1], Quaternion()) - terms[-1]
    # relative to the size of the terms; the floor covers underflow
    scale = 1e-14 * sum(abs(x) * abs(y) for x, y in pairs) + 1e-300
    assert np.linalg.norm(herm_definite(X, Y) - definite.as_array()) <= scale
    assert np.linalg.norm(herm_lorentz(X, Y) - lorentz.as_array()) <= scale
