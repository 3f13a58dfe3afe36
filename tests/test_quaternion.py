import numpy as np
import pytest
from hypothesis import given, strategies as st

from hqn.errors import ShapeError
from hqn.quaternion import (
    LORENTZ,
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
    qvector,
    right_mult_matrix,
    signature_class,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


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
    assert np.max(np.abs(left_mult_matrix(p) @ q.as_array() - want)) <= scale
    assert np.max(np.abs(right_mult_matrix(q) @ p.as_array() - want)) <= scale


def test_mult_matrices():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = Quaternion.from_array(rng.standard_normal(4))
        q = Quaternion.from_array(rng.standard_normal(4))
        np.testing.assert_allclose(left_mult_matrix(p) @ q.as_array(),
                                   (p * q).as_array(), atol=1e-14)
        np.testing.assert_allclose(right_mult_matrix(p) @ q.as_array(),
                                   (q * p).as_array(), atol=1e-14)


def test_herm_lorentz_examples():
    n = 3
    e_last = qvector([0] * n + [1], LORENTZ)
    assert herm_lorentz(e_last, e_last).isclose(Quaternion(-1.0))
    x_inf = qvector([0] * (n - 1) + [1, 1], LORENTZ)
    assert herm_lorentz(x_inf, x_inf).isclose(Quaternion())
    e1 = qvector([1] + [0] * n, LORENTZ)
    assert herm_lorentz(e1, e1).isclose(ONE)
    with pytest.raises(ShapeError):
        herm_lorentz(e1, qvector([0, 1], LORENTZ))


def test_herm_definite_examples():
    e1 = qvector([1, 0])
    e2 = qvector([0, 1])
    assert herm_definite(e1, e1).isclose(ONE)
    assert herm_definite(e1, e2).isclose(Quaternion())
    x = qvector([QI, QJ])
    assert herm_definite(x, x).isclose(Quaternion(2.0))


def test_signature_class():
    n = 3
    assert signature_class(qvector([0] * n + [1], LORENTZ)) == "negative"
    assert signature_class(qvector([0] * (n - 1) + [1, 1], LORENTZ)) == "null"
    assert signature_class(qvector([1] + [0] * n, LORENTZ)) == "positive"


@given(st.lists(quats, min_size=2, max_size=4), quats)
def test_right_module_equivariance(entries, lam):
    # <X lam, Y lam> = conj(lam) <X, Y> lam for unit lam
    if abs(lam) < 1e-3:
        lam = ONE
    lam = lam * (1.0 / abs(lam))
    rng = np.random.default_rng(7)
    X = qvector(entries, LORENTZ)
    Y = qvector([Quaternion.from_array(rng.standard_normal(4))
                 for _ in entries], LORENTZ)
    lhs = herm_lorentz(X.scale_right(lam), Y.scale_right(lam))
    rhs = lam.conj() * herm_lorentz(X, Y) * lam
    assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(rhs))


@given(st.lists(quats, min_size=2, max_size=4))
def test_form_is_real_on_diagonal(entries):
    X = qvector(entries, LORENTZ)
    val = herm_lorentz(X, X)
    assert abs(val.im()) <= 1e-14 * (1.0 + abs(val))
