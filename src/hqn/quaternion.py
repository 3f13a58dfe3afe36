"""Quaternion arithmetic and the two Hermitian forms.

Every quaternion value is a float array of shape (..., 4), components
q0..q3 on the last axis: a vector over the quaternions is (k, 4) rows, a
stack of vectors (..., k, 4), and all products go through one Hamilton
product table. Leading axes are stack axes: one value and a stack of them
go through the same expression, so a stack gives each value's bits, and a
norm or sign of one value is a numpy scalar. ``Quaternion`` is the scalar
reference the array core is tested against, and an accepted input where
points are built (see ``components``).

Scalars multiply vectors on the right throughout (right-module convention).
All components are 64-bit floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class Quaternion:
    """q = q0 + i*q1 + j*q2 + k*q3 with real components."""

    q0: float = 0.0
    q1: float = 0.0
    q2: float = 0.0
    q3: float = 0.0

    def __add__(self, other: "Quaternion") -> "Quaternion":
        other = _coerce(other)
        return Quaternion(self.q0 + other.q0, self.q1 + other.q1,
                          self.q2 + other.q2, self.q3 + other.q3)

    __radd__ = __add__

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        other = _coerce(other)
        return Quaternion(self.q0 - other.q0, self.q1 - other.q1,
                          self.q2 - other.q2, self.q3 - other.q3)

    def __rsub__(self, other) -> "Quaternion":
        return _coerce(other) - self

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.q0, -self.q1, -self.q2, -self.q3)

    def __mul__(self, other) -> "Quaternion":
        p, q = self, _coerce(other)
        return Quaternion(
            p.q0 * q.q0 - p.q1 * q.q1 - p.q2 * q.q2 - p.q3 * q.q3,
            p.q0 * q.q1 + p.q1 * q.q0 + p.q2 * q.q3 - p.q3 * q.q2,
            p.q0 * q.q2 - p.q1 * q.q3 + p.q2 * q.q0 + p.q3 * q.q1,
            p.q0 * q.q3 + p.q1 * q.q2 - p.q2 * q.q1 + p.q3 * q.q0,
        )

    def __rmul__(self, other) -> "Quaternion":
        return _coerce(other) * self

    def conj(self) -> "Quaternion":
        return Quaternion(self.q0, -self.q1, -self.q2, -self.q3)

    def norm2(self) -> float:
        return self.q0 ** 2 + self.q1 ** 2 + self.q2 ** 2 + self.q3 ** 2

    def __abs__(self) -> float:
        return float(np.sqrt(self.norm2()))

    def re(self) -> float:
        return self.q0

    def im(self) -> "Quaternion":
        return Quaternion(0.0, self.q1, self.q2, self.q3)

    def inverse(self) -> "Quaternion":
        n2 = self.norm2()
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion(self.q0 / n2, -self.q1 / n2, -self.q2 / n2, -self.q3 / n2)

    def as_array(self) -> np.ndarray:
        return np.array([self.q0, self.q1, self.q2, self.q3], dtype=float)

    @staticmethod
    def from_array(a: Iterable[float]) -> "Quaternion":
        a = np.asarray(a, dtype=float)
        return Quaternion(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    def isclose(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return abs(self - _coerce(other)) <= tol


def _coerce(x) -> Quaternion:
    if isinstance(x, Quaternion):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return Quaternion(float(x))
    raise TypeError(f"cannot interpret {x!r} as a quaternion")


ONE = Quaternion(1.0)
QI = Quaternion(0.0, 1.0)
QJ = Quaternion(0.0, 0.0, 1.0)
QK = Quaternion(0.0, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# array core: quaternions as float arrays of shape (..., 4)

# The Hamilton product as one index/sign table: the real matrix of x -> q*x
# has entry (r, c) equal to _LSIGN[r, c] * q[_IDX[r, c]]. Scattered into the
# structure tensor _T[i, r, c], (p*q)_r = sum_{i,c} p_i q_c _T[i, r, c], so
# that x -> q*x is sum_i q_i _T[i] and x -> x*q is sum_i q_i _T[:, :, i].T.
_IDX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LSIGN = np.array([[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, -1.0, 1.0],
                   [1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, 1.0]])
_T = np.zeros((4, 4, 4))
_T[_IDX, np.arange(4)[:, None], np.arange(4)] = _LSIGN
_LEFT = _T.reshape(4, 16)
_RIGHT = _T.transpose(2, 1, 0).reshape(4, 16)
CONJ = np.array([1.0, -1.0, -1.0, -1.0])   # multiply components to conjugate
IMAG = np.array([0.0, 1.0, 1.0, 1.0])    # multiply components to take Im(q)
UNIT = np.array([1.0, 0.0, 0.0, 0.0])


def left_mult_matrix(q) -> np.ndarray:
    """(..., 4, 4) real matrices of x -> q*x, for q of shape (..., 4)."""
    q = np.asarray(q, dtype=float)
    return (q @ _LEFT).reshape(q.shape[:-1] + (4, 4))


def right_mult_matrix(q) -> np.ndarray:
    """(..., 4, 4) real matrices of x -> x*q, for q of shape (..., 4)."""
    q = np.asarray(q, dtype=float)
    return (q @ _RIGHT).reshape(q.shape[:-1] + (4, 4))


def hamilton(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product p*q of broadcastable (..., 4) component arrays."""
    return np.matmul(left_mult_matrix(p), np.asarray(q, dtype=float)[..., None])[..., 0]


def qarray_inverse(q: np.ndarray) -> np.ndarray:
    """Inverse of each quaternion of a (..., 4) array."""
    n2 = qnorm2(q)
    if not n2.all():
        raise ZeroDivisionError("zero quaternion has no inverse")
    return q * CONJ / n2[..., None]


def components(entries) -> np.ndarray:
    """(k, 4) component array of a sequence of Quaternions and reals."""
    return np.array([(q.q0, q.q1, q.q2, q.q3) for q in map(_coerce, entries)],
                    dtype=float).reshape(-1, 4)


def qnorm2(q: np.ndarray):
    """|q|^2 of each quaternion of a (..., 4) array, as a numpy scalar for
    one quaternion: the sum of squares along the last axis, by one BLAS dot
    per sum, so a quaternion gives the same bits alone and in a stack. A
    square that overflows is inf, without a warning."""
    with np.errstate(over="ignore"):
        return np.vecdot(q, q)


def norm2(rows: np.ndarray):
    """Sum of the squared components of each vector of quaternions: one
    value per (k, 4) rows of a (..., k, 4) array, by qnorm2 of the 4k reals."""
    return qnorm2(rows.reshape(rows.shape[:-2] + (-1,)))


def _herm_terms(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The terms conj(X_l) Y_l of two (..., k, 4) row vectors, as (..., k, 4)
    rows; leading stack axes broadcast."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    if X.shape[-2:] != Y.shape[-2:]:
        raise ShapeError(f"length mismatch: {X.shape[:-1]} vs {Y.shape[:-1]}")
    return hamilton(X * CONJ, Y)


def herm_lorentz(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Indefinite Hermitian form of Q^{n,1} on (..., n+1, 4) rows, as (..., 4)
    rows: sum conj(X_l) Y_l over l <= n, minus the last term."""
    terms = _herm_terms(X, Y)
    terms[..., -1, :] *= -1.0
    return terms.sum(axis=-2)


def herm_definite(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Definite Hermitian form (x, y) = sum conj(x_l) y_l on (..., k, 4)
    rows, as (..., 4) rows."""
    return _herm_terms(x, y).sum(axis=-2)


SIGNATURE_EPS = 1e-10


def lorentz_sign(X: np.ndarray):
    """Sign of <X,X> under a tolerance relative to X's size: 1, 0 or -1 per
    (n+1, 4) rows of an (..., n+1, 4) array. NaN is 0."""
    val = herm_lorentz(X, X)[..., 0]
    eps = SIGNATURE_EPS * (1.0 + norm2(X))
    return ((val > eps).astype(int) - (val < -eps))[()]

