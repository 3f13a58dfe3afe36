"""Quaternion arithmetic and the two Hermitian forms.

Arithmetic on points and matrices runs on float arrays of shape (..., 4)
(components q0..q3 on the last axis) through one Hamilton product table.
``Quaternion`` is the scalar type at API edges; its own product is the
scalar formula that the array core is tested against.

Scalars multiply vectors on the right throughout (right-module convention).
All components are 64-bit floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


ZERO = Quaternion()
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
UNIT = np.array([1.0, 0.0, 0.0, 0.0])


def _as_array(q) -> np.ndarray:
    return q.as_array() if isinstance(q, Quaternion) else np.asarray(q, dtype=float)


def left_mult_matrix(q) -> np.ndarray:
    """(..., 4, 4) real matrices of x -> q*x, for q a Quaternion or (..., 4)."""
    q = _as_array(q)
    return (q @ _LEFT).reshape(q.shape[:-1] + (4, 4))


def right_mult_matrix(q) -> np.ndarray:
    """(..., 4, 4) real matrices of x -> x*q, for q a Quaternion or (..., 4)."""
    q = _as_array(q)
    return (q @ _RIGHT).reshape(q.shape[:-1] + (4, 4))


def hamilton(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product p*q of broadcastable (..., 4) component arrays."""
    return np.matmul(left_mult_matrix(p), np.asarray(q, dtype=float)[..., None])[..., 0]


def qarray_inverse(q: np.ndarray) -> np.ndarray:
    """Inverse of one quaternion given as a (4,) component array."""
    n2 = float(q @ q)
    if n2 == 0.0:
        raise ZeroDivisionError("zero quaternion has no inverse")
    return q * CONJ / n2


def components(entries) -> np.ndarray:
    """(k, 4) component array of a sequence of Quaternions and reals."""
    return np.array([(q.q0, q.q1, q.q2, q.q3) for q in map(_coerce, entries)],
                    dtype=float).reshape(-1, 4)


def quaternions(rows: np.ndarray) -> tuple[Quaternion, ...]:
    """The rows of a (k, 4) component array as Quaternions."""
    return tuple(Quaternion(*row) for row in rows.tolist())


DEFINITE = "definite"
LORENTZ = "lorentz"


@dataclass(frozen=True)
class QVector:
    """Column vector over the quaternions, tagged with a form kind.

    ``lorentz`` vectors live in Q^{n+1} and carry the indefinite form with
    one negative (last) slot; ``definite`` vectors live in Q^n.
    """

    entries: tuple[Quaternion, ...]
    form: str = DEFINITE

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(_coerce(e) for e in self.entries))
        if self.form not in (DEFINITE, LORENTZ):
            raise ValueError(f"unknown form kind {self.form!r}")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, idx):
        return self.entries[idx]

    def scale_right(self, lam: Quaternion) -> "QVector":
        lam = _coerce(lam)
        return QVector(tuple(e * lam for e in self.entries), self.form)

    def norm2(self) -> float:
        return sum(e.norm2() for e in self.entries)


def qvector(entries: Sequence, form: str = DEFINITE) -> QVector:
    return QVector(tuple(_coerce(e) for e in entries), form)


def _herm(X: QVector, Y: QVector, form: str) -> Quaternion:
    """sum conj(X_l) Y_l, with the last term negated for the lorentz form."""
    if X.form != form or Y.form != form:
        raise ShapeError(f"herm_{form} needs two {form} vectors")
    if len(X) != len(Y):
        raise ShapeError(f"length mismatch: {len(X)} vs {len(Y)}")
    terms = hamilton(components(X.entries) * CONJ, components(Y.entries))
    if form == LORENTZ:
        terms[-1] *= -1.0
    return Quaternion(*terms.sum(axis=0).tolist())


def herm_lorentz(X: QVector, Y: QVector) -> Quaternion:
    """Indefinite Hermitian form: sum conj(X_l) Y_l over l <= n, minus the last."""
    return _herm(X, Y, LORENTZ)


def herm_definite(x: QVector, y: QVector) -> Quaternion:
    """Definite Hermitian form (x, y) = sum conj(x_l) y_l."""
    return _herm(x, y, DEFINITE)


POSITIVE = "positive"
NULL = "null"
NEGATIVE = "negative"


def signature_class(X: QVector, eps_scale: float = 1e-10) -> str:
    """Sign of <X,X> under a tolerance relative to the vector's size."""
    val = herm_lorentz(X, X).re()
    eps = eps_scale * (1.0 + X.norm2())
    if val > eps:
        return POSITIVE
    if val < -eps:
        return NEGATIVE
    return NULL
