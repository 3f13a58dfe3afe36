"""Sp(n,1) matrices, Iwasawa subgroup actions, and inversions.

Quaternionic matrices are stored as float arrays of shape (rows, cols, 4).
Matrix products and exponentials go through the real 4x-size representation
(each entry replaced by its left-multiplication 4x4 block), which is an
algebra homomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .charts import ChartPoint, ball_from_lift, convert, horo_point, lift
from .errors import NotPolarError, NotSymplecticError, ShapeError
from .quaternion import (
    CONJ,
    LORENTZ,
    UNIT,
    Quaternion,
    QVector,
    components,
    hamilton,
    herm_lorentz,
    left_mult_matrix,
    quaternions,
    qvector,
    signature_class,
)

SP_TOL = 1e-10


# ---------------------------------------------------------------------------
# quaternion matrix helpers


def qmat_identity(m: int) -> np.ndarray:
    A = np.zeros((m, m, 4))
    A[np.arange(m), np.arange(m), 0] = 1.0
    return A


def qmat_to_real(A: np.ndarray) -> np.ndarray:
    m, k = A.shape[0], A.shape[1]
    return left_mult_matrix(A).transpose(0, 2, 1, 3).reshape(4 * m, 4 * k)


def qmat_from_real(R: np.ndarray) -> np.ndarray:
    m, k = R.shape[0] // 4, R.shape[1] // 4
    # the first column of L(q) is q
    return np.ascontiguousarray(R.reshape(m, 4, k, 4)[:, :, :, 0].transpose(0, 2, 1))


def qmat_mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    k, c = B.shape[0], B.shape[1]
    # only the first columns of B's real blocks are needed: they are B itself
    C = qmat_to_real(A) @ B.transpose(0, 2, 1).reshape(4 * k, c)
    return np.ascontiguousarray(C.reshape(-1, 4, c).transpose(0, 2, 1))


def qmat_conj_T(A: np.ndarray) -> np.ndarray:
    return np.transpose(A, (1, 0, 2)) * CONJ


def qmat_expm(G: np.ndarray) -> np.ndarray:
    return qmat_from_real(expm(qmat_to_real(G)))


def qmat_vec(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Apply a quaternion matrix to a column vector given as (k, 4) rows
    (entries act on the left)."""
    X = np.asarray(X, dtype=float)
    if A.shape[1] != len(X):
        raise ShapeError("matrix/vector size mismatch")
    return (qmat_to_real(A) @ X.ravel()).reshape(-1, 4)


def lorentz_signature(m: int) -> np.ndarray:
    J = qmat_identity(m)
    J[-1, -1, 0] = -1.0
    return J


def sp_defect(A: np.ndarray) -> float:
    """max-norm of A* I_{n,1} A - I_{n,1}."""
    JA = A.copy()
    JA[-1] *= -1.0
    return float(np.max(np.abs(qmat_mul(qmat_conj_T(A), JA)
                               - lorentz_signature(A.shape[0]))))


# ---------------------------------------------------------------------------
# isometries


@dataclass(frozen=True)
class Isometry:
    """(n+1)x(n+1) quaternionic matrix satisfying A* I_{n,1} A = I_{n,1}."""

    A: np.ndarray

    def __post_init__(self):
        if sp_defect(self.A) > SP_TOL:
            raise NotSymplecticError("matrix violates the Sp(n,1) identity")

    @property
    def n(self) -> int:
        return self.A.shape[0] - 1

    def compose(self, other: "Isometry") -> "Isometry":
        return Isometry(qmat_mul(self.A, other.A))

    def inverse(self) -> "Isometry":
        # A^{-1} = I_{n,1} A* I_{n,1} for members of Sp(n,1)
        J = lorentz_signature(self.A.shape[0])
        return Isometry(qmat_mul(qmat_mul(J, qmat_conj_T(self.A)), J))


@dataclass(frozen=True)
class HeisenbergElement:
    """Heisenberg group element (xi, nu), xi in Q^{n-1}, nu purely imaginary."""

    xi: tuple[Quaternion, ...]
    nu: Quaternion

    def __post_init__(self):
        if self.nu.re() != 0.0:
            raise ValueError("nu must be purely imaginary")

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(tuple(-x for x in self.xi), -self.nu)


def heis_mul(a: HeisenbergElement, b: HeisenbergElement) -> HeisenbergElement:
    """(xi1, nu1)(xi2, nu2) = (xi1 + xi2, nu1 + nu2 + 2 Im(xi1* xi2))."""
    if len(a.xi) != len(b.xi):
        raise ShapeError("Heisenberg elements of different rank")
    cross = Quaternion()
    for x1, x2 in zip(a.xi, b.xi):
        cross = cross + x1.conj() * x2
    return HeisenbergElement(tuple(x1 + x2 for x1, x2 in zip(a.xi, b.xi)),
                             a.nu + b.nu + 2.0 * cross.im())


def heisenberg_matrix(n: int, xi, nu) -> Isometry:
    """Heisenberg translation h(xi, nu) as an Sp(n,1) matrix.

    xi is a sequence of Quaternions/reals or an (n-1, 4) array; nu a
    Quaternion, real or (4,) array.
    """
    xi = xi if isinstance(xi, np.ndarray) else components(xi)
    nu = nu if isinstance(nu, np.ndarray) else components([nu])[0]
    if len(xi) != n - 1:
        raise ShapeError(f"xi must have length {n - 1}")
    if abs(nu[0]) > 0.0:
        raise NotSymplecticError("nu must be purely imaginary")
    half = 0.5 * nu
    half[0] += 0.5 * float(np.sum(xi * xi))
    A = qmat_identity(n + 1)
    A[:n - 1, n - 1] = -xi
    A[:n - 1, n] = xi
    A[n - 1, :n - 1] = xi * CONJ
    A[n, :n - 1] = xi * CONJ
    A[n - 1, n - 1] = UNIT - half
    A[n - 1, n] = half
    A[n, n - 1] = -half
    A[n, n] = UNIT + half
    return Isometry(A)


def transvection_matrix(n: int, t: float) -> Isometry:
    A = qmat_identity(n + 1)
    ch, sh = float(np.cosh(t)), float(np.sinh(t))
    A[n - 1, n - 1, 0] = ch
    A[n - 1, n, 0] = sh
    A[n, n - 1, 0] = sh
    A[n, n, 0] = ch
    return Isometry(A)


def rotation_matrix(n: int, B: np.ndarray, lam: Quaternion) -> Isometry:
    """diag(B, lam) with B in Sp(n), lam a unit quaternion."""
    if B.shape[:2] != (n, n):
        raise ShapeError(f"rotation block must be {n}x{n}")
    if float(np.max(np.abs(qmat_mul(qmat_conj_T(B), B) - qmat_identity(n)))) > 1e-12:
        raise NotSymplecticError("rotation block is not in Sp(n)")
    if abs(abs(lam) - 1.0) > 1e-12:
        raise NotSymplecticError("lambda must be a unit quaternion")
    A = qmat_identity(n + 1)
    A[:n, :n] = B
    A[n, n] = lam.as_array()
    return Isometry(A)


def act(g: Isometry, p: ChartPoint) -> ChartPoint:
    """Apply an isometry: lift, multiply, re-project; keeps p's chart."""
    return convert(ball_from_lift(qmat_vec(g.A, lift(p))), p.chart)


def act_horo_closed(kind: str, p: ChartPoint, **params) -> ChartPoint:
    """Closed-form horospherical action of the three Iwasawa subgroup kinds.

    heisenberg: (xi+omega, alpha, nu+beta+2Im(xi* omega))
    transvection: (e^t omega, e^{2t} alpha, e^{2t} beta)
    rotation (B in Sp(n-1), lam in Sp(1)): (B omega lam^{-1}, alpha, lam beta lam^{-1})
    """
    q = convert(p, "horo")
    if kind == "heisenberg":
        xi = tuple(x if isinstance(x, Quaternion) else Quaternion(float(x))
                   for x in params["xi"])
        nu = params["nu"]
        nu = nu if isinstance(nu, Quaternion) else Quaternion(float(nu))
        if len(xi) != q.n - 1:
            raise ShapeError("xi length mismatch")
        cross = Quaternion()
        for x, w in zip(xi, q.omega):
            cross = cross + x.conj() * w
        return horo_point(tuple(x + w for x, w in zip(xi, q.omega)),
                          q.alpha, nu + q.beta + 2.0 * cross.im())
    if kind == "transvection":
        t = float(params["t"])
        e = float(np.exp(t))
        return horo_point(tuple(w * e for w in q.omega),
                          e * e * q.alpha, (e * e) * q.beta)
    if kind == "rotation":
        B, lam = params["B"], params["lam"]
        if B.shape[:2] != (q.n - 1, q.n - 1):
            raise ShapeError("rotation block must act on Q^{n-1}")
        lam_inv = lam.inverse()
        w = hamilton(qmat_vec(B, components(q.omega)), lam_inv.as_array())
        return horo_point(quaternions(w), q.alpha, lam * q.beta * lam_inv)
    raise ValueError(f"unknown closed-form kind {kind!r}")


# ---------------------------------------------------------------------------
# inversions


def inversion_horo(p: ChartPoint) -> ChartPoint:
    """The involutive inversion fixing {|omega|^2 + alpha = 1, beta = 0}."""
    q = convert(p, "horo")
    w2 = sum(w.norm2() for w in q.omega)
    denom = Quaternion(q.alpha + w2) + q.beta
    d2 = denom.norm2()
    inv = denom.inverse()
    return convert(horo_point(tuple(w * inv for w in q.omega),
                              q.alpha / d2, (-1.0 / d2) * q.beta), p.chart)


def inversion_at_hyperplane(lam: QVector, X: QVector) -> QVector:
    """X -> X - 2 lam <lam, X> / <lam, lam> for a positive vector lam."""
    if signature_class(lam) != "positive":
        raise NotPolarError("hyperplane vector must be positive")
    if lam.form != LORENTZ or X.form != LORENTZ or len(lam) != len(X):
        raise ShapeError("inversion needs lorentz vectors of equal length")
    factor = (2.0 / herm_lorentz(lam, lam).re()) * herm_lorentz(lam, X)
    return qvector(tuple(x - l * factor for l, x in zip(lam.entries, X.entries)),
                   LORENTZ)


# ---------------------------------------------------------------------------
# test/oracle helpers


def random_unit_quaternion(rng: np.random.Generator) -> Quaternion:
    v = rng.standard_normal(4)
    return Quaternion.from_array(v / np.linalg.norm(v))


def random_skew_hermitian(m: int, rng: np.random.Generator,
                          scale: float = 0.5) -> np.ndarray:
    """Random S with S* = -S (diagonal purely imaginary)."""
    S = np.zeros((m, m, 4))
    for r in range(m):
        S[r, r] = scale * np.concatenate([[0.0], rng.standard_normal(3)])
        for c in range(r + 1, m):
            q = scale * rng.standard_normal(4)
            S[r, c] = q
            S[c, r] = -q * np.array([1.0, -1.0, -1.0, -1.0])
    return S


def random_lorentz_sp(m: int, rng: np.random.Generator) -> np.ndarray:
    """Random element of the isometry group of the form I_{m-1,1},
    built as exp(J S) with S skew-Hermitian and J the signature matrix."""
    S = random_skew_hermitian(m, rng)
    J = lorentz_signature(m)
    return qmat_expm(qmat_mul(J, S))


def random_sp(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random element of Sp(n) by Gram-Schmidt over the quaternions."""
    A = np.zeros((n, n, 4))
    for c in range(n):
        v = rng.standard_normal((n, 4))
        for u in A[:, :c].transpose(1, 0, 2):
            # subtract u * (u, v)
            proj = np.sum(hamilton(u * CONJ, v), axis=0)
            v = v - hamilton(u, proj)
        A[:, c] = v * (1.0 / float(np.sqrt(np.sum(v * v))))
    return A
