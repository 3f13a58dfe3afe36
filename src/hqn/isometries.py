"""Sp(n,1) matrices, Iwasawa subgroup actions, and inversions.

Quaternionic matrices are stored as float arrays of shape (rows, cols, 4).
Matrix products and exponentials go through the real 4x-size representation
(each entry replaced by its left-multiplication 4x4 block), which is an
algebra homomorphism.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .charts import HORO, ChartPoint, ball_from_lift, convert, lift, point_from_array
from .errors import DomainError, NotPolarError, NotSymplecticError, ShapeError
from .quaternion import (
    CONJ,
    IMAG,
    POSITIVE,
    UNIT,
    hamilton,
    herm_definite,
    herm_lorentz,
    left_mult_matrix,
    norm2,
    qarray_inverse,
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


@functools.cache
def _expm():
    # imported on first use, which keeps scipy off `import hqn.cli`
    from scipy.linalg import expm

    return expm


def qmat_expm(G: np.ndarray) -> np.ndarray:
    return qmat_from_real(_expm()(qmat_to_real(G)))


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
    """(n+1)x(n+1) quaternionic matrix satisfying A* I_{n,1} A = I_{n,1},
    checked for a matrix from outside; exact members come through _member."""

    A: np.ndarray

    def __post_init__(self):
        # a NaN defect fails too
        if not sp_defect(self.A) <= SP_TOL:
            raise NotSymplecticError("matrix violates the Sp(n,1) identity")

    @property
    def n(self) -> int:
        return self.A.shape[0] - 1

    def compose(self, other: "Isometry") -> "Isometry":
        return _member(qmat_mul(self.A, other.A))

    def inverse(self) -> "Isometry":
        # A^{-1} = I_{n,1} A* I_{n,1} for members of Sp(n,1)
        J = lorentz_signature(self.A.shape[0])
        return _member(qmat_mul(qmat_mul(J, qmat_conj_T(self.A)), J))


def _member(A: np.ndarray) -> Isometry:
    """Isometry of a matrix exact in Sp(n,1), unchecked: the defect bound is
    absolute, while a transvection's rounding grows like cosh(t)^2 eps."""
    g = object.__new__(Isometry)
    object.__setattr__(g, "A", A)
    return g


def _heisenberg_pair(n: int, xi, nu) -> tuple[np.ndarray, np.ndarray]:
    """Heisenberg element (xi, nu): (n-1, 4) rows and a purely imaginary (4,) row."""
    xi, nu = np.asarray(xi, dtype=float), np.asarray(nu, dtype=float)
    if xi.shape != (n - 1, 4) or nu.shape != (4,):
        raise ShapeError(f"xi must be {n - 1} rows and nu one row of 4")
    if not np.isfinite(norm2(xi) + norm2(nu)):
        raise DomainError("xi and nu must be finite, with a finite sum of squares")
    if nu[0] != 0.0:
        raise NotSymplecticError("nu must be purely imaginary")
    return xi, nu


def heis_mul(a, b) -> tuple[np.ndarray, np.ndarray]:
    """(xi1, nu1)(xi2, nu2) = (xi1 + xi2, nu1 + nu2 + 2 Im(xi1, xi2)) on
    (xi, nu) pairs of (n-1, 4) and (4,) rows."""
    (xi1, nu1), (xi2, nu2) = a, b
    return xi1 + xi2, nu1 + nu2 + 2.0 * herm_definite(xi1, xi2) * IMAG


def heisenberg_matrix(n: int, xi, nu) -> Isometry:
    """Heisenberg translation h(xi, nu) as an Sp(n,1) matrix, for xi of
    (n-1, 4) rows and nu a purely imaginary (4,) row."""
    xi, nu = _heisenberg_pair(n, xi, nu)
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
    return _member(A)


def transvection_matrix(n: int, t: float) -> Isometry:
    """Transvection by t along the geodesic through 0 and infinity."""
    with np.errstate(over="ignore"):
        ch, sh = float(np.cosh(t)), float(np.sinh(t))
    if not np.isfinite(ch):
        raise DomainError(f"transvection needs a finite t with finite cosh(t), got {t!r}")
    A = qmat_identity(n + 1)
    A[n - 1, n - 1, 0] = ch
    A[n - 1, n, 0] = sh
    A[n, n - 1, 0] = sh
    A[n, n, 0] = ch
    return _member(A)


def rotation_matrix(n: int, B: np.ndarray, lam: np.ndarray) -> Isometry:
    """diag(B, lam) with B in Sp(n), lam a unit quaternion (4,) row."""
    if B.shape[:2] != (n, n):
        raise ShapeError(f"rotation block must be {n}x{n}")
    # B* B = I and |lam| = 1 to 1e-12 imply the Sp(n,1) identity to SP_TOL
    if not float(np.max(np.abs(qmat_mul(qmat_conj_T(B), B) - qmat_identity(n)))) <= 1e-12:
        raise NotSymplecticError("rotation block is not in Sp(n)")
    if not abs(float(np.linalg.norm(lam)) - 1.0) <= 1e-12:
        raise NotSymplecticError("lambda must be a unit quaternion")
    A = qmat_identity(n + 1)
    A[:n, :n] = B
    A[n, n] = lam
    return _member(A)


def act(g: Isometry, p: ChartPoint) -> ChartPoint:
    """Apply an isometry: lift, multiply, re-project; keeps p's chart."""
    return convert(ball_from_lift(qmat_vec(g.A, lift(p))), p.chart)


def act_horo_closed(kind: str, p: ChartPoint, **params) -> ChartPoint:
    """Closed-form horospherical action of the three Iwasawa subgroup kinds,
    with parameters given as rows.

    heisenberg: (xi+omega, alpha, nu+beta+2Im(xi, omega))
    transvection: (e^t omega, e^{2t} alpha, e^{2t} beta)
    rotation (B in Sp(n-1), lam in Sp(1)): (B omega lam^{-1}, alpha, lam beta lam^{-1})
    """
    q = convert(p, HORO)
    rows = q.rows.copy()
    if kind == "heisenberg":
        xi, nu = _heisenberg_pair(q.n, params["xi"], params["nu"])
        rows[:-1] += xi
        rows[-1] = nu + rows[-1] + 2.0 * herm_definite(xi, q.omega) * IMAG
    elif kind == "transvection":
        e = float(np.exp(float(params["t"])))
        rows[:-1] *= e
        rows[-1] *= e * e
    elif kind == "rotation":
        B, lam = params["B"], np.asarray(params["lam"], dtype=float)
        if B.shape[:2] != (q.n - 1, q.n - 1):
            raise ShapeError("rotation block must act on Q^{n-1}")
        lam_inv = qarray_inverse(lam)
        rows[:-1] = hamilton(qmat_vec(B, q.omega), lam_inv)
        rows[-1, 1:] = hamilton(hamilton(lam, q.rows[-1] * IMAG), lam_inv)[1:]
    else:
        raise ValueError(f"unknown closed-form kind {kind!r}")
    return point_from_array(HORO, rows.ravel(), q.n)


# ---------------------------------------------------------------------------
# inversions


def inversion_horo(p: ChartPoint) -> ChartPoint:
    """The involutive inversion fixing {|omega|^2 + alpha = 1, beta = 0}."""
    q = convert(p, HORO)
    denom = q.rows[-1].copy()              # alpha + |omega|^2 + beta
    denom[0] += norm2(q.omega)
    rows = np.vstack([hamilton(q.omega, qarray_inverse(denom)),
                      q.rows[-1] * CONJ / norm2(denom)])
    return convert(point_from_array(HORO, rows.ravel(), q.n), p.chart)


def inversion_at_hyperplane(lam: np.ndarray, X: np.ndarray) -> np.ndarray:
    """X -> X - 2 lam <lam, X> / <lam, lam> on (n+1, 4) rows, for a positive
    vector lam."""
    if signature_class(lam) != POSITIVE:
        raise NotPolarError("hyperplane vector must be positive")
    factor = (2.0 / herm_lorentz(lam, lam)[0]) * herm_lorentz(lam, X)
    return X - hamilton(lam, factor)


# ---------------------------------------------------------------------------
# test/oracle helpers


def random_unit_quaternion(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(4)
    return v / np.linalg.norm(v)


def random_skew_hermitian(m: int, rng: np.random.Generator) -> np.ndarray:
    """Random S with S* = -S (diagonal purely imaginary), entries of scale 0.5."""
    S = np.zeros((m, m, 4))
    for r in range(m):
        S[r, r] = 0.5 * np.concatenate([[0.0], rng.standard_normal(3)])
        for c in range(r + 1, m):
            q = 0.5 * rng.standard_normal(4)
            S[r, c] = q
            S[c, r] = -q * CONJ
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
            v = v - hamilton(u, herm_definite(u, v))      # subtract u (u, v)
        A[:, c] = v * (1.0 / float(np.sqrt(np.sum(v * v))))
    return A
