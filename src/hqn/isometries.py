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

from .charts import (
    HORO,
    ChartPoint,
    ball_from_lift,
    convert,
    lift,
    point_from_array,
)
from .errors import DomainError, NotPolarError, NotSymplecticError, ShapeError
from .quaternion import (
    CONJ,
    IMAG,
    UNIT,
    hamilton,
    herm_definite,
    herm_lorentz,
    left_mult_matrix,
    lorentz_sign,
    norm2,
    qarray_inverse,
    qnorm2,
)

SP_TOL = 1e-10


# ---------------------------------------------------------------------------
# quaternion matrix helpers


def qmat_identity(m: int) -> np.ndarray:
    A = np.zeros((m, m, 4))
    A[np.arange(m), np.arange(m), 0] = 1.0
    return A


def qmat_to_real(A: np.ndarray) -> np.ndarray:
    """The real (4m, 4k) matrix of an (m, k, 4) quaternion matrix; of each
    matrix of an (..., m, k, 4) stack."""
    m, k = A.shape[-3], A.shape[-2]
    L = np.swapaxes(left_mult_matrix(A), -3, -2)
    return L.reshape(A.shape[:-3] + (4 * m, 4 * k))


def qmat_from_real(R: np.ndarray) -> np.ndarray:
    m, k = R.shape[0] // 4, R.shape[1] // 4
    # the first column of L(q) is q
    return np.ascontiguousarray(R.reshape(m, 4, k, 4)[:, :, :, 0].transpose(0, 2, 1))


def qmat_mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product of quaternion matrices; (..., m, k, 4) and (..., k, c, 4)
    stacks multiply pairwise, each pair through the same real blocks as
    alone."""
    k, c = B.shape[-3], B.shape[-2]
    # only the first columns of B's real blocks are needed: they are B itself
    C = qmat_to_real(A) @ np.swapaxes(B, -2, -1).reshape(B.shape[:-3] + (4 * k, c))
    C = C.reshape(C.shape[:-2] + (-1, 4, c))
    return np.ascontiguousarray(np.swapaxes(C, -2, -1))


def qmat_conj_T(A: np.ndarray) -> np.ndarray:
    return np.swapaxes(A, -3, -2) * CONJ


@functools.cache
def _expm():
    # imported on first use, which keeps scipy off `import hqn.cli`
    from scipy.linalg import expm

    return expm


def qmat_expm(G: np.ndarray) -> np.ndarray:
    return qmat_from_real(_expm()(qmat_to_real(G)))


def qmat_vec(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Apply a quaternion matrix to a column vector given as (k, 4) rows
    (entries act on the left); an (..., m, k, 4) stack of matrices and an
    (..., k, 4) stack of vectors broadcast against each other."""
    X = np.asarray(X, dtype=float)
    if X.ndim < 2 or A.shape[-2] != X.shape[-2]:
        raise ShapeError("matrix/vector size mismatch")
    try:
        Y = qmat_to_real(A) @ X.reshape(X.shape[:-2] + (-1, 1))
    except ValueError:
        raise ShapeError(f"stacks of {A.shape[:-3]} matrices and {X.shape[:-2]} "
                         "vectors do not broadcast") from None
    return Y.reshape(Y.shape[:-2] + (-1, 4))


def lorentz_signature(m: int) -> np.ndarray:
    J = qmat_identity(m)
    J[-1, -1, 0] = -1.0
    return J


def sp_defect(A: np.ndarray):
    """max-norm of A* I_{n,1} A - I_{n,1}, one value per matrix of an
    (..., n+1, n+1, 4) array."""
    JA = A.copy()
    JA[..., -1, :, :] *= -1.0
    D = np.abs(qmat_mul(qmat_conj_T(A), JA) - lorentz_signature(A.shape[-3]))
    return np.max(D, axis=(-3, -2, -1))


# ---------------------------------------------------------------------------
# isometries


@dataclass(frozen=True)
class Isometry:
    """(n+1)x(n+1) quaternionic matrix satisfying A* I_{n,1} A = I_{n,1}, or
    a (k, n+1, n+1, 4) stack of k such matrices; checked, every matrix of a
    stack, for a matrix from outside; exact members come through _member."""

    A: np.ndarray

    def __post_init__(self):
        A = self.A
        if A.ndim not in (3, 4) or A.shape[-3] != A.shape[-2] or A.shape[-1] != 4:
            raise ShapeError(f"expected (n+1, n+1, 4) or (k, n+1, n+1, 4), got {A.shape}")
        # a NaN defect fails too
        if not np.all(sp_defect(A) <= SP_TOL):
            raise NotSymplecticError("matrix violates the Sp(n,1) identity")

    @property
    def n(self) -> int:
        return self.A.shape[-3] - 1

    def compose(self, other: "Isometry") -> "Isometry":
        return _member(qmat_mul(self.A, other.A))

    def inverse(self) -> "Isometry":
        # A^{-1} = I_{n,1} A* I_{n,1} for members of Sp(n,1)
        J = lorentz_signature(self.A.shape[-3])
        return _member(qmat_mul(qmat_mul(J, qmat_conj_T(self.A)), J))


def _member(A: np.ndarray) -> Isometry:
    """Isometry of a matrix exact in Sp(n,1), unchecked: the defect bound is
    absolute, while a transvection's rounding grows like cosh(t)^2 eps."""
    g = object.__new__(Isometry)
    object.__setattr__(g, "A", A)
    return g


def _heisenberg_pair(n: int, xi, nu) -> tuple[np.ndarray, np.ndarray]:
    """Heisenberg element (xi, nu): (n-1, 4) rows and a purely imaginary (4,)
    row; or k of them, as (k, n-1, 4) and (k, 4) stacks."""
    xi, nu = np.asarray(xi, dtype=float), np.asarray(nu, dtype=float)
    if (xi.shape[-2:] != (n - 1, 4) or nu.shape[-1:] != (4,)
            or xi.shape[:-2] != nu.shape[:-1] or nu.ndim > 2):
        raise ShapeError(f"xi must be {n - 1} rows and nu one row of 4, stacked alike")
    if not np.all(np.isfinite(norm2(xi) + qnorm2(nu))):
        raise DomainError("xi and nu must be finite, with a finite sum of squares")
    if np.any(nu[..., 0] != 0.0):
        raise NotSymplecticError("nu must be purely imaginary")
    return xi, nu


def heis_mul(a, b) -> tuple[np.ndarray, np.ndarray]:
    """(xi1, nu1)(xi2, nu2) = (xi1 + xi2, nu1 + nu2 + 2 Im(xi1, xi2)) on
    (xi, nu) pairs of (n-1, 4) and (4,) rows."""
    (xi1, nu1), (xi2, nu2) = a, b
    return xi1 + xi2, nu1 + nu2 + 2.0 * herm_definite(xi1, xi2) * IMAG


def _identities(m: int, lead: tuple) -> np.ndarray:
    """A writable lead-shaped stack of (m, m, 4) identity matrices."""
    return np.broadcast_to(qmat_identity(m), lead + (m, m, 4)).copy()


def heisenberg_matrix(n: int, xi, nu) -> Isometry:
    """Heisenberg translation h(xi, nu) as an Sp(n,1) matrix, for xi of
    (n-1, 4) rows and nu a purely imaginary (4,) row; a stack of k matrices
    for (k, n-1, 4) and (k, 4) stacks."""
    xi, nu = _heisenberg_pair(n, xi, nu)
    half = 0.5 * nu
    half[..., 0] += 0.5 * np.sum((xi * xi).reshape(nu.shape[:-1] + (-1,)), axis=-1)
    A = _identities(n + 1, nu.shape[:-1])
    A[..., :n - 1, n - 1, :] = -xi
    A[..., :n - 1, n, :] = xi
    A[..., n - 1, :n - 1, :] = xi * CONJ
    A[..., n, :n - 1, :] = xi * CONJ
    A[..., n - 1, n - 1, :] = UNIT - half
    A[..., n - 1, n, :] = half
    A[..., n, n - 1, :] = -half
    A[..., n, n, :] = UNIT + half
    return _member(A)


def transvection_matrix(n: int, t) -> Isometry:
    """Transvection by t along the geodesic through 0 and infinity; a stack
    of k of them for a (k,) array t."""
    if np.ndim(t) > 1:
        raise ShapeError(f"t must be a number or a 1-d array, got shape {np.shape(t)}")
    with np.errstate(over="ignore"):
        ch, sh = np.cosh(t), np.sinh(t)
    if not np.all(np.isfinite(ch)):
        raise DomainError(f"transvection needs a finite t with finite cosh(t), got {t!r}")
    A = _identities(n + 1, np.shape(ch))
    A[..., n - 1, n - 1, 0] = ch
    A[..., n - 1, n, 0] = sh
    A[..., n, n - 1, 0] = sh
    A[..., n, n, 0] = ch
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
    """Apply an isometry: lift, multiply, re-project; keeps p's chart. A
    stack of k matrices acts on a stack of k points pairwise, and a lone
    matrix or point meets every element of the other's stack; stacks of
    different lengths raise ShapeError."""
    return convert(ball_from_lift(qmat_vec(g.A, lift(p))), p.chart)


def _fit_stack(lead: tuple, *stacks: tuple) -> None:
    """Parameters of one action (stack shape ()) or one per point (lead)."""
    for shape in stacks:
        if shape not in ((), lead):
            raise ShapeError(f"parameters stacked as {shape} do not fit "
                             f"a stack of points shaped {lead}")


def act_horo_closed(kind: str, p: ChartPoint, **params) -> ChartPoint:
    """Closed-form horospherical action of the three Iwasawa subgroup kinds,
    with parameters given as rows; on a stack of k points, one parameter set
    acts on every point, or k sets, stacked on a leading axis, pairwise.

    heisenberg: (xi+omega, alpha, nu+beta+2Im(xi, omega))
    transvection: (e^t omega, e^{2t} alpha, e^{2t} beta)
    rotation (B in Sp(n-1), lam in Sp(1)): (B omega lam^{-1}, alpha, lam beta lam^{-1})
    """
    q = convert(p, HORO)
    n, lead = q.n, q.rows.shape[:-2]
    rows = q.rows.copy()
    if kind == "heisenberg":
        xi, nu = _heisenberg_pair(n, params["xi"], params["nu"])
        _fit_stack(lead, nu.shape[:-1])
        rows[..., :-1, :] += xi
        rows[..., -1, :] = nu + rows[..., -1, :] + 2.0 * herm_definite(xi, q.omega) * IMAG
    elif kind == "transvection":
        t = np.asarray(params["t"], dtype=float)
        _fit_stack(lead, t.shape)
        e = np.exp(t)[..., None, None]
        rows[..., :-1, :] *= e
        rows[..., -1:, :] *= e * e
    elif kind == "rotation":
        B, lam = params["B"], np.asarray(params["lam"], dtype=float)
        if B.shape[-3:-1] != (n - 1, n - 1) or lam.shape[-1:] != (4,):
            raise ShapeError("rotation block must act on Q^{n-1}, and lam be one row of 4")
        _fit_stack(lead, B.shape[:-3], lam.shape[:-1])
        lam_inv = qarray_inverse(lam)
        rows[..., :-1, :] = hamilton(qmat_vec(B, q.omega), lam_inv[..., None, :])
        rows[..., -1, 1:] = hamilton(hamilton(lam, q.rows[..., -1, :] * IMAG),
                                     lam_inv)[..., 1:]
    else:
        raise ValueError(f"unknown closed-form kind {kind!r}")
    return point_from_array(HORO, rows.reshape(lead + (-1,)), n)


# ---------------------------------------------------------------------------
# inversions


def inversion_horo(p: ChartPoint) -> ChartPoint:
    """The involutive inversion fixing {|omega|^2 + alpha = 1, beta = 0}."""
    q = convert(p, HORO)
    denom = q.rows[-1].copy()              # alpha + |omega|^2 + beta
    denom[0] += norm2(q.omega)
    rows = np.vstack([hamilton(q.omega, qarray_inverse(denom)),
                      q.rows[-1] * CONJ / qnorm2(denom)])
    return convert(point_from_array(HORO, rows.ravel(), q.n), p.chart)


def inversion_at_hyperplane(lam: np.ndarray, X: np.ndarray) -> np.ndarray:
    """X -> X - 2 lam <lam, X> / <lam, lam> on (n+1, 4) rows, for a positive
    vector lam."""
    if lorentz_sign(lam) != 1:
        raise NotPolarError("hyperplane vector must be positive")
    factor = (2.0 / herm_lorentz(lam, lam)[0]) * herm_lorentz(lam, X)
    return X - hamilton(lam, factor)


# ---------------------------------------------------------------------------
# test/oracle helpers


def unit_quaternions(v: np.ndarray) -> np.ndarray:
    """v / |v| for a (4,) row, or for each row of a (..., 4) stack; |v| is
    the BLAS dot np.linalg.norm takes, so a row alone and inside a stack
    give the same bits."""
    return v / np.sqrt(np.vecdot(v, v))[..., None]


def random_unit_quaternion(rng: np.random.Generator) -> np.ndarray:
    return unit_quaternions(rng.standard_normal(4))


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


def sp_from_normals(V: np.ndarray) -> np.ndarray:
    """Gram-Schmidt over the quaternions: the element of Sp(n) whose column c
    comes from the (n, 4) rows V[c], of an (n, n, 4) array V; one element per
    (n, n, 4) array of a (..., n, n, 4) stack, each with the bits it has alone."""
    V = np.asarray(V, dtype=float)
    A = np.zeros(V.shape)
    for c in range(V.shape[-3]):
        v = V[..., c, :, :]
        for j in range(c):
            u = A[..., :, j, :]
            v = v - hamilton(u, herm_definite(u, v)[..., None, :])    # subtract u (u, v)
        A[..., :, c, :] = v * (1.0 / np.sqrt(np.sum(v * v, axis=(-2, -1))))[..., None, None]
    return A


def random_sp(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random element of Sp(n): Gram-Schmidt on n columns of normal draws."""
    return sp_from_normals(rng.standard_normal((n, n, 4)))
