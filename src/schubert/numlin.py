"""Dense complex linear algebra kernels.

Hermitian inner products, fiber membership (:class:`FiberElement` and the
one det = 1 / Pf = 1 decision, :func:`near_one`), the Iwasawa (unitary *
solvable) splitting of determinant-one matrices, Pfaffians, congruence
normalization of symmetric and skew-symmetric bilinear forms, and seeded
random samplers for the matrix classes.  The factorization engines do not
diagonalize: they read factors off row by row (see :mod:`schubert.factor`).
``eig_unitary`` remains an exported kernel of the package.

Conventions:
  * the Hermitian form is ``<x, y> = x^T conj(y)`` (column vectors);
  * ``jn(k)`` is the 2k x 2k block diagonal matrix with 2x2 blocks
    ``[[0, 1], [-1, 0]]`` on coordinate pairs (1,2), (3,4), ...;
  * solvable factors are upper triangular with strictly positive real
    diagonal and determinant one.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    ConvergenceFailure,
    NotInFiber,
    NotSkewSymmetric,
    NotSymmetric,
    NotUnitary,
    OddDimension,
    SingularInput,
    UnsupportedClass,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig

#: the three matrix classes; the tag fixes the Cartan involution sigma
CLASSES = ("general", "symmetric", "skew")

#: classes accepted by :func:`haar_sample`
SAMPLE_CLASSES = ("special_unitary", "sl", "sym_fiber", "skew_fiber")


def check_class(klass: str) -> str:
    if klass not in CLASSES:
        raise ValueError(f"unknown matrix class {klass!r}")
    return klass


def as_square_matrix(b) -> np.ndarray:
    """Validate and return ``b`` (a FiberElement's matrix as is) as a square complex128 array."""
    if isinstance(b, FiberElement):
        return b.matrix
    m = np.asarray(b, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise DimensionMismatch("matrix entries must be finite")
    return np.ascontiguousarray(m)


def hermitian_inner(x, y) -> complex:
    """Hermitian form ``<x, y> = sum_i x_i conj(y_i)``."""
    xv = np.asarray(x, dtype=np.complex128)
    yv = np.asarray(y, dtype=np.complex128)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise DimensionMismatch(f"length mismatch: {xv.shape} vs {yv.shape}")
    return complex(np.dot(xv, np.conj(yv)))


def jn(n_half: int) -> np.ndarray:
    """The standard skew normal form on C^(2n): interleaved 2x2 blocks."""
    if n_half < 1:
        raise DimensionMismatch("need n >= 1")
    j = np.zeros((2 * n_half, 2 * n_half), dtype=np.complex128)
    for i in range(n_half):
        j[2 * i, 2 * i + 1] = 1.0
        j[2 * i + 1, 2 * i] = -1.0
    return j


def is_unitary(b: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    b = as_square_matrix(b)
    n = b.shape[0]
    return np.linalg.norm(b @ b.conj().T - np.eye(n)) <= tol.tol_residual * n


def check_unitary(b: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The matrix of ``b``, which must be unitary."""
    m = as_square_matrix(b)
    if not (b.unitary if isinstance(b, FiberElement) else is_unitary(m, tol)):
        raise NotUnitary("matrix is not unitary within tolerance")
    return m


def near_one(value: complex, tol: ToleranceConfig = DEFAULT_TOL, factor: float = 100.0) -> bool:
    """The package's one det = 1 / Pf = 1 decision: ``|value - 1| <= factor
    * tol_residual``, with the multiple chosen by the call site."""
    return abs(complex(value) - 1.0) <= factor * tol.tol_residual


@dataclass(frozen=True)
class FiberElement:
    """A matrix together with its fiber class, validated on construction:
    det = 1 (general), symmetric with det = 1, or skew with Pf = 1.  The
    functions with a fiber or model precondition skip what it has passed."""

    matrix: np.ndarray
    klass: str
    tol: ToleranceConfig = DEFAULT_TOL

    def __post_init__(self) -> None:
        check_class(self.klass)
        b = as_square_matrix(self.matrix)
        object.__setattr__(self, "matrix", b)
        if self.klass == "symmetric":
            if np.linalg.norm(b - b.T) > self.tol.tol_residual * max(1.0, float(np.linalg.norm(b))):
                raise NotInFiber("matrix is not symmetric")
        if self.klass == "skew":
            try:  # pfaffian checks the dimension and the skew-symmetry
                name, value = "Pf", pfaffian(b, self.tol)
            except (OddDimension, NotSkewSymmetric) as exc:
                raise NotInFiber(str(exc)) from None
        else:
            name, value = "det", complex(np.linalg.det(b))
        if not near_one(value, self.tol):
            raise NotInFiber(f"{name} = {value:.6g}, expected 1 (inputs are not rescaled)")

    @functools.cached_property
    def unitary(self) -> bool:
        """Whether the matrix is unitary (the compact tier), decided once."""
        return is_unitary(self.matrix, self.tol)

    def adjoint(self) -> "FiberElement":
        """The conjugate transpose, in the same fiber and tier without new
        checks; a skew adjoint has Pf = (-1)^(n/2) conj(Pf), so not skew."""
        if self.klass == "skew":
            raise UnsupportedClass("the adjoint of a skew fiber element leaves the fiber")
        out = object.__new__(FiberElement)
        out.__dict__.update(self.__dict__, matrix=np.ascontiguousarray(self.matrix.conj().T))
        return out


def validated(b, *klasses: str) -> bool:
    """Whether ``b`` is a FiberElement of one of ``klasses``."""
    return isinstance(b, FiberElement) and b.klass in klasses


@dataclass(frozen=True)
class IwasawaParts:
    """Factors of B = unitary * solvable with solvable in Sol_m."""

    unitary: np.ndarray
    solvable: np.ndarray


def iwasawa_split(b, tol: ToleranceConfig = DEFAULT_TOL) -> IwasawaParts:
    """Split ``b`` (det = 1) into a special unitary times a solvable factor.

    Gram-Schmidt on the columns, realized as a QR factorization followed by a
    phase correction that makes the triangular factor's diagonal real and
    positive.  The split is unique, so the QR backend is immaterial.
    """
    b = (b if validated(b, "general", "symmetric") else FiberElement(b, "general", tol)).matrix
    n = b.shape[0]
    q, r = np.linalg.qr(b)
    diag = np.diag(r).copy()
    scale = max(1.0, float(np.linalg.norm(b)))
    if np.any(np.abs(diag) <= tol.tol_zero * scale):
        raise SingularInput("Gram-Schmidt pivot below zero threshold")
    phases = diag / np.abs(diag)
    unitary = q * phases[np.newaxis, :]
    solvable = r * np.conj(phases)[:, np.newaxis]
    # force the diagonal exactly real positive
    idx = np.arange(n)
    solvable[idx, idx] = np.abs(diag)
    return IwasawaParts(unitary=unitary, solvable=solvable)


def is_solvable_factor(e: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when ``e`` is upper triangular with positive real diagonal, det 1."""
    e = as_square_matrix(e)
    if np.linalg.norm(np.tril(e, -1)) > tol.tol_residual * max(1.0, np.linalg.norm(e)):
        return False
    d = np.diag(e)
    if np.any(d.real <= 0) or np.any(np.abs(d.imag) > tol.tol_residual * np.abs(d.real)):
        return False
    return near_one(np.linalg.det(e), tol)


@dataclass(frozen=True)
class UnitaryEigen:
    """Eigendecomposition of a unitary matrix.

    values   unit-modulus eigenvalues, one per column of ``vectors``
    vectors  orthonormal eigenvectors (columns)
    flags    True where the eigenvalue is 1 within the angle threshold
    """

    values: np.ndarray
    vectors: np.ndarray
    flags: np.ndarray


def eig_unitary(b, tol: ToleranceConfig = DEFAULT_TOL, seed: int = 0) -> UnitaryEigen:
    """Diagonalize a unitary matrix with an orthonormal eigenbasis.

    B is normal, so it shares an eigenbasis with the Hermitian matrix
    ``M_t = (B + B*) + t i (B - B*)``; for a unitary with eigenangles
    theta_j, M_t has eigenvalues ``2 cos(theta_j) - 2 t sin(theta_j)``,
    which a generic t separates whenever the theta_j differ.  We solve the
    Hermitian problem, verify that B is diagonal in the resulting basis,
    and redraw t on an accidental collision (up to 5 retries).
    """
    b = check_unitary(b, tol)
    n = b.shape[0]
    rng = np.random.default_rng(seed)
    herm = b + b.conj().T
    skew = 1j * (b - b.conj().T)
    scale = max(1.0, float(np.linalg.norm(b)))
    last_off = np.inf
    for _ in range(5):
        t = float(rng.uniform(0.5, 2.0))
        _, v = np.linalg.eigh(herm + t * skew)
        d = v.conj().T @ b @ v
        off = float(np.linalg.norm(d - np.diag(np.diag(d))))
        if off <= tol.tol_residual * scale:
            values = np.diag(d).copy()
            values = values / np.abs(values)
            flags = np.abs(np.angle(values)) < tol.tol_angle
            return UnitaryEigen(values=values, vectors=v, flags=flags)
        last_off = off
    raise ConvergenceFailure(
        f"eigenbasis not found after 5 draws (off-diagonal mass {last_off:.3g})"
    )


def pfaffian(b, tol: ToleranceConfig = DEFAULT_TOL) -> complex:
    """Pfaffian of a skew-symmetric matrix by skew elimination with pivoting.

    Normalized so that ``pfaffian(jn(k)) == 1``; satisfies
    ``Pf(C^T B C) = det(C) Pf(B)`` and ``Pf(B)^2 = det(B)``.
    """
    b = as_square_matrix(b)
    n = b.shape[0]
    if n % 2 != 0:
        raise OddDimension("Pfaffian needs an even dimension")
    scale = max(1.0, float(np.linalg.norm(b)))
    if np.linalg.norm(b + b.T) > tol.tol_residual * scale:
        raise NotSkewSymmetric("matrix is not skew-symmetric within tolerance")
    a = b.copy()
    a = 0.5 * (a - a.T)
    pf = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        # pivot: largest entry in row k to the right of the diagonal
        rel = int(np.argmax(np.abs(a[k, k + 1 :])))
        jpiv = k + 1 + rel
        if abs(a[k, jpiv]) <= tol.tol_zero * scale:
            return 0.0 + 0.0j
        if jpiv != k + 1:
            a[[k + 1, jpiv], :] = a[[jpiv, k + 1], :]
            a[:, [k + 1, jpiv]] = a[:, [jpiv, k + 1]]
            pf = -pf
        pivot = a[k, k + 1]
        pf *= pivot
        if k + 2 < n:
            tau = a[k, k + 2 :] / pivot
            w = a[k + 1, k + 2 :]
            a[k + 2 :, k + 2 :] += np.outer(w, tau) - np.outer(tau, w)
    return complex(pf)


def diagonalize_quadratic_form(b, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Return C with ``C^T B C = I`` for symmetric invertible B with det 1.

    Lagrange congruence reduction: diagonal pivoting, the row+column
    addition trick when the remaining diagonal vanishes, then rescaling by
    principal-branch square roots.  ``det(C) = +-1`` is forced to +1 by a
    column sign flip.
    """
    checked = validated(b, "symmetric")
    b = as_square_matrix(b)
    n = b.shape[0]
    scale = max(1.0, float(np.abs(b).max()))
    if not checked and np.linalg.norm(b - b.T) > tol.tol_residual * max(1.0, np.linalg.norm(b)):
        raise NotSymmetric("matrix is not symmetric within tolerance")
    a = 0.5 * (b + b.T)
    c = np.eye(n, dtype=np.complex128)
    for i in range(n):
        # best available diagonal pivot
        diag = np.abs(np.diag(a)[i:])
        j = i + int(np.argmax(diag))
        if abs(a[j, j]) <= tol.tol_zero * scale:
            # all remaining diagonal entries vanish: create a pivot by a
            # row+column addition using the largest off-diagonal entry
            sub = np.abs(np.triu(a[i:, i:], 1))
            if sub.size == 0 or sub.max() <= tol.tol_zero * scale:
                raise SingularInput("quadratic form is singular")
            p, q = np.unravel_index(int(np.argmax(sub)), sub.shape)
            p, q = i + int(p), i + int(q)
            a[:, p] += a[:, q]
            a[p, :] += a[q, :]
            c[:, p] += c[:, q]
            j = p
        if j != i:
            a[:, [i, j]] = a[:, [j, i]]
            a[[i, j], :] = a[[j, i], :]
            c[:, [i, j]] = c[:, [j, i]]
        pivot = a[i, i]
        if i + 1 < n:
            coeff = a[i, i + 1 :] / pivot
            a[:, i + 1 :] -= np.outer(a[:, i], coeff)
            a[i + 1 :, :] -= np.outer(coeff, a[i, :])
            c[:, i + 1 :] -= np.outer(c[:, i], coeff)
    roots = np.sqrt(np.diag(a).astype(np.complex128))
    c = c / roots[np.newaxis, :]
    det = complex(np.linalg.det(c))
    if not near_one(det, tol):
        if not near_one(-det, tol):
            raise NotInFiber(f"det(C) = {det:.6g}; input determinant is not 1")
        c[:, 0] = -c[:, 0]
    return c


def normalize_skew_form(b, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Return C with ``C^T B C = J`` for skew invertible B with Pf 1.

    Skew congruence elimination builds the interleaved 2x2 blocks of
    :func:`jn` in place: pivot a maximal entry into each (2i-1, 2i) slot,
    scale the block symmetrically, and clear the remaining couplings.
    """
    checked = validated(b, "skew")
    b = as_square_matrix(b)
    n = b.shape[0]
    if not checked and n % 2 != 0:
        raise OddDimension("skew normalization needs an even dimension")
    scale = max(1.0, float(np.abs(b).max()))
    if not checked and np.linalg.norm(b + b.T) > tol.tol_residual * max(1.0, np.linalg.norm(b)):
        raise NotSkewSymmetric("matrix is not skew-symmetric within tolerance")
    a = 0.5 * (b - b.T)
    c = np.eye(n, dtype=np.complex128)

    def swap(p: int, q: int) -> None:
        if p == q:
            return
        a[:, [p, q]] = a[:, [q, p]]
        a[[p, q], :] = a[[q, p], :]
        c[:, [p, q]] = c[:, [q, p]]

    for i in range(0, n, 2):
        sub = np.abs(a[i:, i:])
        p, q = np.unravel_index(int(np.argmax(sub)), sub.shape)
        p, q = i + int(p), i + int(q)
        if abs(a[p, q]) <= tol.tol_zero * scale:
            raise SingularInput("skew form is singular")
        swap(p, i)
        # q may have been moved by the first swap
        if q == i:
            q = p
        swap(q, i + 1)
        s = np.sqrt(np.complex128(a[i, i + 1]))
        a[:, i] /= s
        a[i, :] /= s
        a[:, i + 1] /= s
        a[i + 1, :] /= s
        c[:, i] /= s
        c[:, i + 1] /= s
        if i + 2 < n:
            # clear couplings of the finished block to the trailing matrix
            mu = a[i, i + 2 :] / a[i, i + 1]
            a[:, i + 2 :] -= np.outer(a[:, i + 1], mu)
            a[i + 2 :, :] -= np.outer(mu, a[i + 1, :])
            c[:, i + 2 :] -= np.outer(c[:, i + 1], mu)
            nu = a[i + 1, i + 2 :] / a[i + 1, i]
            a[:, i + 2 :] -= np.outer(a[:, i], nu)
            a[i + 2 :, :] -= np.outer(nu, a[i, :])
            c[:, i + 2 :] -= np.outer(c[:, i], nu)
    if not checked:
        det = complex(np.linalg.det(c))
        if not near_one(det, tol, 1000.0):
            raise NotInFiber(f"det(C) = {det:.6g}; input Pfaffian is not 1")
    return c


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    re = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))
    return (re + 1j * im) / np.sqrt(2.0)


def solvable_sample(n: int, seed=0) -> np.ndarray:
    """Seeded random element of Sol_n (upper triangular, positive diagonal,
    det 1)."""
    rng = np.random.default_rng(seed)
    diag = np.exp(rng.uniform(-0.5, 0.5, size=n))
    diag /= np.prod(diag) ** (1.0 / n)
    e = np.diag(diag.astype(np.complex128))
    iu = np.triu_indices(n, 1)
    vals = rng.standard_normal(len(iu[0])) + 1j * rng.standard_normal(len(iu[0]))
    e[iu] = 0.5 * vals
    return e


def real_solvable_sample(n: int, seed=0) -> np.ndarray:
    """Seeded element of the real solvable group Sol_n(R): real upper
    triangular, positive diagonal, det 1.

    This is the Iwasawa solvable factor of SL_n(R); congruence by it is the
    cell-preserving dressing for the symmetric fiber.
    """
    rng = np.random.default_rng(seed)
    diag = np.exp(rng.uniform(-0.5, 0.5, size=n))
    diag /= np.prod(diag) ** (1.0 / n)
    e = np.diag(diag.astype(np.complex128))
    iu = np.triu_indices(n, 1)
    e[iu] = 0.5 * rng.standard_normal(len(iu[0]))
    return e


def quaternionic_solvable_sample(n: int, seed=0) -> np.ndarray:
    """Seeded element of the quaternionic solvable group inside Sol_n (n even).

    Upper triangular with 2x2 quaternion blocks ``[[x, y], [-conj(y),
    conj(x)]]`` on the pair grid, equal positive real diagonal within each
    pair, zero in-pair off-diagonals, det 1; these are the fixed points of
    the skew Cartan involution inside Sol_n, the Iwasawa solvable factor of
    SL_{n/2}(H).  Congruence by it is the cell-preserving dressing for the
    skew fiber.
    """
    if n % 2 != 0:
        raise OddDimension("quaternionic solvable needs an even dimension")
    rng = np.random.default_rng(seed)
    half = n // 2
    diag = np.exp(rng.uniform(-0.5, 0.5, size=half))
    diag /= np.prod(diag) ** (1.0 / half)
    e = np.zeros((n, n), dtype=np.complex128)
    for k in range(half):
        e[2 * k, 2 * k] = diag[k]
        e[2 * k + 1, 2 * k + 1] = diag[k]
    for k in range(half):
        for l in range(k + 1, half):
            x = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
            y = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
            e[2 * k, 2 * l] = x
            e[2 * k, 2 * l + 1] = y
            e[2 * k + 1, 2 * l] = -np.conj(y)
            e[2 * k + 1, 2 * l + 1] = np.conj(x)
    return e


def haar_sample(
    n: int, klass: str, seed=0, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Seeded random matrix in one of the four supported classes.

    special_unitary  Haar-distributed U in SU_n (QR of a complex Gaussian with
                     the diagonal phase correction, then one column rescaled
                     by a unit phase to fix the determinant)
    sl               element of SL_n built as special_unitary . solvable
    sym_fiber        C^T C with C in SL_n: symmetric with det 1
    skew_fiber       C^T J C with C in SL_n: skew-symmetric with Pf 1

    All randomness flows through numpy's PCG64 generator seeded with
    ``seed``; identical seeds give bit-identical matrices.
    """
    if klass not in SAMPLE_CLASSES:
        raise ValueError(f"unknown sample class {klass!r}")
    if n < 2:
        raise DimensionMismatch("need n >= 2")
    if klass == "skew_fiber" and n % 2 != 0:
        raise OddDimension("skew_fiber needs even n")
    rng = np.random.default_rng(seed)

    q, r = np.linalg.qr(_ginibre(rng, n))
    phases = np.diag(r) / np.abs(np.diag(r))
    u = q * phases[np.newaxis, :]
    det = complex(np.linalg.det(u))
    u[:, 0] *= np.conj(det) / abs(det)
    if klass == "special_unitary":
        return u
    c = u @ solvable_sample(n, rng)
    if klass == "sl":
        return c
    if klass == "sym_fiber":
        return c.T @ c
    return c.T @ jn(n // 2) @ c
