"""Dense complex linear algebra kernels.

Hermitian inner products, fiber membership (:class:`FiberElement` with its
one entry ``FiberElement.of``, the one form test :func:`is_symmetric` and
the one det = 1 / Pf = 1 decision :func:`near_one`), the Frobenius-norm
kernel :func:`fro_norm` of the hot paths, the Iwasawa (unitary *
solvable) splitting of determinant-one matrices, Pfaffians, congruence
normalization of symmetric and skew-symmetric bilinear forms, and seeded
random samplers for the matrix classes (one body for the solvable groups
over C, R and H).  The factorization engines do not diagonalize: they read
factors off row by row (see :mod:`schubert.factor`).  ``eig_unitary``
stays because the benchmark's tracer looks it up.

Conventions:
  * the Hermitian form is ``<x, y> = x^T conj(y)`` (column vectors);
  * ``jn(k)`` is the 2k x 2k block diagonal matrix with 2x2 blocks
    ``[[0, 1], [-1, 0]]`` on coordinate pairs (1,2), (3,4), ...;
  * solvable factors are upper triangular with strictly positive real
    diagonal and determinant one.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cohom import check_class
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

#: classes accepted by :func:`haar_sample`
SAMPLE_CLASSES = ("special_unitary", "sl", "sym_fiber", "skew_fiber")


def as_square_matrix(b) -> np.ndarray:
    """Validate and return ``b`` (a FiberElement's matrix as is) as a square complex128 array."""
    if isinstance(b, FiberElement):
        return b.matrix
    m = np.asarray(b, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DimensionMismatch("matrix entries must be finite")
    return np.ascontiguousarray(m)


def fro_norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a float or complex array, bit for bit: numpy's
    own ravel in memory order, real and imaginary dots and square root,
    without its argument handling."""
    x = x.ravel(order="K")
    if x.dtype.kind != "c":
        return math.sqrt(x.dot(x))
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


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
    n = 2 * n_half
    j = np.zeros((n, n), dtype=np.complex128)
    flat = j.reshape(-1)  # (2i, 2i + 1) and (2i + 1, 2i) are every (2n + 2)-th entry
    flat[1 :: 2 * n + 2], flat[n :: 2 * n + 2] = 1.0, -1.0
    return j


def is_unitary(b: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    b = as_square_matrix(b)
    n = b.shape[0]
    g = b @ b.conj().T
    g.reshape(-1)[:: n + 1] -= 1.0  # B B* - I, the identity taken off the diagonal in place
    return fro_norm(g) <= tol.tol_residual * n


def check_unitary(b: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The matrix of ``b``, which must be unitary."""
    m = as_square_matrix(b)
    if not (b.unitary if isinstance(b, FiberElement) else is_unitary(m, tol)):
        raise NotUnitary("matrix is not unitary within tolerance")
    return m


def _form_scale(b: np.ndarray, tol: ToleranceConfig, skew: bool):
    """``max(1, ||b||)`` when ``b`` passes the form test, else None."""
    scale = max(1.0, fro_norm(b))
    dev = b + b.T if skew else b - b.T
    return scale if fro_norm(dev) <= tol.tol_residual * scale else None


def is_symmetric(b: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, skew: bool = False) -> bool:
    """The package's one form test: ``||b -+ b^T|| <= tol_residual * max(1,
    ||b||)``, for a symmetric ``b``, or a skew-symmetric one with ``skew``."""
    return _form_scale(b, tol, skew) is not None


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
        if self.klass == "symmetric" and not is_symmetric(b, self.tol):
            raise NotInFiber("matrix is not symmetric")
        if self.klass == "skew":
            try:  # Pf off the normalizer's elimination, which keeps its C; pfaffian, whose
                # Pf is the more accurate at n >= 56, decides a compact input and a rejection
                name, value = "Pf", None if self.unitary else self._skew_form[1]
                if value is None or not near_one(value, self.tol):
                    value = pfaffian(self, self.tol)
            except (OddDimension, NotSkewSymmetric, SingularInput) as exc:
                raise NotInFiber(str(exc)) from None
        else:
            name, value = "det", complex(np.linalg.det(b))
        if not near_one(value, self.tol):
            raise NotInFiber(f"{name} = {value:.6g}, expected 1 (inputs are not rescaled)")

    @functools.cached_property
    def unitary(self) -> bool:
        """Whether the matrix is unitary (the compact tier), decided once."""
        return is_unitary(self, self.tol)

    @functools.cached_property
    def _skew_form(self) -> tuple:
        """(C with C^T B C = J, Pf) of a skew matrix, eliminated once."""
        return _skew_elimination(self.matrix, self.tol)

    @classmethod
    def of(cls, b, klass: str, tol: ToleranceConfig = DEFAULT_TOL) -> "FiberElement":
        """``b`` itself when it has passed the checks of ``klass`` (a
        symmetric element has passed the general ones), else ``b`` validated
        as an element of ``klass``."""
        passed = (klass, "symmetric") if klass == "general" else (klass,)
        return b if isinstance(b, cls) and b.klass in passed else cls(b, klass, tol)

    @classmethod
    def _trusted(cls, m: np.ndarray, klass: str | None, tol: ToleranceConfig) -> "FiberElement":
        """An element of ``klass`` made without checks, for a finite square
        complex128 ``m`` that the package has already shown to lie there;
        with ``klass`` None, ``m`` has passed only the boundary check."""
        elem = object.__new__(cls)
        elem.__dict__.update(matrix=m, klass=klass, tol=tol)
        return elem

    @classmethod
    def of_unitary(cls, b, tol: ToleranceConfig = DEFAULT_TOL) -> "FiberElement":
        """``FiberElement.of(b, "general", tol)`` for a ``b`` that must be
        unitary: NotUnitary comes before NotInFiber, and the answer is kept
        (an adjoint keeps it too).  A raw ``b`` passes the boundary check
        once and is held, in no class yet, for the unitarity check and the
        det."""
        if not isinstance(b, cls):
            b = cls._trusted(as_square_matrix(b), None, tol)
        check_unitary(b, tol)
        elem = cls.of(b, "general", tol)
        elem.__dict__["unitary"] = True
        return elem

    def adjoint(self) -> "FiberElement":
        """The conjugate transpose, in the same fiber and tier without new
        checks; a skew adjoint has Pf = (-1)^(n/2) conj(Pf), so not skew."""
        if self.klass == "skew":
            raise UnsupportedClass("the adjoint of a skew fiber element leaves the fiber")
        out = object.__new__(FiberElement)
        out.__dict__.update(self.__dict__, matrix=np.ascontiguousarray(self.matrix.conj().T))
        return out


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
    b = FiberElement.of(b, "general", tol).matrix
    n = b.shape[0]
    q, r = np.linalg.qr(b)
    diag = np.diag(r).copy()
    scale = max(1.0, fro_norm(b))
    if (np.abs(diag) <= tol.tol_zero * scale).any():
        raise SingularInput("Gram-Schmidt pivot below zero threshold")
    phases = diag / np.abs(diag)
    unitary = q * phases[np.newaxis, :]
    solvable = r * np.conj(phases)[:, np.newaxis]
    # force the diagonal exactly real positive
    idx = np.arange(n)
    solvable[idx, idx] = np.abs(diag)
    return IwasawaParts(unitary=unitary, solvable=solvable)


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


def _swap(t: np.ndarray, p: int, q: int) -> bool:
    """Swap columns p and q of ``t``, and rows p and q of its leading square
    block; whether that moved anything (p != q)."""
    if p != q:
        t[:, p], t[:, q] = t[:, q].copy(), t[:, p].copy()
        sq = t[: t.shape[1]]
        sq[p], sq[q] = sq[q].copy(), sq[p].copy()
    return p != q


def pfaffian(b, tol: ToleranceConfig = DEFAULT_TOL) -> complex:
    """Pfaffian of a skew-symmetric matrix by skew elimination with pivoting.

    Normalized so that ``pfaffian(jn(k)) == 1``; satisfies
    ``Pf(C^T B C) = det(C) Pf(B)`` and ``Pf(B)^2 = det(B)``.  Rows and
    columns already eliminated are never read again, so pivot swaps move
    only the rows and columns from the current pivot on.
    """
    b = as_square_matrix(b)
    n = b.shape[0]
    if n % 2 != 0:
        raise OddDimension("Pfaffian needs an even dimension")
    scale = _form_scale(b, tol, True)
    if scale is None:
        raise NotSkewSymmetric("matrix is not skew-symmetric within tolerance")
    a = 0.5 * (b - b.T)
    pf = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        # pivot: largest entry in row k to the right of the diagonal
        rel = int(np.abs(a[k, k + 1 :]).argmax())
        jpiv = k + 1 + rel
        if abs(a[k, jpiv]) <= tol.tol_zero * scale:
            return 0.0 + 0.0j
        if jpiv != k + 1:
            _swap(a[k:, k:], 1, jpiv - k)
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
    column sign flip; it is read off the pivots d_i as ``(-1)^swaps * prod
    d_i^(-1/2)``, since the other column operations have det 1.  The form
    a is held above C, as ``g = [a; C]``: subtracting the Schur complement
    of a pivot from the trailing block of a and the matching column update
    of C are one column operation on g, so each pivot makes one rank-1
    update.  Eliminated rows and columns of a are never read again.
    """
    checked = isinstance(b, FiberElement) and b.klass == "symmetric"
    b = as_square_matrix(b)
    n = b.shape[0]
    scale = max(1.0, float(np.abs(b).max()))
    if not (checked or is_symmetric(b, tol)):
        raise NotSymmetric("matrix is not symmetric within tolerance")
    g = np.vstack((0.5 * (b + b.T), np.eye(n)))
    swaps = 0
    for i in range(n):
        t = g[i:, i:]  # t[:n - i] is the trailing block of a, t[n - i:] the columns i: of C
        j = int(np.abs(t.diagonal()).argmax())
        if abs(t[j, j]) <= tol.tol_zero * scale:
            # all remaining diagonal entries vanish: create a pivot by a
            # row+column addition using the largest off-diagonal entry
            sub = np.abs(np.triu(t[: n - i], 1))
            if sub.max() <= tol.tol_zero * scale:
                raise SingularInput("quadratic form is singular")
            j, q = divmod(int(sub.argmax()), n - i)
            t[:, j] += t[:, q]
            t[j] += t[q]
        swaps += _swap(t, 0, j)
        t[1:, 1:] -= np.outer(t[1:, 0], t[0, 1:] / t[0, 0])
    root = np.sqrt(g.diagonal())
    c, det = g[n:] / root, (-1) ** swaps / complex(root.prod())
    if not near_one(det, tol):
        if not near_one(-det, tol):
            raise NotInFiber(f"det(C) = {det:.6g}; input determinant is not 1")
        c[:, 0] = -c[:, 0]
    return c


def _skew_elimination(b: np.ndarray, tol: ToleranceConfig):
    """The skew congruence elimination of :func:`normalize_skew_form`: C with
    ``C^T B C = J``, and ``Pf(B) = (-1)^swaps * prod x_i = 1 / det C`` read
    off its pivots.  An odd dimension, a form that is not skew and a
    singular form raise."""
    n = b.shape[0]
    if n % 2 != 0:
        raise OddDimension("skew normalization needs an even dimension")
    scale = max(1.0, float(np.abs(b).max()))
    if not is_symmetric(b, tol, skew=True):
        raise NotSkewSymmetric("matrix is not skew-symmetric within tolerance")
    g = np.vstack((0.5 * (b - b.T), np.eye(n)))
    upper = ~np.tri(n, dtype=bool)  # the strict upper triangle, where pivots are taken
    pf = 1.0 + 0.0j
    for i in range(0, n, 2):
        t = g[i:, i:]  # t[:n - i] is the trailing block of a, t[n - i:] the columns i: of C
        p, q = divmod(int((np.abs(t[: n - i]) * upper[i:, i:]).argmax()), n - i)
        if abs(t[p, q]) <= tol.tol_zero * scale:
            raise SingularInput("skew form is singular")
        # q > p, so the first swap leaves column q in place; the sign of Pf
        # flips once per swap that moves something
        odd = _swap(t, 0, p) != _swap(t, 1, q)
        x = t[0, 1]
        pf *= -x if odd else x
        w = t[1::-1, 2:] / x  # P^-1 t[:2, 2:], with P^-1 = [[0, -1], [1, 0]] / x
        w[0] = -w[0]
        t[2:, 2:] -= t[2:, :2] @ w
        t[n - i :, :2] /= np.sqrt(x)
    return g[n:], complex(pf)


def normalize_skew_form(b, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Return C with ``C^T B C = J`` for skew invertible B with Pf 1.

    Skew congruence elimination builds the interleaved 2x2 blocks of
    :func:`jn`: pivot a maximal entry x of the strict upper triangle (so
    that rounding cannot choose between x and its mirror) into each
    (2i-1, 2i) slot, subtract the Schur complement of the block
    P = [[0, x], [-x, 0]], and scale the block's columns of C by x^(-1/2).
    As in :func:`diagonalize_quadratic_form`, ``g = [a; C]`` takes the
    Schur complement and the update of C together, in one rank-2 update
    per pivot.  A skew FiberElement hands over the C of the elimination
    that decided its membership; a raw array is decided by det C = 1 / Pf
    off the pivots.
    """
    if isinstance(b, FiberElement) and b.klass == "skew":
        return b._skew_form[0].copy()
    c, pf = _skew_elimination(as_square_matrix(b), tol)
    if not near_one(1 / pf, tol, 1000.0):
        raise NotInFiber(f"det(C) = {1 / pf:.6g}; input Pfaffian is not 1")
    return c


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    re = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))
    return (re + 1j * im) / np.sqrt(2.0)


def _solvable_sample(n: int, seed, field: str) -> np.ndarray:
    """The body of the three solvable samplers, ``field`` "C", "R" or "H":
    the diagonal per block (an equal pair for H), then the entries above
    the blocks, complex, real or quaternion ``[[x, y], [-conj(y), conj(x)]]``."""
    width = 2 if field == "H" else 1
    if n % width != 0:
        raise OddDimension("quaternionic solvable needs an even dimension")
    blocks = n // width
    if blocks < 1:
        raise DimensionMismatch(f"need n >= {width}")
    rng = np.random.default_rng(seed)
    diag = np.exp(rng.uniform(-0.5, 0.5, size=blocks))
    diag /= np.prod(diag) ** (1.0 / blocks)
    e = np.diag(np.repeat(diag, width).astype(np.complex128))
    k, l = np.triu_indices(blocks, 1)
    if field == "H":
        g = rng.standard_normal((len(k), 4))
        x, y = 0.5 * (g[:, 0] + 1j * g[:, 1]), 0.5 * (g[:, 2] + 1j * g[:, 3])
        e[2 * k, 2 * l], e[2 * k, 2 * l + 1] = x, y
        e[2 * k + 1, 2 * l], e[2 * k + 1, 2 * l + 1] = -np.conj(y), np.conj(x)
    elif field == "C":
        g = rng.standard_normal((2, len(k)))
        e[k, l] = 0.5 * (g[0] + 1j * g[1])
    else:
        e[k, l] = 0.5 * rng.standard_normal(len(k))
    return e


def solvable_sample(n: int, seed=0) -> np.ndarray:
    """Seeded random element of Sol_n (upper triangular, positive diagonal,
    det 1)."""
    return _solvable_sample(n, seed, "C")


def real_solvable_sample(n: int, seed=0) -> np.ndarray:
    """Seeded element of the real solvable group Sol_n(R): real upper
    triangular, positive diagonal, det 1.

    This is the Iwasawa solvable factor of SL_n(R); congruence by it is the
    cell-preserving dressing for the symmetric fiber.
    """
    return _solvable_sample(n, seed, "R")


def quaternionic_solvable_sample(n: int, seed=0) -> np.ndarray:
    """Seeded element of the quaternionic solvable group inside Sol_n (n even).

    Upper triangular with 2x2 quaternion blocks ``[[x, y], [-conj(y),
    conj(x)]]`` on the pair grid, equal positive real diagonal within each
    pair, zero in-pair off-diagonals, det 1; these are the fixed points of
    the skew Cartan involution inside Sol_n, the Iwasawa solvable factor of
    SL_{n/2}(H).  Congruence by it is the cell-preserving dressing for the
    skew fiber.
    """
    return _solvable_sample(n, seed, "H")


def haar_sample(n: int, klass: str, seed=0) -> np.ndarray:
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
