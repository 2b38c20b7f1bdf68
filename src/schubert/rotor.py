"""Pseudo-rotations and their algebra.

A pseudo-rotation ``A_(theta, x)`` multiplies the complex line spanned by
the unit vector ``x`` by ``e^(i theta)`` and fixes its orthogonal
hyperplane; in matrix form ``I - (1 - e^(i theta)) x conj(x)^T``.  This
module provides the Whitehead interchange, the lemma that reorders a product
of two pseudo-rotations against the standard flag, the quaternionic structure
``j x = J conj(x)`` on C^(2n) with its H-pseudo-rotations, and the Cartan
conjugacy actions for the three matrix classes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    NotInFiber,
    NotInModel,
    NotUnitary,
    OddDimension,
    PreconditionViolated,
    ZeroVector,
)
from .numlin import (FiberElement, as_square_matrix, check_class, check_unitary, hermitian_inner,
                     is_unitary, jn, validated)
from .tolerances import DEFAULT_TOL, ToleranceConfig

TAU = 2.0 * math.pi


def canonical_angle(theta: float) -> float:
    """Reduce an angle to the canonical range (-pi, pi]."""
    r = math.remainder(float(theta), TAU)
    if r <= -math.pi:
        r += TAU
    return r


def min_index(x, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Largest 1-based coordinate index of x exceeding the zero threshold.

    ``min_index(x) == k`` means x lies in C^k but not in C^(k-1) relative to
    the standard flag.
    """
    xv = np.asarray(x, dtype=np.complex128)
    if xv.ndim != 1:
        raise DimensionMismatch("min_index expects a vector")
    return int(min_indices(xv[None], tol)[0])


def min_indices(rows, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """:func:`min_index` of each row of a stack, in one pass."""
    rows = np.asarray(rows, dtype=np.complex128)
    norm = _row_norms(rows)
    if np.any(norm <= tol.tol_zero):
        raise ZeroVector("min_index of a (near-)zero vector")
    big = np.abs(rows) > tol.tol_zero * norm
    if not big.any(axis=1).all():
        raise ZeroVector("no coordinate above threshold")
    return rows.shape[1] - big[:, ::-1].argmax(axis=1)


def _row_norms(rows: np.ndarray):
    """Row norms as a column; one row is summed as np.linalg.norm sums a vector."""
    if len(rows) == 1:
        r = rows[0]
        return np.sqrt(r.real.dot(r.real) + r.imag.dot(r.imag))
    return np.linalg.norm(rows, axis=1, keepdims=True)


def canonical_axis(x, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Unit representative of the line <x> whose min-index coordinate is
    real and positive; a 2-D array is a stack of axes, one per row, and
    may be empty.

    Coordinates below the residual tolerance are snapped to zero first:
    they are indistinguishable from zero at the working precision of the
    factorization engines, and keeping them would mint spurious min-indices
    for axes sitting on a cell boundary.
    """
    xv = np.asarray(x, dtype=np.complex128)
    rows = np.atleast_2d(xv)
    norm = _row_norms(rows)
    if len(rows) and not tol.tol_zero < norm.min() < math.inf:
        raise ZeroVector("cannot normalize a zero or non-finite axis")
    keep = np.abs(rows) > tol.axis_snap * norm
    rows = rows * keep
    rows /= _row_norms(rows)
    # the min-index coordinate is the last one kept
    pivot = rows[np.arange(len(rows)), keep.shape[1] - 1 - keep[:, ::-1].argmax(axis=1)]
    # hypot, unlike np.abs of a complex array, rounds as abs of a scalar
    phase = pivot.conj() / np.hypot(pivot.real, pivot.imag)
    return (rows * phase[:, None]).reshape(xv.shape)


@dataclass(frozen=True)
class PseudoRotation:
    """``A_(theta, x)``: rotation of the line <x> by theta.

    The angle is stored in (-pi, pi] and the axis is the canonical unit
    representative of its line (min-index coordinate real positive); both
    canonicalizations leave the operator unchanged.
    """

    theta: float
    axis: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", canonical_angle(self.theta))
        object.__setattr__(self, "axis", canonical_axis(self.axis))

    @property
    def n(self) -> int:
        return len(self.axis)

    @classmethod
    def of_canonical(cls, theta: float, axis: np.ndarray) -> "PseudoRotation":
        """``A_(theta, axis)`` for an axis that is already canonical, as
        :func:`canonical_axis` returns it; only the angle is reduced."""
        rot = object.__new__(cls)
        object.__setattr__(rot, "theta", canonical_angle(theta))
        object.__setattr__(rot, "axis", axis)
        return rot

    def min_index(self, tol: ToleranceConfig = DEFAULT_TOL) -> int:
        return min_index(self.axis, tol)

    def matrix(self) -> np.ndarray:
        x = self.axis
        return np.eye(self.n, dtype=np.complex128) - (
            1.0 - np.exp(1j * self.theta)
        ) * np.outer(x, np.conj(x))

    def inverse(self) -> "PseudoRotation":
        return PseudoRotation.of_canonical(-self.theta, self.axis)

    def conjugate(self) -> "PseudoRotation":
        return PseudoRotation(-self.theta, np.conj(self.axis))

    def transpose(self) -> "PseudoRotation":
        return PseudoRotation(self.theta, np.conj(self.axis))


def apply(rot: PseudoRotation, v) -> np.ndarray:
    """Apply ``A_(theta, x)`` to a vector: ``v - (1 - e^(i theta)) <v, x> x``."""
    vv = np.asarray(v, dtype=np.complex128)
    if vv.shape != rot.axis.shape:
        raise DimensionMismatch("vector dimension does not match the rotation")
    coef = (1.0 - np.exp(1j * rot.theta)) * hermitian_inner(vv, rot.axis)
    return vv - coef * rot.axis


def product_matrix(rots, n: int) -> np.ndarray:
    """Left-to-right product, by rank-1 updates ``P -= (1 - e^(i theta)) (P x) x*``."""
    out = np.eye(n, dtype=np.complex128)
    for r in rots:
        out -= ((out @ r.axis) * (1.0 - np.exp(1j * r.theta)))[:, None] * r.axis.conj()
    return out


def conjugate_by_unitary(
    u, rot: PseudoRotation, tol: ToleranceConfig = DEFAULT_TOL
) -> PseudoRotation:
    """``U A_(theta, x) U^-1 = A_(theta, U x)``."""
    u = check_unitary(u, tol)
    if u.shape[0] != rot.n:
        raise DimensionMismatch("unitary dimension does not match the rotation")
    return PseudoRotation(rot.theta, u @ rot.axis)


def involutions(rot: PseudoRotation) -> dict[str, PseudoRotation]:
    """Inverse, entrywise conjugate and transpose as pseudo-rotations."""
    return {
        "inverse": rot.inverse(),
        "conjugate": rot.conjugate(),
        "transpose": rot.transpose(),
    }


def whitehead_interchange(
    a: PseudoRotation, b: PseudoRotation, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[Optional[PseudoRotation], Optional[PseudoRotation], str]:
    """Rewrite the product ``a . b`` with the lower min-index factor first.

    Requires ``min_index(a) >= min_index(b)``.  Returns a pair (first,
    second) whose product equals ``a . b`` and a case tag:

    * ``"case1"``      strict inequality: ``(b, A_(theta_a, b^-1 a.axis))``;
    * ``"same-line"``  equal lines: the single merged rotation (second is
      None), or (None, None) when the angles cancel;
    * ``"case2"``      equal min-indices, distinct lines: first rotates the
      line ``W cap C^(m-1)`` of the plane W spanned by the two axes, second
      has min-index m; either slot may be None in degenerate collapses.
    """
    m_a, m_b = a.min_index(tol), b.min_index(tol)
    if m_a < m_b:
        raise PreconditionViolated("left factor must have min-index >= right factor")
    if m_a > m_b:
        moved = PseudoRotation(a.theta, apply(b.inverse(), a.axis))
        return b, moved, "case1"
    # equal min-index: same line?
    overlap = abs(hermitian_inner(a.axis, b.axis))
    if 1.0 - overlap < 100 * tol.tol_zero:
        theta = canonical_angle(a.theta + b.theta)
        if abs(theta) < tol.tol_angle:
            return None, None, "same-line"
        return PseudoRotation(theta, a.axis), None, "same-line"
    m = m_a
    # W = span(a.axis, b.axis); its intersection with C^(m-1) is the line of
    # the output's first factor
    low = a.axis - (a.axis[m - 1] / b.axis[m - 1]) * b.axis
    f2 = canonical_axis(low, tol)
    f1 = a.axis - hermitian_inner(a.axis, f2) * f2
    f1 = f1 / np.linalg.norm(f1)
    # 2x2 matrix of (a b) restricted to W in the basis (f1, f2)
    col1 = apply(a, apply(b, f1))
    col2 = apply(a, apply(b, f2))
    mat = np.array(
        [
            [hermitian_inner(col1, f1), hermitian_inner(col2, f1)],
            [hermitian_inner(col1, f2), hermitian_inner(col2, f2)],
        ]
    )
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    # v = (a b)^-1 f1 in W coordinates
    v = np.conj(mat[0, :])
    z = 1.0 - np.conj(v[0])
    if abs(z) < 100 * tol.tol_zero:
        # the product already fixes f1: single rotation about the low line
        theta1 = float(np.angle(det))
        if abs(canonical_angle(theta1)) < tol.tol_angle:
            return None, None, "case2"
        return PseudoRotation(theta1, f2), None, "case2"
    # unique pseudo-rotation on W sending f1 to v: axis ~ f1 - v,
    # angle phi with e^(i phi) = -conj(z)/z
    phi = float(np.angle(-np.conj(z) / z))
    u = (1.0 - v[0]) * f1 - v[1] * f2
    second = PseudoRotation(-phi, u)
    theta1 = float(np.angle(det * np.exp(1j * phi)))
    if abs(canonical_angle(theta1)) < tol.tol_angle:
        return None, second, "case2"
    return PseudoRotation(theta1, f2), second, "case2"


def jmul(x, n_half: Optional[int] = None) -> np.ndarray:
    """Quaternionic multiplication ``j x = J conj(x)`` on C^(2n)."""
    xv = np.asarray(x, dtype=np.complex128)
    if xv.ndim != 1 or len(xv) % 2 != 0:
        raise OddDimension("jmul needs a vector of even length")
    if n_half is not None and len(xv) != 2 * n_half:
        raise DimensionMismatch("vector length does not match 2n")
    out = np.empty_like(xv)
    conj = np.conj(xv)
    out[0::2] = conj[1::2]
    out[1::2] = -conj[0::2]
    return out


def hline_canonical(x, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Canonical unit representative of the quaternionic line of ``x``.

    For an H-line minimally inside C^(2m) this is the unique unit vector of
    the line lying in C^(2m-1) with real positive coordinate 2m-1.
    """
    xv = np.asarray(x, dtype=np.complex128)
    norm = float(np.linalg.norm(xv))
    if norm <= tol.tol_zero:
        raise ZeroVector("zero vector spans no quaternionic line")
    a = xv / norm
    b = jmul(a)
    qa, qb = min_index(a, tol), min_index(b, tol)
    if qa == qb:
        b = b - (b[qa - 1] / a[qa - 1]) * a
        qb = min_index(b, tol)
    y = a if qa < qb else b
    return canonical_axis(y, tol)


@dataclass(frozen=True)
class HPseudoRotation:
    """H-pseudo-rotation: the commuting product ``A_(theta,x) A_(theta,jx)``
    rotating a quaternionic line; determinant ``e^(2 i theta)``."""

    theta: float
    hline: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", canonical_angle(self.theta))
        object.__setattr__(self, "hline", hline_canonical(self.hline))

    @property
    def n(self) -> int:
        return len(self.hline)

    def halves(self) -> tuple[PseudoRotation, PseudoRotation]:
        return (
            PseudoRotation(self.theta, self.hline),
            PseudoRotation(self.theta, jmul(self.hline)),
        )

    def matrix(self) -> np.ndarray:
        return product_matrix(self.halves(), self.n)


def sigma(c, klass: str) -> np.ndarray:
    """Cartan involution of the given class: identity, entrywise
    conjugation, or J-twisted conjugation ``J conj(C) J^-1``."""
    check_class(klass)
    m = as_square_matrix(c)
    if klass == "general":
        return m.copy()
    if klass == "symmetric":
        return np.conj(m)
    if m.shape[0] % 2 != 0:
        raise OddDimension("skew involution needs an even dimension")
    j = jn(m.shape[0] // 2)
    return j @ np.conj(m) @ j.conj().T


def model_element(b, klass: str, tol: ToleranceConfig = DEFAULT_TOL) -> FiberElement:
    """``b`` as an element of the compact Cartan model of the class: in the
    general fiber (the symmetric one for the symmetric class), unitary, and
    for the skew class with B J skew-symmetric.  Skips the checks a
    FiberElement has passed; any failure raises NotInModel."""
    check_class(klass)
    not_in_model = NotInModel(f"matrix is not in the {klass} Cartan model")
    fiber = "symmetric" if klass == "symmetric" else "general"
    try:
        elem = b if validated(b, fiber, "symmetric") else FiberElement(b, fiber, tol)
    except NotInFiber:
        raise not_in_model from None
    m = elem.matrix
    if klass == "skew":
        mj = m @ jn(m.shape[0] // 2) if m.shape[0] % 2 == 0 else None
        scale = max(1.0, float(np.linalg.norm(m)))
        if mj is None or np.linalg.norm(mj + mj.T) > tol.tol_residual * scale:
            raise not_in_model
    if not elem.unitary:
        raise not_in_model
    return elem


def in_cartan_model(b, klass: str, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Membership test for the compact Cartan model of the class."""
    try:
        model_element(b, klass, tol)
    except NotInModel:
        return False
    return True


def cartan_conjugate(
    a, b, klass: str, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Cartan conjugacy ``B -> A B sigma(A*)`` preserving the class model.

    Concretely ``A B A^T`` for the symmetric class and
    ``A (B J) A^T J^-1`` for the skew class.
    """
    a = as_square_matrix(a)
    b = as_square_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch("conjugator and model element differ in size")
    if not is_unitary(a, tol):
        raise NotUnitary("Cartan conjugation requires a unitary conjugator")
    model_element(b, klass, tol)
    return a @ b @ sigma(a.conj().T, klass)
