"""Ordered factorization engines and cell parametrization maps.

Every special unitary matrix has a unique factorization into
pseudo-rotations whose axis min-indices strictly increase; the tuple of
those indices (entries 1 dropped into a leading correction factor) is the
Schubert symbol of the matrix and names its Schubert cell.  The general
engine reads that factorization off directly, inverting the forward cell
map: row j of the matrix determines the factor with min-index j, which is
then peeled off by a rank-1 update, for j = n down to 2.  The peel keeps
angles and axes in stacked arrays, canonicalises the axes in one call,
and pseudo-rotation objects are built only for the factorization that is
returned.  The rank profile of W - I, W the unitary polar factor, names
the same min-indices with no fitted angle in between; when the two
disagree or a rank is decided in its gray zone, the result is flagged
boundary-ambiguous.  The symmetric and skew-symmetric Cartan models carry
analogous unique factorizations, which one Cartan peel reads off the
decreasing general factorization by iterated Cartan conjugation: one
half-angle real-axis factor per step for the symmetric class, one
quaternionic pair ``(A, sigma(A*))`` per step for the skew class.  Order
reversal conjugates each axis by the running product of the factors
already passed.

The ``schubert_map*`` functions are the forward cell parametrizations;
together with the factorization engines they form the round-trip oracles
used throughout the test suite.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import cohom
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidSymbol,
    PreconditionViolated,
    RealAxisExtractionFailure,
    StructureViolation,
    UnsupportedClass,
)
from .numlin import (
    FiberElement,
    as_square_matrix,
    check_unitary,
    haar_sample,
    jn,
    validated,
)
from .rotor import (
    TAU,
    PseudoRotation,
    apply,  # noqa: F401  (a lookup point of perfbench/tracer.py)
    canonical_axis,
    check_class,
    jmul,
    min_index,
    min_indices,
    model_element,
    product_matrix,
    sigma,
)
from .tolerances import DEFAULT_TOL, GRAY_SPAN, ToleranceConfig, in_gray_zone


def validate_symbol_entries(entries: Sequence[int], ambient: int, klass: str) -> tuple[int, ...]:
    check_class(klass)
    if ambient < (2 if klass == "skew" else 1):
        raise InvalidSymbol(f"ambient dimension {ambient} is too small for the {klass} class")
    out = tuple(int(m) for m in entries)
    if any(b <= a for a, b in zip(out, out[1:])):
        raise InvalidSymbol(f"entries must strictly increase, got {out}")
    if out and out[0] < 2:
        raise InvalidSymbol(f"entries must exceed 1, got {out}")
    top = ambient if klass in ("general", "symmetric") else ambient // 2
    if klass == "skew" and ambient % 2 != 0:
        raise InvalidSymbol("skew symbols need an even ambient dimension")
    if out and out[-1] > top:
        raise InvalidSymbol(f"entry {out[-1]} exceeds the bound {top}")
    return out


@dataclass(frozen=True)
class SchubertSymbol:
    """Strictly increasing tuple of indices naming a Schubert cell.

    ``ambient`` is the matrix dimension (2n for the skew class, whose
    entries are bounded by n).
    """

    entries: tuple[int, ...]
    ambient: int
    klass: str = "general"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "entries", validate_symbol_entries(self.entries, self.ambient, self.klass)
        )

    @property
    def length(self) -> int:
        return len(self.entries)

    @property
    def weight(self) -> int:
        return sum(self.entries)

    def dim(self) -> int:
        return cohom.cell_dim(self.entries, self.klass)

    def __str__(self) -> str:
        return "(" + ",".join(str(m) for m in self.entries) + ")"


@dataclass(frozen=True)
class OrderedFactorization:
    """A product of pseudo-rotations with monotone min-indices.

    ``factors`` holds the symbol-carrying rotations in product order;
    ``correction`` is the optional min-index-1 factor (leading for
    increasing order, trailing for decreasing).  For the symmetric class
    the factors are the half-angle rotations C_j and the matrix is
    ``P P^T`` for P the plain product; for the skew class they are the
    quaternionic half factors and the matrix is ``P sigma(P*)``.
    """

    klass: str
    order: str
    ambient: int
    factors: tuple[PseudoRotation, ...]
    correction: Optional[PseudoRotation] = None
    residual: float = 0.0
    boundary_ambiguous: bool = False

    def all_factors(self) -> list[PseudoRotation]:
        """Factors in product order, correction included."""
        flat = list(self.factors)
        if self.correction is not None:
            flat = flat + [self.correction] if self.order == "decreasing" else [self.correction] + flat
        return flat

    def left_product(self) -> np.ndarray:
        return product_matrix(self.all_factors(), self.ambient)

    def matrix(self) -> np.ndarray:
        p = self.left_product()
        if self.klass == "general":
            return p
        if self.klass == "symmetric":
            return p @ p.T
        return p @ sigma(p.conj().T, "skew")

    def min_indices(self, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[int, ...]:
        axes = np.array([f.axis for f in self.factors]).reshape(len(self.factors), self.ambient)
        return tuple(min_indices(axes, tol).tolist())

    def symbol(self, tol: ToleranceConfig = DEFAULT_TOL) -> SchubertSymbol:
        mins = sorted(self.min_indices(tol))
        if self.klass == "skew":
            entries = tuple((m + 1) // 2 for m in mins)
        else:
            entries = tuple(m for m in mins if m > 1)
        return SchubertSymbol(entries, self.ambient, self.klass)


def _split_correction(
    work: list[PseudoRotation], tol: ToleranceConfig
) -> tuple[Optional[PseudoRotation], list[PseudoRotation]]:
    if work and work[0].min_index(tol) == 1:
        return PseudoRotation.of_canonical(work[0].theta, _e1(work[0].n)), work[1:]
    return None, work


def _norm(v: np.ndarray) -> float:
    return math.sqrt(np.vdot(v, v).real)


def _peel_rows(
    w: np.ndarray, tol: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray, list[int], float, bool]:
    """Peel the factors with min-index >= 2 off the right of the unitary
    ``w``, reading each from the bottom row it still moves.

    Returns the angles and canonical axes of the factors, stacked in
    product order, with their min-indices; the correction angle left at
    ``w[0, 0]``; and whether a pivot coordinate or the correction angle
    landed in its gray zone.  Rows below j that a factor moves and no later
    factor touches are multiples of the same axis; the angle is fitted over
    all of them, which keeps it well conditioned when the pivot of row j is
    small but the line has weight in those rows.  Each axis is snapped
    before its rank-1 update, which touches only the rows not yet read
    and the columns of the factor's support.
    """
    n = w.shape[0]
    w = w.copy()
    gray = False
    # entry j-1 holds the factor read off row j, if any
    thetas, axes, read = np.zeros(n), np.zeros((n, n), dtype=np.complex128), np.zeros(n, dtype=bool)
    for j in range(n, 1, -1):
        dev = -np.conj(w[j - 1, :j])
        dev[j - 1] += 1.0
        d = _norm(dev)
        if d < tol.tol_angle:
            continue
        read[j - 1] = True
        x = dev / d
        gray = gray or in_gray_zone(abs(x[j - 1]), tol.axis_snap, span=4.0)
        # row r carries conj(1 - e^(i theta)) conj(x_r) x while it is a
        # multiple of x; fit conj(1 - e^(i theta)) over those rows
        num, den = x[j - 1] * d, abs(x[j - 1]) ** 2
        for r in range(j - 1, 1, -1):
            dr = -np.conj(w[r - 1, :j])
            dr[r - 1] += 1.0
            cr = np.vdot(x, dr)
            if _norm(dr - cr * x) >= tol.tol_angle:
                break
            num += x[r - 1] * cr
            den += abs(x[r - 1]) ** 2
        thetas[j - 1] = -cmath.phase(1.0 - num / den)
        x *= np.abs(x) > tol.axis_snap  # x is a unit vector
        x /= _norm(x)
        axes[j - 1, :j] = x
        rows = w[: j - 1, :j]
        rows -= ((rows @ x) * (1.0 - cmath.exp(-1j * thetas[j - 1])))[:, None] * x.conj()
    thetas, axes = thetas[read], canonical_axis(axes[read], tol)
    phi = float(np.angle(w[0, 0]))
    gray = gray or in_gray_zone(phi, tol.tol_angle)
    return thetas, axes, min_indices(axes, tol).tolist(), phi, gray


def _rank_profile(w: np.ndarray, tol: ToleranceConfig) -> tuple[list[int], bool]:
    """The min-indices >= 2 of the factorization of the unitary ``w``, read
    off the rank profile of W - I, and whether a rank was decided in the
    gray zone of ``tol_angle``.

    For j >= 2, rows j..n of W - I are those of Q_j - I, Q_j the product of
    the factors with min-index >= j, so they have rank #{i : m_i >= j}, and
    j is a min-index exactly when adding row j raises the rank.  A rank
    counts the singular values of at least ``tol_angle``.  Blocks are taken
    from rows 2..n down, one SVD each, until one has all singular values
    above the gray zone; by interlacing, so do all smaller blocks.
    """
    n, tau = w.shape[0], tol.tol_angle
    d, ranks, gray = w - np.eye(n), np.zeros(n + 2, dtype=int), False  # ranks[j]: of rows j..n
    for j in range(2, n + 1):
        s = np.linalg.svd(d[j - 1 :], compute_uv=False)
        if s[-1] >= GRAY_SPAN * tau:
            ranks[j : n + 1] = np.arange(n - j + 1, 0, -1)
            break
        ranks[j] = np.count_nonzero(s >= tau)
        gray = gray or bool(np.any((s > tau / GRAY_SPAN) & (s < GRAY_SPAN * tau)))
    return [j for j in range(2, n + 1) if ranks[j] > ranks[j + 1]], gray


def factorize_su(b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderedFactorization:
    """Unique increasing ordered factorization of a special unitary matrix.

    Inverts the forward cell map row by row.  A factor with min-index below
    j fixes ``e_j^T`` from the left, so in ``B = C A_1 ... A_k`` row j is
    ``e_j^T`` unless the last factor has min-index j, and then it reads
    ``conj(e_j - (1 - e^(-i theta)) x_j x)``.  For j = n, ..., 2 the axis of
    that factor is read off row j of the unitary polar factor W of the
    input, its angle is fitted over row j and the rows below it that are
    multiples of the axis, the axis is snapped with ``tol.axis_snap``, and
    the factor is peeled off the right of W by a rank-1 update of the rows
    not yet read; the phase left at W[0, 0] is the min-index-1 correction,
    which is excluded from the Schubert symbol.  The axes are canonicalised
    together when the peel ends, and only this peel builds PseudoRotations.

    The symbol is certified by the rank profile of W - I, which reads the
    min-indices with no fitted angle in between: near a cell boundary the
    angle off a small pivot is sensitive to rounding, and its error moves
    the rows read after it, so a row no factor owns can read as a factor.
    ``boundary_ambiguous`` is raised when the peel's min-indices differ from
    the profile, or when a singular value of the profile, a pivot
    coordinate or the correction angle lands in the gray zone of its
    threshold.
    """
    m = check_unitary(b, tol)  # NotUnitary, then NotInFiber unless b passed det = 1
    b = m if validated(b, "general", "symmetric") else FiberElement(m, "general", tol).matrix
    n = b.shape[0]
    u, _, vh = np.linalg.svd(b)
    w = u @ vh
    thetas, axes, mins, phi, gray = _peel_rows(w, tol)
    if any(y <= x for x, y in zip(mins, mins[1:])):
        raise ConvergenceFailure(f"row peeling left non-monotone indices {mins}")
    profile, profile_gray = _rank_profile(w, tol)
    fact = OrderedFactorization(
        klass="general",
        order="increasing",
        ambient=n,
        factors=tuple(map(PseudoRotation.of_canonical, thetas, axes)),
        correction=PseudoRotation.of_canonical(phi, _e1(n)) if abs(phi) >= tol.tol_angle else None,
        boundary_ambiguous=gray or profile_gray or profile != mins,
    )
    residual = float(np.linalg.norm(fact.matrix() - b))
    if residual > tol.structure * n:
        raise ConvergenceFailure(f"reconstruction residual {residual:.3g} too large")
    return replace(fact, residual=residual)


def factorize_decreasing(b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderedFactorization:
    """Ordered factorization with decreasing min-indices.

    Obtained by factorizing B^-1 in increasing order and inverting each
    factor; the min-index-1 factor, when present, stays explicit at the
    right end of the product.  The residual is that of B^-1, since
    ``||P^-1 - B||_F = ||P - B^-1||_F`` for a unitary product P.
    """
    m = as_square_matrix(b)
    inc = factorize_su(b.adjoint() if validated(b, "general", "symmetric") else m.conj().T, tol)
    return OrderedFactorization(
        klass="general",
        order="decreasing",
        ambient=inc.ambient,
        factors=tuple(f.inverse() for f in reversed(inc.all_factors())),
        residual=inc.residual,
        boundary_ambiguous=inc.boundary_ambiguous,
    )


def reverse_order(
    f: OrderedFactorization, tol: ToleranceConfig = DEFAULT_TOL
) -> OrderedFactorization:
    """Convert a general factorization between increasing and decreasing
    order, keeping the product and the min-index multiset fixed.

    Increasing to decreasing uses
    ``B_i = A_1 ... A_(i-1) A_i A_(i-1)^-1 ... A_1^-1``, and the opposite
    direction the same chain with every ``A_j`` inverted.  So the axis of
    ``B_i`` is ``R x_i`` for the running product R of the factors already
    passed, which one rank-1 update per factor keeps.  The chained axes are
    canonicalised together with ``tol``.
    """
    if f.klass != "general":
        raise UnsupportedClass("order reversal applies to the general class")
    inc = f.order == "increasing"
    asc = f.all_factors() if inc else f.all_factors()[::-1]
    sign = 1j if inc else -1j
    r = np.eye(f.ambient, dtype=np.complex128)
    ys = np.zeros((len(asc), f.ambient), dtype=np.complex128)
    for i, a in enumerate(asc):
        ys[i] = r @ a.axis
        r -= (ys[i] * (1.0 - cmath.exp(sign * a.theta)))[:, None] * a.axis.conj()
    out = [PseudoRotation.of_canonical(a.theta, y) for a, y in zip(asc, canonical_axis(ys, tol))]
    correction, factors = (None, out[::-1]) if inc else _split_correction(out, tol)
    fact = replace(f, order="decreasing" if inc else "increasing", factors=tuple(factors),
                   correction=correction)
    residual = float(np.linalg.norm(fact.matrix() - f.matrix()))
    return replace(fact, residual=residual)


@dataclass(frozen=True)
class InvarianceReport:
    """The four symbols of B, B^-1, conj(B), B^T and their agreement."""

    original: SchubertSymbol
    inverse: SchubertSymbol
    conjugate: SchubertSymbol
    transpose: SchubertSymbol

    @property
    def equal(self) -> bool:
        e = self.original.entries
        return all(s.entries == e for s in (self.inverse, self.conjugate, self.transpose))


def symbol_invariance_check(b, tol: ToleranceConfig = DEFAULT_TOL) -> InvarianceReport:
    b = as_square_matrix(b)
    return InvarianceReport(
        original=factorize_su(b, tol).symbol(tol),
        inverse=factorize_su(b.conj().T, tol).symbol(tol),
        conjugate=factorize_su(np.conj(b), tol).symbol(tol),
        transpose=factorize_su(b.T, tol).symbol(tol),
    )


def _real_axis(x: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Strip the global phase (relative to the largest coordinate) and check
    the axis is real; returns the canonical axis of the real part."""
    i = int(np.argmax(np.abs(x)))
    y = x * (np.conj(x[i]) / abs(x[i]))
    if float(np.linalg.norm(y.imag)) > tol.tol_residual * 100:
        raise RealAxisExtractionFailure(
            f"imaginary residual {np.linalg.norm(y.imag):.3g} on a symmetric-model axis"
        )
    return canonical_axis(y.real, tol)


def _conjugate_rest(axes: np.ndarray, start: int, c: PseudoRotation, tol: ToleranceConfig) -> None:
    """Conjugate the stacked axes in rows ``start:`` by ``c^-1`` in place:
    one rank-1 update of all of them, then one canonicalisation."""
    rest = axes[start:]
    if len(rest):
        rest -= ((rest @ c.axis.conj()) * (1.0 - np.exp(-1j * c.theta)))[:, None] * c.axis
        axes[start:] = canonical_axis(rest, tol)


def _partner_gap(x: np.ndarray, theta_x: float, y: np.ndarray, theta_y: float) -> float:
    """``||A_(theta_x, x) - A_(theta_y, y)||_F`` for unit x, y in O(n): the two
    rank-1 terms restricted to span(x, y), where y = c x + s e, e a unit vector."""
    c = complex(np.vdot(x, y))
    s, c2 = _norm(y - c * x), abs(c) ** 2
    alpha, beta = 1.0 - cmath.exp(1j * theta_x), 1.0 - cmath.exp(1j * theta_y)
    return math.sqrt(abs(beta * c2 - alpha) ** 2 + abs(beta) ** 2 * s * s * (2.0 * c2 + s * s))


def _cartan_peel(b, klass: str, tol: ToleranceConfig) -> OrderedFactorization:
    """Increasing factorization of a symmetric or skew Cartan model element
    by iterated Cartan conjugation, working up its decreasing factorization.

    The symmetric class peels one factor at a time: it must be a real-axis
    rotation, and its half-angle square root C is split off.  The skew
    class peels one quaternionic pair at a time: the factor count is even,
    the lowest min-index odd, its partner one higher and equal to
    ``sigma(A_1*)``, which is recomputed rather than trusted from the
    factorization, and C = A_1.  Each C conjugates all remaining axes by
    ``C^-1`` at once, one rank-1 update of their stacked rows costing
    O(k n).
    """
    elem = model_element(b, klass, tol)
    b = elem.matrix
    step = 2 if klass == "skew" else 1
    dec = factorize_decreasing(elem, tol)
    work = dec.factors[::-1]
    axes = np.array([f.axis for f in work]).reshape(len(work), b.shape[0])
    if len(work) % step != 0:
        raise StructureViolation(f"odd factor count {len(work)}")
    halves: list[PseudoRotation] = []
    for i in range(0, len(work), step):
        if klass == "symmetric":
            c = PseudoRotation.of_canonical(work[i].theta / 2.0, _real_axis(axes[i], tol))
        else:
            c = PseudoRotation.of_canonical(work[i].theta, axes[i])
            m1, m2 = min_indices(axes[i : i + 2], tol).tolist()
            if m1 % 2 == 0:
                raise StructureViolation(f"lowest min-index {m1} is even")
            if m2 != m1 + 1:
                raise StructureViolation(f"pair indices ({m1}, {m2}) are not consecutive")
            gap = _partner_gap(axes[i + 1], work[i + 1].theta, jmul(c.axis), c.theta)
            if gap > tol.structure:
                raise StructureViolation(f"j-partner deviates by {gap:.3g}")
        halves.append(c)
        _conjugate_rest(axes, i + step, c, tol)
    correction, factors = _split_correction(halves, tol)
    fact = OrderedFactorization(klass, "increasing", b.shape[0], tuple(factors), correction,
                                boundary_ambiguous=dec.boundary_ambiguous)
    residual = float(np.linalg.norm(fact.matrix() - b))
    if residual > tol.structure * b.shape[0]:
        raise ConvergenceFailure(f"{klass} reconstruction residual {residual:.3g}")
    return replace(fact, residual=residual)


def factorize_symmetric(b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderedFactorization:
    """Ordered symmetric factorization ``B = C_1 ... C_k C_k ... C_1`` of a
    symmetric special unitary matrix by half-angle real-axis rotations."""
    return _cartan_peel(b, "symmetric", tol)


def factorize_skew(b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderedFactorization:
    """Ordered skew-symmetric factorization of a skew Cartan model element
    ``B = A_1 ... A_r sigma(A_r*) ... sigma(A_1*)``; symbol entries are the
    half-indices (m+1)/2 of the factors, the (1,2) correction pair excluded."""
    return _cartan_peel(b, "skew", tol)


def _e1(n: int) -> np.ndarray:
    v = np.zeros(n, dtype=np.complex128)
    v[0] = 1.0
    return v


def _pad_line(line, m: int, n: int) -> np.ndarray:
    v = np.asarray(line, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionMismatch("cell line must be a vector")
    if len(v) == m:
        v = np.concatenate([v, np.zeros(n - m, dtype=np.complex128)])
    elif len(v) == n:
        if min_index(v) > m:
            raise DimensionMismatch(f"line is not inside C^{m}")
    else:
        raise DimensionMismatch(f"line length {len(v)} matches neither {m} nor {n}")
    nrm = float(np.linalg.norm(v))
    if nrm <= DEFAULT_TOL.tol_zero:
        raise DimensionMismatch("cell line is zero")
    return v / nrm


def _cell_rotations(symbol: SchubertSymbol, params, klass: str, scale: float) -> list[PseudoRotation]:
    """``A_(-scale T, e_1)`` and the ``A_(scale t_j, L_j)`` of a cell map of
    the class, T the sum of the t_j, with the lines inside C^(m_j) (inside
    C^(2 m_j - 1) for the skew class, and real for the symmetric class)."""
    if symbol.klass != klass:
        name = {"general": "schubert_map", "symmetric": "schubert_map_sy"}.get(klass, "schubert_map_sk")
        raise UnsupportedClass(f"{name} needs a {klass}-class symbol")
    if len(params) != symbol.length:
        raise InvalidSymbol(f"expected {symbol.length} parameters, got {len(params)}")
    n, total, rots = symbol.ambient, 0.0, []
    for m, (t, line) in zip(symbol.entries, params):
        total += float(t)
        v = _pad_line(line, 2 * m - 1 if klass == "skew" else m, n)
        if klass == "symmetric" and float(np.linalg.norm(v.imag)) > DEFAULT_TOL.tol_zero * 100:
            raise PreconditionViolated("symmetric cells need real lines")
        rots.append(PseudoRotation(scale * float(t), v))
    return [PseudoRotation(-scale * total, _e1(n))] + rots


def schubert_map(symbol: SchubertSymbol, params) -> np.ndarray:
    """Forward parametrization of a general Schubert cell.

    ``A_(-2 pi T, e_1) prod_j A_(2 pi t_j, L_j)`` for T the sum of the t_j
    and L_j a line inside C^(m_j); lands in SU_n, and in the open cell of
    ``symbol`` for interior parameters (t_j in (0,1), positive m_j-th
    coordinate).
    """
    rots = _cell_rotations(symbol, params, "general", TAU)
    return functools.reduce(np.matmul, [r.matrix() for r in rots])


def schubert_map_sy(symbol: SchubertSymbol, params) -> np.ndarray:
    """Forward parametrization of a symmetric Schubert cell: the Cartan
    conjugate of the identity by ``A_(-pi T, e_1) prod_j A_(pi t_j, L_j)``
    with real lines L_j inside R^(m_j)."""
    rots = _cell_rotations(symbol, params, "symmetric", np.pi)
    psi = functools.reduce(np.matmul, [r.matrix() for r in rots])
    return psi @ psi.T


def schubert_map_sk(symbol: SchubertSymbol, params) -> np.ndarray:
    """Forward parametrization of a skew Schubert cell inside the Cartan
    model on C^(2n).

    The product ``A_(-2 pi T, e_1) prod_j A_(2 pi t_j, L_j)
    prod_rev_j A_(2 pi t_j, j L_j) A_(-2 pi T, j e_1)`` with lines L_j
    inside C^(2 m_j - 1) is the Cartan conjugate of the identity, hence in
    the model; interior parameters land in the open cell of ``symbol``.
    """
    rots = _cell_rotations(symbol, params, "skew", TAU)
    rots += [PseudoRotation(r.theta, jmul(r.axis)) for r in reversed(rots)]
    return functools.reduce(np.matmul, [r.matrix() for r in rots])


def sample_interior_params(symbol: SchubertSymbol, seed=0) -> list[tuple[float, np.ndarray]]:
    """Seeded interior parameters for the cell of ``symbol``: angles away
    from the cone points and lines with a comfortably positive chart
    coordinate."""
    rng = np.random.default_rng(seed)
    params: list[tuple[float, np.ndarray]] = []
    for m in symbol.entries:
        t = float(rng.uniform(0.15, 0.85))
        if symbol.klass == "symmetric":
            v = rng.standard_normal(m).astype(np.complex128)
        elif symbol.klass == "skew":
            d = 2 * m - 1
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        else:
            v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v[-1] = abs(float(rng.standard_normal())) + 0.3
        v = v / np.linalg.norm(v)
        params.append((t, v))
    return params


def cell_sample(symbol: SchubertSymbol, seed=0) -> np.ndarray:
    """Seeded element of the open cell of ``symbol`` (compact model)."""
    params = sample_interior_params(symbol, seed)
    if symbol.klass == "symmetric":
        return schubert_map_sy(symbol, params)
    if symbol.klass == "skew":
        return schubert_map_sk(symbol, params)
    return schubert_map(symbol, params)


def cartan_model_sample(n: int, klass: str, seed=0) -> np.ndarray:
    """Seeded element of the compact Cartan model: a Haar special unitary,
    or its Cartan conjugate of the identity (``U U^T`` respectively
    ``U J U^T J^-1``)."""
    check_class(klass)
    u = haar_sample(n, "special_unitary", seed)
    if klass == "general":
        return u
    if klass == "symmetric":
        return u @ u.T
    if n % 2 != 0:
        raise DimensionMismatch("the skew model needs an even dimension")
    j = jn(n // 2)
    return u @ j @ u.T @ (-j)


def embed(f: OrderedFactorization, n_new: int) -> OrderedFactorization:
    """Include a factorization in the next tower level by padding axes with
    zeros; the symbol is unchanged."""
    step = 2 if f.klass == "skew" else 1
    if n_new != f.ambient + step:
        raise DimensionMismatch(
            f"target dimension must be {f.ambient + step} for class {f.klass}"
        )

    def pad(rot: PseudoRotation) -> PseudoRotation:
        ax = np.concatenate([rot.axis, np.zeros(n_new - f.ambient, dtype=np.complex128)])
        return PseudoRotation.of_canonical(rot.theta, ax)

    return replace(f, ambient=n_new, factors=tuple(pad(r) for r in f.factors),
                   correction=None if f.correction is None else pad(f.correction))
