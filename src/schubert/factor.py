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
boundary-ambiguous.  For a lower cell one QR of W - I, its rows ordered
by the peel's min-indices, certifies that profile when its margins are
clear; otherwise the profile is computed, one SVD per trailing block.
The symmetric and skew-symmetric Cartan models carry analogous unique
factorizations, which the same row loop reads off by iterated Cartan
conjugation: one half-angle real-axis factor per row for the symmetric
class, one quaternionic pair ``(A, sigma(A*))`` per even row for the skew
class, each removed from both sides of W.  The axes read are conjugated
by the half factors below them; they are un-conjugated working up from
the lowest, canonicalised in one call, and flagged against the rank
profile of W - I as in the general engine.

The ``schubert_map*`` functions are the forward cell parametrizations;
together with the factorization engines they form the round-trip oracles
used throughout the test suite.
"""
from __future__ import annotations

import cmath
import functools
import math
import operator
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
    fro_norm,
    haar_sample,
    jn,
)
from .rotor import (
    TAU,
    PseudoRotation,
    apply,  # noqa: F401  (a lookup point of perfbench/tracer.py)
    canonical_angle,
    canonical_axis,
    jmul,
    min_index,
    min_indices,
    model_element,
    product_matrix,
    _sigma,
)
from .tolerances import DEFAULT_TOL, GRAY_SPAN, ToleranceConfig, in_gray_zone


def validate_symbol_entries(entries: Sequence[int], ambient: int, klass: str) -> tuple[int, ...]:
    cohom.check_class(klass)
    try:
        ambient = operator.index(ambient)
    except TypeError:
        raise InvalidSymbol(f"ambient dimension must be an integer, got {ambient!r}") from None
    if ambient < (2 if klass == "skew" else 1):
        raise InvalidSymbol(f"ambient dimension {ambient} is too small for the {klass} class")
    if klass == "skew" and ambient % 2 != 0:
        raise InvalidSymbol("skew symbols need an even ambient dimension")
    out = cohom.check_entries(entries)
    top = ambient // 2 if klass == "skew" else ambient
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

    def dim(self) -> int:
        return cohom.cell_dim(self.entries, self.klass)

    def __str__(self) -> str:
        return "(" + ",".join(str(m) for m in self.entries) + ")"


@dataclass(frozen=True)
class OrderedFactorization:
    """A product of pseudo-rotations with monotone min-indices.

    ``factors`` holds the symbol-carrying rotations in product order, and
    ``min_indices`` their axes' min-indices in the same order, as the
    engine read them at its tolerance; the symbol is read off that tuple
    and not off the axes again.  ``correction`` is the optional leading
    min-index-1 factor of an increasing factorization (a decreasing one ends
    with that factor among ``factors``, and its 1 among ``min_indices``).
    For the symmetric class the factors are the half-angle rotations C_j and
    the matrix is ``P P^T`` for P the plain product; for the skew class they
    are the quaternionic half factors, each min-index odd, and the matrix is
    ``P sigma(P*)``.
    """

    klass: str
    ambient: int
    factors: tuple[PseudoRotation, ...]
    min_indices: tuple[int, ...]
    correction: Optional[PseudoRotation] = None
    residual: float = 0.0
    boundary_ambiguous: bool = False

    def all_factors(self) -> list[PseudoRotation]:
        """Factors in product order, correction included."""
        return list(self.factors) if self.correction is None else [self.correction, *self.factors]

    def matrix(self) -> np.ndarray:
        return _model_matrix(product_matrix(self.all_factors(), self.ambient), self.klass)

    def symbol(self) -> SchubertSymbol:
        mins = sorted(self.min_indices)
        if self.klass == "skew":
            entries = tuple((m + 1) // 2 for m in mins)
        else:
            entries = tuple(m for m in mins if m > 1)
        return SchubertSymbol(entries, self.ambient, self.klass)


def _model_matrix(p: np.ndarray, klass: str) -> np.ndarray:
    """The class's matrix of the plain product P of the factors: P, P P^T,
    or P sigma(P*)."""
    if klass == "general":
        return p
    if klass == "symmetric":
        return p @ p.T
    return p @ _sigma(p.conj().T, "skew")


def _peel_rows(
    w: np.ndarray, tol: ToleranceConfig, klass: str = "general"
) -> tuple[np.ndarray, np.ndarray, list[int], float, bool]:
    """Peel the factors with min-index >= 2 off the unitary ``w`` of the
    class, reading each from the bottom row it still moves.

    Row j reads a factor A(theta, x) with x on C^j.  Rows below j that a
    factor moves and no later factor touches are multiples of the same
    axis; the angle is fitted over all of them, which keeps it well
    conditioned when the pivot of row j is small but the line has weight in
    those rows.  The axis is snapped, and then the class removes the factor:
    - general: off the right, by a rank-1 update of the rows not yet read;
    - symmetric: the half factor A(phi, y), phi = theta / 2 and y = conj(x),
      two-sided, ``w <- A(-phi, y) w A(-phi, y)^T``;
    - skew: only the even rows are read, x must not move coordinate j - 1,
      and the pair A(theta, y) A(theta, x), y = -j x on C^(j - 1), is removed
      by ``w <- A(-theta, y) w A(-theta, x)``.  Row j - 1 must then be
      e_(j-1): a deviation above ``tol.structure`` raises.

    Returns the angles and axes of the factors, stacked in product order,
    with the rows they were read for (j - 1 for a skew pair); the angle left
    at ``w[0, 0]``; and whether a row deviation, a pivot coordinate, a skew
    pair's leftover or that angle landed in its gray zone.  A general axis
    is the snapped x, a Cartan axis the y conjugated by the half factors
    before it; neither is canonical yet.
    """
    n, angle, snap = w.shape[0], tol.tol_angle, tol.axis_snap
    w = w.copy()
    gray, skew = False, klass == "skew"
    # entry i holds the factor of row i + 1, if any
    thetas, axes, read = np.zeros(n), np.zeros((n, n), dtype=np.complex128), np.zeros(n, dtype=bool)
    for j in range(n, 1, -2 if skew else -1):
        dev = -np.conj(w[j - 1, :j])
        dev[j - 1] += 1.0
        d = math.sqrt(np.vdot(dev, dev).real)
        gray = gray or in_gray_zone(d, angle)
        if d < angle:
            continue
        x = dev / d
        gray = gray or in_gray_zone(abs(x[j - 1]), snap, span=4.0)
        # row r carries conj(1 - e^(i theta)) conj(x_r) x while it is a
        # multiple of x; fit conj(1 - e^(i theta)) over those rows
        num, den = x[j - 1] * d, abs(x[j - 1]) ** 2
        for r in range(j - 1, 1, -1):
            dr = -np.conj(w[r - 1, :j])
            dr[r - 1] += 1.0
            cr = np.vdot(x, dr)
            dr -= cr * x
            if math.sqrt(np.vdot(dr, dr).real) >= angle:
                break
            num += x[r - 1] * cr
            den += abs(x[r - 1]) ** 2
        if not den:
            raise ConvergenceFailure(f"row {j} deviates by {d:.3g} off its zero pivot")
        theta = -cmath.phase(1.0 - num / den)
        x *= np.abs(x) > snap  # x is a unit vector
        x /= math.sqrt(np.vdot(x, x).real)
        if klass == "general":
            rows = w[: j - 1, :j]
            rows -= ((rows @ x) * (1.0 - cmath.exp(-1j * theta)))[:, None] * x.conj()
            y = x
        else:
            if klass == "symmetric":
                theta, y = canonical_angle(theta) / 2.0, x.conj()
            elif x[j - 2]:
                raise StructureViolation(f"the axis of row {j} moves coordinate {j - 1}")
            else:
                y = -jmul(x)
            a, block = 1.0 - cmath.exp(-1j * theta), w[:j, :j]
            block -= np.outer(a * y, y.conj() @ block)
            block -= np.outer(block @ x, a * x.conj())
        if skew:  # the pair's row j - 1 is now e_(j-1), up to its leftover
            odd = -np.conj(w[j - 2, : j - 1])
            odd[j - 2] += 1.0
            e = math.sqrt(np.vdot(odd, odd).real)
            if e > tol.structure:
                raise StructureViolation(f"row {j - 1} deviates by {e:.3g} after its pair")
            gray = gray or in_gray_zone(e, angle)
        i = j - 1 - skew  # a skew pair belongs to row j - 1
        thetas[i], axes[i, :j], read[i] = theta, y, True
    phi = float(np.angle(w[0, 0]))
    gray = gray or in_gray_zone(phi, angle)
    return thetas[read], axes[read], (np.flatnonzero(read) + 1).tolist(), phi, gray


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


def _certifies(d: np.ndarray, mins: list[int], tau: float) -> bool:
    """Whether one QR of the rows 2..n of ``d = W - I`` proves that
    ``_rank_profile`` returns exactly ``(mins, False)``.

    Why this is exact.  The rows S = ``mins`` are taken bottom-up, then the
    other rows N of 2..n bottom-up, and D[order]* = Q R with
    R = [[R_SS, R_SN], [0, R_NN]].  The rows j..n of D, the block B_j, are
    the first rows of S and of N in that order, so B_j Q = A + E: A holds
    the S rows of B_j, which are rows of R_SS*, and the components of its N
    rows along those S rows' directions; E holds the rest of the N rows,
    entries of R_NN and components along S rows above them, so ||E|| <= e,
    the norm of R_NN and of the entries of R_SN whose S row lies above its
    N row.  The nonzero part of A has k_j = |S and [j, n]| columns and
    contains a leading k_j x k_j block L of R_SS*, so A has k_j singular
    values of at least sigma_min(L) and the rest 0; L^-1 is a block of
    R_SS^-*, so sigma_min(L) >= sigma = sigma_min(R_SS).  By Weyl, B_j has
    k_j singular values >= sigma - e >= 2 GRAY_SPAN tau and the rest
    <= e <= tau / (2 GRAY_SPAN).  So every block has rank k_j, no block has
    a value in the gray zone (tau / GRAY_SPAN, GRAY_SPAN tau), and the SVD
    loop stops at the same block.  Rounding is about 1e-14 and the margins
    are a factor 2, so it cannot flip a decision.
    """
    if 1 in mins:  # the profile never holds a min-index of 1
        return False
    n, k = d.shape[0], len(mins)
    rest = [j for j in range(n, 1, -1) if j not in mins]
    # the QR of D[order]^T: its R is the conjugate of the one above, same moduli
    r = np.linalg.qr(d[np.array(mins[::-1] + rest) - 1].T, mode="r")
    r[:k, k:] *= np.less.outer(mins[::-1], rest)  # keep S rows s above N rows t
    e = fro_norm(r[:, k:])
    if e > tau / (2 * GRAY_SPAN):
        return False
    return not k or bool(np.linalg.svd(r[:k, :k], compute_uv=False)[-1] >= 2 * GRAY_SPAN * tau + e)


def _profile_flag(w: np.ndarray, mins: list[int], tol: ToleranceConfig) -> bool:
    """Whether the rank profile of W - I differs from ``mins`` or was decided
    in a gray zone.  For a lower cell one QR first tries to prove that it
    does neither (``_certifies``); only when it cannot are the trailing
    blocks' SVDs taken.  When ``mins`` is 3..n the SVD loop stops at its
    second block if the certificate would hold, so the certificate could
    only trade one SVD for its QR, and the profile is taken directly."""
    n = w.shape[0]
    if (len(mins) < n - 1 and mins != list(range(3, n + 1))
            and _certifies(w - np.eye(n), mins, tol.tol_angle)):
        return False
    profile, gray = _rank_profile(w, tol)
    return gray or profile != mins


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
    the profile, or when a singular value of the profile, a row deviation,
    a pivot coordinate or the correction angle lands in the gray zone of
    its threshold.  The top cell is settled by the first SVD of the
    profile.  For a lower cell, one QR of W - I first tries to prove that
    the profile equals the peel's min-indices with no value in a gray zone
    (``_certifies``); only when it cannot are the trailing blocks' SVDs
    taken.
    """
    b = FiberElement.of_unitary(b, tol).matrix
    n = b.shape[0]
    u, _, vh = np.linalg.svd(b)
    w = u @ vh
    thetas, axes, _, phi, gray = _peel_rows(w, tol)
    axes = canonical_axis(axes, tol)
    mins = min_indices(axes, tol).tolist()
    if any(y <= x for x, y in zip(mins, mins[1:])):
        raise ConvergenceFailure(f"row peeling left non-monotone indices {mins}")
    flag = gray or _profile_flag(w, mins, tol)
    factors = tuple(map(PseudoRotation.of_canonical, thetas, axes))
    correction = PseudoRotation.of_canonical(phi, _e1(n)) if abs(phi) >= tol.tol_angle else None
    p = product_matrix(factors if correction is None else [correction, *factors], n)
    residual = fro_norm(p - b)
    if residual > tol.structure * n:
        raise ConvergenceFailure(f"reconstruction residual {residual:.3g} too large")
    return OrderedFactorization("general", n, factors, tuple(mins), correction, residual, flag)


def factorize_decreasing(b, tol: ToleranceConfig = DEFAULT_TOL) -> OrderedFactorization:
    """Ordered factorization with decreasing min-indices.

    Obtained by factorizing B^-1 in increasing order and inverting each
    factor; the min-index-1 factor, when present, stays explicit at the
    right end of the product.  The residual is that of B^-1, since
    ``||P^-1 - B||_F = ||P - B^-1||_F`` for a unitary product P.
    """
    inc = factorize_su(FiberElement.of_unitary(b, tol).adjoint(), tol)
    return OrderedFactorization(
        klass="general",
        ambient=inc.ambient,
        factors=tuple(f.inverse() for f in reversed(inc.all_factors())),
        min_indices=inc.min_indices[::-1] + (() if inc.correction is None else (1,)),
        residual=inc.residual,
        boundary_ambiguous=inc.boundary_ambiguous,
    )


def _cartan_peel(b, klass: str, tol: ToleranceConfig) -> OrderedFactorization:
    """Increasing factorization of a symmetric or skew Cartan model element
    by iterated Cartan conjugation, peeled two-sided off its unitary polar
    factor W.

    ``_peel_rows`` reads each half factor (symmetric) or quaternionic pair
    (skew) off one row of W, highest min-index first, and removes it from
    both sides.  The axis it reads is y_i = R_(i-1) x_i, x_i conjugated by
    the product R_(i-1) of the half factors below it, the symmetric
    correction A(phi / 2, e_1) first; the skew correction pair is read off
    row 2.  Working up from the lowest, x_i = R_(i-1)* y_i (a symmetric one
    then as the real part left by stripping the phase of its largest
    coordinate), snapped, and R_i = R_(i-1) A(theta_i, x_i) by one rank-1
    update.  So R ends as the product P of the halves, and P P^T, or
    P sigma(P*), is the one reconstruction.  The axes are canonicalised in
    one call, and their min-indices must be the rows read.  The result is
    flagged when a decision of the peel landed in its gray zone, or when
    the rank profile of W - I (``_certifies`` or ``_rank_profile``)
    differs from the rows read, both rows of a skew pair and min-index 1
    left out.
    """
    b = model_element(b, klass, tol).matrix
    n = b.shape[0]
    u, _, vh = np.linalg.svd(b)
    w = u @ vh
    thetas, axes, rows, phi, gray = _peel_rows(w, tol, klass)
    if klass == "symmetric" and abs(phi) >= tol.tol_angle:
        thetas, axes, rows = np.r_[phi / 2.0, thetas], np.vstack([_e1(n), axes]), [1, *rows]
    r, snap = np.eye(n, dtype=np.complex128), tol.axis_snap
    for i, y in enumerate(axes):
        x = (y.conj() @ r).conj()  # R_(i-1)^-1 y_i = R_(i-1)* y_i
        if klass == "symmetric":
            p = x[np.abs(x).argmax()]
            x = x * (p.conjugate() / abs(p))
            imag = math.sqrt(np.vdot(x.imag, x.imag).real)
            if imag > 100.0 * tol.tol_residual:
                raise RealAxisExtractionFailure(f"imaginary residual {imag:.3g} on a symmetric-model axis")
            x = x.real
        x = x * (np.abs(x) > snap * math.sqrt(np.vdot(x, x).real))
        axes[i] = x = x / math.sqrt(np.vdot(x, x).real)
        r -= ((r @ x) * (1.0 - cmath.exp(1j * thetas[i])))[:, None] * x.conj()
    axes = canonical_axis(axes, tol)
    mins = min_indices(axes, tol).tolist()
    if mins != rows:
        raise ConvergenceFailure(f"half factors with min-indices {mins} read off rows {rows}")
    moved = [m for k in rows for m in ((k, k + 1) if klass == "skew" else (k,)) if m > 1]
    start = int(rows[:1] == [1])
    halves = tuple(map(PseudoRotation.of_canonical, thetas[start:], axes[start:]))
    correction = PseudoRotation.of_canonical(thetas[0], _e1(n)) if start else None
    residual = fro_norm(_model_matrix(r, klass) - b)
    if residual > tol.structure * n:
        raise ConvergenceFailure(f"{klass} reconstruction residual {residual:.3g}")
    return OrderedFactorization(klass, n, halves, tuple(rows[start:]), correction, residual,
                                gray or _profile_flag(w, moved, tol))


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
    if len(v) not in (m, n):
        raise DimensionMismatch(f"line length {len(v)} matches neither {m} nor {n}")
    padded = np.concatenate([v, np.zeros(n - len(v), dtype=np.complex128)])
    nrm = float(np.linalg.norm(padded))
    if nrm <= DEFAULT_TOL.tol_zero:
        raise DimensionMismatch("cell line is zero")
    if len(v) > m and min_index(v) > m:
        raise DimensionMismatch(f"line is not inside C^{m}")
    return padded / nrm


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
    cohom.check_class(klass)
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
