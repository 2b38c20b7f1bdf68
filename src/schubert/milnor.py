"""Cell identification in the global Milnor fibers.

The fibers are det^-1(1) on general / symmetric matrices and Pf^-1(1) on
skew-symmetric matrices.  Each identification pipeline transports the
input to the compact Cartan model, runs the class-specific ordered
factorization there, and returns the Schubert symbol together with the
witnesses needed to reproduce the transport.

Transport works in three tiers.  Inputs already in the compact model are
factorized directly.  Otherwise the solvable dressing is inverted exactly
where the product structure of the fiber makes that well-posed: for the
general class the Iwasawa splitting itself; for the symmetric class a
congruence by the real solvable group (the matrix ``W = conj(B)^-1 B``
equals ``E^-1 A^2 E`` for a real-dressed ``B = E^T A E``, so its
eigenvectors recover E up to scales fixed by a quarter-root correction);
for the skew class the analogous quaternionic-solvable undressing through
``sigma(B)^-1 B``.  When no such representative exists within tolerance,
the congruence-normalization pipeline (diagonalize the form, Iwasawa-split
the normalizer) supplies a valid decomposition; its symbol is that of a
generic representative.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import cohom
from .errors import PreconditionViolated
from .factor import (
    OrderedFactorization,
    SchubertSymbol,
    cell_sample,
    factorize_skew,
    factorize_su,
    factorize_symmetric,
    sample_interior_params,
    schubert_map,
)
from .numlin import (
    FiberElement,
    as_square_matrix,
    diagonalize_quadratic_form,
    is_solvable_factor,
    is_unitary,  # noqa: F401  (a lookup point of perfbench/tracer.py)
    iwasawa_split,
    jn,
    near_one,
    normalize_skew_form,
    quaternionic_solvable_sample,
    real_solvable_sample,
    solvable_sample,
    validated,
)
from .rotor import check_class, jmul
from .tolerances import DEFAULT_TOL, ToleranceConfig


@dataclass(frozen=True)
class CellIdentification:
    """Result of a cell identification.

    ``compact_part`` lies in the Cartan model and carries the symbol;
    ``witness`` is the solvable / congruence factor; the composition law is
    ``compact . witness`` for the general class and
    ``witness^T . compact . witness`` otherwise.  ``residual`` measures the
    reconstruction error of that law against the input.
    """

    symbol: SchubertSymbol
    compact_part: np.ndarray
    witness: np.ndarray
    residual: float
    boundary_ambiguous: bool
    factorization: OrderedFactorization

    @classmethod
    def of(cls, fact: OrderedFactorization, compact, witness, b, tol) -> "CellIdentification":
        """The identification of ``b`` by ``fact``, with its residual."""
        cid = cls(fact.symbol(tol), compact, witness, 0.0, fact.boundary_ambiguous, fact)
        return replace(cid, residual=float(np.linalg.norm(cid.reconstruction() - b)))

    def reconstruction(self) -> np.ndarray:
        if self.symbol.klass == "general":
            return self.compact_part @ self.witness
        return self.witness.T @ self.compact_part @ self.witness


def identify_general(b, tol: ToleranceConfig = DEFAULT_TOL) -> CellIdentification:
    """Schubert cell of an element of SL_n: Iwasawa-split B = A . C and
    factorize the special unitary part."""
    elem = b if validated(b, "general", "symmetric") else FiberElement(b, "general", tol)
    parts = iwasawa_split(elem, tol)
    fact = factorize_su(parts.unitary, tol)
    return CellIdentification.of(fact, parts.unitary, parts.solvable, elem.matrix, tol)


def _unit_eig_clusters(w_mat: np.ndarray, gate: float):
    """Eigen clusters of a matrix similar to a unitary one, sorted by angle.

    Returns None when the spectrum is not unit-modulus within ``gate``.
    """
    vals, vecs = np.linalg.eig(w_mat)
    if np.max(np.abs(np.abs(vals) - 1.0)) > gate:
        return None
    order = np.argsort(np.angle(vals), kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    ang = np.angle(vals)
    groups = [[0]]
    for i in range(1, len(vals)):
        if ang[i] - ang[groups[-1][-1]] < gate:
            groups[-1].append(i)
        else:
            groups.append([i])
    if len(groups) > 1 and (ang[groups[0][0]] + 2 * np.pi) - ang[groups[-1][-1]] < gate:
        groups[-1].extend(groups.pop(0))
    return [vecs[:, g] for g in groups]


def _chol_witness(v: np.ndarray) -> np.ndarray:
    """Upper-triangular positive-diagonal E with E* E = (V V*)^-1."""
    g = np.linalg.inv(v @ v.conj().T)
    g = 0.5 * (g + g.conj().T)
    return np.linalg.cholesky(g).conj().T


def _spd_inv_quarter(blk: np.ndarray) -> np.ndarray:
    w, q = np.linalg.eigh(0.5 * (blk + blk.conj().T))
    if np.any(w <= 0):
        raise np.linalg.LinAlgError("scale correction block not positive")
    return q @ np.diag(w ** -0.25) @ q.conj().T


def _scaled_witness(b: np.ndarray, blocks: list, scale_form) -> np.ndarray:
    """The Cholesky witness of the eigenbasis ``blocks`` once each block is
    rescaled by the inverse quarter root of its diagonal block of
    ``scale_form(U0, A0)`` (U0, A0 from the unscaled witness)."""
    v = np.hstack(blocks)
    e0 = _chol_witness(v)
    e0inv = np.linalg.inv(e0)
    s_mat = scale_form(e0 @ v, e0inv.T @ b @ e0inv)
    idx = 0
    fixed = []
    for x in blocks:
        d = x.shape[1]
        fixed.append(v[:, idx : idx + d] @ _spd_inv_quarter(s_mat[idx : idx + d, idx : idx + d]))
        idx += d
    return _chol_witness(np.hstack(fixed))


def undress_symmetric(b, tol: ToleranceConfig = DEFAULT_TOL):
    """Invert a real-solvable congruence dressing of a symmetric fiber point.

    For ``B = E^T A E`` with E real solvable and A in the compact model,
    ``W = conj(B)^-1 B = E^-1 A^2 E`` has real eigenvectors; the Cholesky
    factor of ``(V V^T)^-1`` recovers E once per-cluster scales are fixed by
    the quarter root of ``U0^T (A0 conj(A0)) U0``.  Returns (compact,
    witness) or None when B admits no such representative.
    """
    b = as_square_matrix(b)
    n = b.shape[0]
    gate = 1e-6
    try:
        clusters = _unit_eig_clusters(np.linalg.inv(np.conj(b)) @ b, gate)
        if clusters is None:
            return None
        blocks = []
        for x in clusters:
            d = x.shape[1]
            u_svd, s_svd, _ = np.linalg.svd(np.hstack([x.real, x.imag]), full_matrices=False)
            if s_svd[d - 1] <= gate or (s_svd[d:].size and s_svd[d] > s_svd[d - 1] * gate * 1e3):
                return None  # the span carries no d-dimensional real structure
            blocks.append(u_svd[:, :d].astype(np.complex128))
        e = _scaled_witness(b, blocks, lambda u0, a0: u0.T @ (a0 @ np.conj(a0)) @ u0)
        e = e.real.astype(np.complex128)
        einv = np.linalg.inv(e)
        compact = einv.T @ b @ einv
    except np.linalg.LinAlgError:
        return None
    scale = max(1.0, float(np.linalg.norm(b)))
    ok = (
        np.linalg.norm(compact @ compact.conj().T - np.eye(n)) <= tol.structure * n
        and near_one(np.linalg.det(e), tol)
        and np.linalg.norm(e.T @ compact @ e - b) <= tol.structure * scale
    )
    return (compact, e) if ok else None


def undress_skew(b, tol: ToleranceConfig = DEFAULT_TOL):
    """Invert a quaternionic-solvable congruence dressing of a skew fiber
    point.

    For ``B = E^T A E`` with sigma-fixed solvable E and skew-unitary A,
    ``W = sigma(B)^-1 B`` is a triangular conjugate of a unitary matrix
    whose eigenspaces are j-invariant; a j-paired eigenbasis, the Cholesky
    factor of ``(V V*)^-1`` and the quarter root of ``-J (U0^T (A0 A0*)
    conj(U0)) J`` recover E.  Returns (compact, witness) or None.
    """
    b = as_square_matrix(b)
    n = b.shape[0]
    if n % 2 != 0:
        return None
    j = jn(n // 2)
    gate = 1e-6
    try:
        sigma_b = j @ np.conj(b) @ (-j)
        clusters = _unit_eig_clusters(np.linalg.inv(sigma_b) @ b, gate)
        if clusters is None:
            return None
        blocks = []
        for x in clusters:
            if x.shape[1] % 2 != 0:
                return None
            basis: list[np.ndarray] = []
            for i in range(x.shape[1]):
                w = x[:, i].copy()
                if basis:
                    bmat = np.column_stack(basis)
                    coef, *_ = np.linalg.lstsq(bmat, w, rcond=None)
                    w = w - bmat @ coef
                if np.linalg.norm(w) < gate:
                    continue
                w = w / np.linalg.norm(w)
                basis.append(w)
                basis.append(-jmul(w))
            if len(basis) != x.shape[1]:
                return None
            blocks.append(np.column_stack(basis))
        e = _scaled_witness(
            b, blocks, lambda u0, a0: -j @ (u0.T @ (a0 @ a0.conj().T) @ np.conj(u0)) @ j)
        einv = np.linalg.inv(e)
        compact = einv.T @ b @ einv
    except np.linalg.LinAlgError:
        return None
    scale = max(1.0, float(np.linalg.norm(b)))
    ok = (
        np.linalg.norm(compact @ compact.conj().T - np.eye(n)) <= tol.structure * n
        and np.linalg.norm(compact + compact.T) <= tol.structure * n
        and near_one(np.linalg.det(e), tol)
        and np.linalg.norm(e.T @ compact @ e - b) <= tol.structure * scale
    )
    return (compact, e) if ok else None


def identify_symmetric(b, tol: ToleranceConfig = DEFAULT_TOL) -> CellIdentification:
    """Schubert cell of a symmetric fiber element.

    A compact-model input is factorized in place; otherwise the
    real-solvable dressing is inverted when possible, and failing that the
    form is diagonalized (C^T B C = I), C^-1 = A . E Iwasawa-split and the
    Cartan model point A^T A factorized.  In every branch
    B = E^T compact E within tolerance.
    """
    elem = b if validated(b, "symmetric") else FiberElement(b, "symmetric", tol)
    mat = elem.matrix
    n = mat.shape[0]
    if elem.unitary:
        compact, e = mat, np.eye(n, dtype=np.complex128)
    else:
        found = undress_symmetric(mat, tol)
        if found is not None:
            compact, e = found
        else:
            c = diagonalize_quadratic_form(elem, tol)
            parts = iwasawa_split(np.linalg.inv(c), tol)
            compact, e = parts.unitary.T @ parts.unitary, parts.solvable
    fact = factorize_symmetric(elem if elem.unitary else compact, tol)
    return CellIdentification.of(fact, compact, e, mat, tol)


def identify_skew(b, tol: ToleranceConfig = DEFAULT_TOL) -> CellIdentification:
    """Schubert cell of a skew-symmetric fiber element (Pf = 1).

    A compact-model input is factorized in place; otherwise the
    quaternionic-solvable dressing is inverted when possible, and failing
    that the form is normalized (C^T B C = J), C^-1 = A . E Iwasawa-split
    and the model point (A^T J A) J^-1 factorized.  In every branch
    B = E^T compact E within tolerance.
    """
    elem = b if validated(b, "skew") else FiberElement(b, "skew", tol)
    mat = elem.matrix
    n = mat.shape[0]
    j = jn(n // 2)
    if elem.unitary:
        compact, e = mat, np.eye(n, dtype=np.complex128)
    else:
        found = undress_skew(mat, tol)
        if found is not None:
            compact, e = found
        else:
            c = normalize_skew_form(elem, tol)
            parts = iwasawa_split(np.linalg.inv(c), tol)
            compact, e = parts.unitary.T @ j @ parts.unitary, parts.solvable
    fact = factorize_skew(compact @ (-j), tol)  # J^-1 = -J
    return CellIdentification.of(fact, compact, e, mat, tol)


def identify(b, klass: str, tol: ToleranceConfig = DEFAULT_TOL) -> CellIdentification:
    check_class(klass)
    if klass == "general":
        return identify_general(b, tol)
    if klass == "symmetric":
        return identify_symmetric(b, tol)
    return identify_skew(b, tol)


@dataclass(frozen=True)
class SolInvarianceReport:
    """Symbols before and after acting by a solvable witness."""

    symbol: SchubertSymbol
    symbol_after: SchubertSymbol

    @property
    def equal(self) -> bool:
        return self.symbol.entries == self.symbol_after.entries


def sol_invariance_check(
    b, e, klass: str, tol: ToleranceConfig = DEFAULT_TOL
) -> SolInvarianceReport:
    """Check the symbol is invariant under the solvable-group action:
    right multiplication B . E for the general class, the congruence
    E^T . B . E for the symmetric and skew classes.

    For the congruence classes the cells are preserved by the subgroup of
    :func:`dressing_sample` (real solvable, respectively quaternionic
    solvable); a witness outside it can genuinely move the cell.
    """
    e = as_square_matrix(e)
    if not is_solvable_factor(e, tol):
        raise PreconditionViolated("E must be upper triangular, positive diagonal, det 1")
    before = identify(b, klass, tol)
    mat = as_square_matrix(b)
    moved = mat @ e if klass == "general" else e.T @ mat @ e
    after = identify(moved, klass, tol)
    return SolInvarianceReport(symbol=before.symbol, symbol_after=after.symbol)


@dataclass(frozen=True)
class ClosureProductReport:
    """Numeric check of the cell-product laws for two sampled general cells."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    product_symbol: tuple[int, ...]
    disjoint: bool
    expected_merge: Optional[tuple[int, ...]]
    dim_bound: Optional[int]
    passed: bool


def closure_product_check(
    m, mp, n: int, seed: int = 0, tol: ToleranceConfig = DEFAULT_TOL
) -> ClosureProductReport:
    """Sample interior points of two general cells and test the product law:
    disjoint symbols multiply into the merged cell, overlapping symbols drop
    the product cell dimension by at least 2."""
    sym1 = SchubertSymbol(tuple(m), n, "general")
    sym2 = SchubertSymbol(tuple(mp), n, "general")
    rng = np.random.default_rng(seed)
    p = schubert_map(sym1, sample_interior_params(sym1, rng), tol)
    q = schubert_map(sym2, sample_interior_params(sym2, rng), tol)
    prod_symbol = factorize_su(p @ q, tol).symbol(tol).entries
    disjoint = not (set(sym1.entries) & set(sym2.entries))
    expected = bound = None
    if disjoint:
        expected = cohom.merge_symbols(sym1.entries, sym2.entries)
    else:
        bound = cohom.cell_dim(sym1.entries) + cohom.cell_dim(sym2.entries) - 2
    return ClosureProductReport(
        left=sym1.entries,
        right=sym2.entries,
        product_symbol=prod_symbol,
        disjoint=disjoint,
        expected_merge=expected,
        dim_bound=bound,
        passed=prod_symbol == expected if disjoint else cohom.cell_dim(prod_symbol) <= bound,
    )


def dressing_sample(n: int, klass: str, seed=0) -> np.ndarray:
    """Seeded element of the cell-preserving solvable group of the class:
    the full complex Sol_n for the general class (acting on the right), the
    real solvable group for the symmetric class and the quaternionic
    solvable group for the skew class (both acting by congruence)."""
    check_class(klass)
    if klass == "general":
        return solvable_sample(n, seed)
    if klass == "symmetric":
        return real_solvable_sample(n, seed)
    return quaternionic_solvable_sample(n, seed)


def fiber_sample(symbol: SchubertSymbol, seed=0, dress: bool = False,
                 tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Seeded fiber element in the cell of ``symbol``.

    Without dressing this is the compact-model point itself (for the skew
    class, multiplied by J to give an actual skew matrix); with dressing a
    class-appropriate solvable witness moves it off the compact model
    within its cell.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    point = cell_sample(symbol, rng, tol)
    if symbol.klass == "skew":
        point = point @ jn(symbol.ambient // 2)
    if not dress:
        return point
    e = dressing_sample(symbol.ambient, symbol.klass, rng)
    if symbol.klass == "general":
        return point @ e
    return e.T @ point @ e
