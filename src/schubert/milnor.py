"""Cell identification in the global Milnor fibers.

The fibers are det^-1(1) on general / symmetric matrices and Pf^-1(1) on
skew-symmetric matrices.  Each identification transports the input to the
compact Cartan model, runs the class-specific ordered factorization there,
and returns the Schubert symbol with the witnesses of the transport.  The
general class is transported by its Iwasawa splitting B = A . E.  The
symmetric and skew classes share one congruence transport, written once for
the class form F (I, respectively J) and the Cartan involution
sigma(X) = F conj(X) F^-1, in three tiers:

* compact: an input in the compact model is factorized in place;
* undressed: a congruence dressing B = E^T A E by the real, respectively
  quaternionic, solvable group, which sigma fixes, is inverted exactly from
  the eigen-clusters of sigma(B)^-1 B = E^-1 sigma(A)^-1 A E (``_undress``);
* congruence fallback: the form is normalized (C^T B C = F), C^-1 = A . E
  Iwasawa-split and the model point A^T F A factorized.

Only the adapted eigenbasis, the real projection of the symmetric witness,
the skew check of the compact part, the normalizer and the engine differ.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import cohom
from .errors import OddDimension, PreconditionViolated
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
from .rotor import check_class, jmul, sigma
from .tolerances import DEFAULT_TOL, ToleranceConfig


def _compose(compact, witness, klass: str) -> np.ndarray:
    """The class's composition law: ``compact . witness`` for the general
    class, the congruence ``witness^T . compact . witness`` otherwise."""
    return compact @ witness if klass == "general" else witness.T @ compact @ witness


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
        return _compose(self.compact_part, self.witness, self.symbol.klass)


def identify_general(b, tol: ToleranceConfig = DEFAULT_TOL) -> CellIdentification:
    """Schubert cell of an element of SL_n: Iwasawa-split B = A . C and
    factorize the special unitary part."""
    elem = b if validated(b, "general", "symmetric") else FiberElement(b, "general", tol)
    parts = iwasawa_split(elem, tol)
    fact = factorize_su(parts.unitary, tol)
    return CellIdentification.of(fact, parts.unitary, parts.solvable, elem.matrix, tol)


_UNDRESS_GATE = 1e-6  # unit-modulus, eigen-cluster and basis-rank gate of exact undressing


def _unit_eig_clusters(w_mat: np.ndarray):
    """Eigen clusters of a matrix similar to a unitary one, sorted by angle.

    Returns None when the spectrum is not unit-modulus within the gate.
    """
    vals, vecs = np.linalg.eig(w_mat)
    if np.max(np.abs(np.abs(vals) - 1.0)) > _UNDRESS_GATE:
        return None
    order = np.argsort(np.angle(vals), kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    ang = np.angle(vals)
    groups = [[0]]
    for i in range(1, len(vals)):
        if ang[i] - ang[groups[-1][-1]] < _UNDRESS_GATE:
            groups[-1].append(i)
        else:
            groups.append([i])
    if len(groups) > 1 and (ang[groups[0][0]] + 2 * np.pi) - ang[groups[-1][-1]] < _UNDRESS_GATE:
        groups[-1].extend(groups.pop(0))
    return [vecs[:, g] for g in groups]


def _real_basis(x: np.ndarray):
    """Real orthonormal basis of the span of the cluster ``x``, or None if none."""
    d = x.shape[1]
    u, s, _ = np.linalg.svd(np.hstack([x.real, x.imag]), full_matrices=False)
    if s[d - 1] <= _UNDRESS_GATE or (s[d:].size and s[d] > s[d - 1] * _UNDRESS_GATE * 1e3):
        return None
    return u[:, :d].astype(np.complex128)


def _j_paired_basis(x: np.ndarray):
    """Gram-Schmidt basis ``w_1, -j w_1, w_2, -j w_2, ...`` of the span of
    the cluster ``x``, or None when the span is not j-invariant."""
    if x.shape[1] % 2 != 0:
        return None
    basis: list[np.ndarray] = []
    for w in x.T:
        if basis:
            bmat = np.column_stack(basis)
            w = w - bmat @ np.linalg.lstsq(bmat, w, rcond=None)[0]
        if np.linalg.norm(w) >= _UNDRESS_GATE:
            w = w / np.linalg.norm(w)
            basis += [w, -jmul(w)]
    return np.column_stack(basis) if len(basis) == x.shape[1] else None


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


def _undress(b, klass: str, tol: ToleranceConfig):
    """Invert a solvable congruence dressing ``B = E^T A E`` of a symmetric or
    skew fiber point: (compact, witness), or None.

    The Cartan involution sigma fixes E, so that
    ``sigma(B)^-1 B = E^-1 sigma(A)^-1 A E`` is a triangular conjugate of a
    unitary matrix.  An adapted basis of each of its eigen-clusters (real,
    respectively j-paired), the Cholesky factor of ``(V V*)^-1`` and
    per-cluster quarter-root scales recover E; the symmetric witness is
    projected to its real part.
    """
    b = as_square_matrix(b)
    n = b.shape[0]
    skew = klass == "skew"
    try:
        clusters = _unit_eig_clusters(np.linalg.inv(sigma(b, klass)) @ b)
        if clusters is None:
            return None
        blocks = []
        for x in clusters:
            blocks.append(_j_paired_basis(x) if skew else _real_basis(x))
            if blocks[-1] is None:
                return None  # this span lacks the class structure
        if skew:
            j = jn(n // 2)
            e = _scaled_witness(
                b, blocks, lambda u0, a0: -j @ (u0.T @ (a0 @ a0.conj().T) @ np.conj(u0)) @ j)
        else:
            e = _scaled_witness(b, blocks, lambda u0, a0: u0.T @ (a0 @ np.conj(a0)) @ u0)
            e = e.real.astype(np.complex128)
        einv = np.linalg.inv(e)
        compact = einv.T @ b @ einv
    except (np.linalg.LinAlgError, OddDimension):  # sigma refuses an odd skew input
        return None
    scale = max(1.0, float(np.linalg.norm(b)))
    ok = (
        np.linalg.norm(compact @ compact.conj().T - np.eye(n)) <= tol.structure * n
        and (not skew or np.linalg.norm(compact + compact.T) <= tol.structure * n)
        and near_one(np.linalg.det(e), tol)
        and np.linalg.norm(e.T @ compact @ e - b) <= tol.structure * scale
    )
    return (compact, e) if ok else None


def undress_symmetric(b, tol: ToleranceConfig = DEFAULT_TOL):
    """(compact, real-solvable witness) of a dressed symmetric fiber point, or None."""
    return _undress(b, "symmetric", tol)


def undress_skew(b, tol: ToleranceConfig = DEFAULT_TOL):
    """(compact, quaternionic-solvable witness) of a dressed skew fiber point, or None."""
    return _undress(b, "skew", tol)


def _identify_congruence(b, klass: str, tol: ToleranceConfig) -> CellIdentification:
    """Schubert cell of a symmetric or skew fiber element, with class form
    F = I, respectively J: the input itself if compact, else its undressing,
    else the congruence fallback (C^T B C = F, C^-1 = A . E Iwasawa-split,
    compact part A^T F A).  B = E^T compact E within tolerance in every tier.
    Each tier's function is looked up as a module attribute at call time.
    """
    elem = b if validated(b, klass) else FiberElement(b, klass, tol)
    mat = elem.matrix
    n = mat.shape[0]
    skew = klass == "skew"
    if elem.unitary:
        compact, e = mat, np.eye(n, dtype=np.complex128)
    elif (found := (undress_skew if skew else undress_symmetric)(mat, tol)) is not None:
        compact, e = found
    else:
        c = (normalize_skew_form if skew else diagonalize_quadratic_form)(elem, tol)
        parts = iwasawa_split(np.linalg.inv(c), tol)
        u = parts.unitary
        compact, e = (u.T @ jn(n // 2) @ u if skew else u.T @ u), parts.solvable
    fact = (factorize_skew(compact @ (-jn(n // 2)), tol) if skew  # J^-1 = -J
            else factorize_symmetric(elem if elem.unitary else compact, tol))
    return CellIdentification.of(fact, compact, e, mat, tol)


def identify_symmetric(b, tol: ToleranceConfig = DEFAULT_TOL) -> CellIdentification:
    """Schubert cell of a symmetric fiber element."""
    return _identify_congruence(b, "symmetric", tol)


def identify_skew(b, tol: ToleranceConfig = DEFAULT_TOL) -> CellIdentification:
    """Schubert cell of a skew-symmetric fiber element (Pf = 1)."""
    return _identify_congruence(b, "skew", tol)


def identify(b, klass: str, tol: ToleranceConfig = DEFAULT_TOL) -> CellIdentification:
    check_class(klass)
    if klass == "general":
        return identify_general(b, tol)
    return _identify_congruence(b, klass, tol)


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
    after = identify(_compose(mat, e, klass), klass, tol)
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
    p = schubert_map(sym1, sample_interior_params(sym1, rng))
    q = schubert_map(sym2, sample_interior_params(sym2, rng))
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


def fiber_sample(symbol: SchubertSymbol, seed=0, dress: bool = False) -> np.ndarray:
    """Seeded fiber element in the cell of ``symbol``.

    Without dressing this is the compact-model point itself (for the skew
    class, multiplied by J to give an actual skew matrix); with dressing a
    class-appropriate solvable witness moves it off the compact model
    within its cell.
    """
    rng = np.random.default_rng(seed)
    point = cell_sample(symbol, rng)
    if symbol.klass == "skew":
        point = point @ jn(symbol.ambient // 2)
    if not dress:
        return point
    e = dressing_sample(symbol.ambient, symbol.klass, rng)
    return _compose(point, e, symbol.klass)
