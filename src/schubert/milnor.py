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

Each matrix on this path is checked once.  The input is validated where
it enters (``FiberElement``).  What the transport builds in the compact
model by construction, the Iwasawa unitary part of the general class, a
compact skew input's B J^-1 and the fallback's model point A^T F A, goes
to the engine as a built model element (``FiberElement._in_model``) and
is not checked again.  So only an undressed compact part meets the
engine's model gate (``rotor.model_element``), which decides once whether
it is in the compact model.  An undressing whose compact part the gate
refuses goes to the congruence fallback, and that result is flagged
boundary-ambiguous.  The engines take each factor's min-index from their
canonicalisation of the axes, and the symbol is built from those checked
indices.  Only the adapted eigenbasis, the real projection of the
symmetric witness, the normalizer and the engine differ by class.
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from . import cohom
from .errors import NotInModel, OddDimension
from .factor import (
    OrderedFactorization,
    SchubertSymbol,
    cell_sample,
    factorize_skew,
    factorize_su,
    factorize_symmetric,
)
from .numlin import (
    FiberElement,
    as_square_matrix,
    diagonalize_quadratic_form,
    fro_norm,
    is_unitary,  # noqa: F401  (a lookup point of perfbench/tracer.py)
    iwasawa_split,
    jn,
    normalize_skew_form,
    quaternionic_solvable_sample,
    real_solvable_sample,
    solvable_sample,
)
from .rotor import _sigma, jmul
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
    def of(cls, fact: OrderedFactorization, compact, witness, b) -> "CellIdentification":
        """The identification of ``b`` by ``fact``, with its residual."""
        residual = fro_norm(_compose(compact, witness, fact.klass) - b)
        return cls(fact.symbol(), compact, witness, residual, fact.boundary_ambiguous, fact)

    def reconstruction(self) -> np.ndarray:
        return _compose(self.compact_part, self.witness, self.symbol.klass)


def identify_general(b, tol: ToleranceConfig = DEFAULT_TOL) -> CellIdentification:
    """Schubert cell of an element of SL_n: Iwasawa-split B = A . C and
    factorize the special unitary part, which is special unitary by
    construction and not checked again."""
    elem = FiberElement.of(b, "general", tol)
    parts = iwasawa_split(elem, tol)
    fact = factorize_su(FiberElement._in_model(parts.unitary, "general", tol), tol)
    return CellIdentification.of(fact, parts.unitary, parts.solvable, elem.matrix)


_UNDRESS_GATE = 1e-6  # unit-modulus, eigen-cluster and basis-rank gate of exact undressing
# Largest cond(E) of a dressing that undressing must find.  If B = E^T A E
# undresses, M = sigma(B)^-1 B = E^-1 U E with U unitary, so ||M^k||_F <=
# sqrt(n) cond(E) for every k; a power above sqrt(n) * _KAPPA_MAX rules B out.
_KAPPA_MAX = 1e8


def _unit_eig_clusters(w_mat: np.ndarray):
    """Eigen clusters of a matrix similar to a unitary one, sorted by angle.

    Returns None when the spectrum is not unit-modulus within the gate.
    Before any eigen-solve, W, W^2, W^4, ..., W^64 are screened against the
    norm bound of ``_KAPPA_MAX``; the screen stops at the first power above
    it, so the squaring never overflows, and a NaN fails it.
    """
    powers = accumulate(range(6), lambda p, _: p @ p, initial=w_mat)  # lazily, as all() reads them
    if not all(fro_norm(p) <= len(p) ** 0.5 * _KAPPA_MAX for p in powers):
        return None
    vals, vecs = np.linalg.eig(w_mat)
    if np.abs(np.abs(vals) - 1.0).max() > _UNDRESS_GATE:
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
        if fro_norm(w) >= _UNDRESS_GATE:
            w = w / fro_norm(w)
            basis += [w, -jmul(w)]
    return np.column_stack(basis) if len(basis) == x.shape[1] else None


def _chol_witness(v: np.ndarray) -> np.ndarray:
    """Upper-triangular positive-diagonal E with E* E = (V V*)^-1."""
    g = np.linalg.inv(v @ v.conj().T)
    g = 0.5 * (g + g.conj().T)
    return np.linalg.cholesky(g).conj().T


def _spd_inv_quarter(blk: np.ndarray) -> np.ndarray:
    w, q = np.linalg.eigh(0.5 * (blk + blk.conj().T))
    if (w <= 0).any():
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
    projected to its real part.  Only the reconstruction ``E^T C E = B`` is
    checked here: whether the compact part C lies in the Cartan model is
    decided by the engine's model gate (``rotor.model_element``), and
    det E = 1 follows from det B = det C = 1 and the positive diagonal of E.
    """
    b = as_square_matrix(b)
    n = b.shape[0]
    skew = klass == "skew"
    try:
        clusters = _unit_eig_clusters(np.linalg.inv(_sigma(b, klass)) @ b)
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
    scale = max(1.0, fro_norm(b))
    return (compact, e) if fro_norm(e.T @ compact @ e - b) <= tol.structure * scale else None


def undress_symmetric(b, tol: ToleranceConfig = DEFAULT_TOL):
    """(compact, real-solvable witness) of a dressed symmetric fiber point, or
    None; the engine's model gate decides whether the compact part is in the
    Cartan model."""
    return _undress(b, "symmetric", tol)


def undress_skew(b, tol: ToleranceConfig = DEFAULT_TOL):
    """(compact, quaternionic-solvable witness) of a dressed skew fiber point,
    or None; the engine's model gate decides whether the compact part is in
    the Cartan model."""
    return _undress(b, "skew", tol)


def _identify_congruence(b, klass: str, tol: ToleranceConfig) -> CellIdentification:
    """Schubert cell of a symmetric or skew fiber element, with class form
    F = I, respectively J: the input itself if compact, else its undressing
    if the engine's model gate takes it, else the congruence fallback
    (C^T B C = F, C^-1 = A . E Iwasawa-split, compact part A^T F A), whose
    result is flagged when an undressing was found.  B = E^T compact E
    within tolerance in every tier.  The compact tier's point and the
    fallback's are built in the model and skip the engine's model gate; an
    undressed compact part passes it.  Each tier's function is looked up as
    a module attribute at call time.
    """
    elem = FiberElement.of(b, klass, tol)
    mat = elem.matrix
    n = mat.shape[0]
    skew = klass == "skew"

    def peel(compact, e, built=True):
        m = compact @ (-jn(n // 2)) if skew else compact  # J^-1 = -J
        m = FiberElement._in_model(m, klass, tol) if built else m  # else the engine's gate decides
        fact = (factorize_skew if skew else factorize_symmetric)(m, tol)
        return CellIdentification.of(fact, compact, e, mat)

    if elem.unitary:
        return peel(mat, np.eye(n, dtype=np.complex128))
    found = (undress_skew if skew else undress_symmetric)(elem, tol)
    if found is not None:
        with suppress(NotInModel):  # unless the engine's model gate refuses it
            return peel(*found, built=False)
    c = (normalize_skew_form if skew else diagonalize_quadratic_form)(elem, tol)
    # det C = 1 is decided (off the normalizer's pivots), so C^-1 enters the split as validated
    parts = iwasawa_split(FiberElement._trusted(np.linalg.inv(c), "general", tol), tol)
    u = parts.unitary
    cid = peel(u.T @ jn(n // 2) @ u if skew else u.T @ u, parts.solvable)
    return cid if found is None else replace(cid, boundary_ambiguous=True)


def identify(b, klass: str, tol: ToleranceConfig = DEFAULT_TOL) -> CellIdentification:
    cohom.check_class(klass)
    if klass == "general":
        return identify_general(b, tol)
    return _identify_congruence(b, klass, tol)


def dressing_sample(n: int, klass: str, seed=0) -> np.ndarray:
    """Seeded element of the cell-preserving solvable group of the class:
    the full complex Sol_n for the general class (acting on the right), the
    real solvable group for the symmetric class and the quaternionic
    solvable group for the skew class (both acting by congruence)."""
    sample = {"general": solvable_sample, "symmetric": real_solvable_sample,
              "skew": quaternionic_solvable_sample}[cohom.check_class(klass)]
    return sample(n, seed)


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
