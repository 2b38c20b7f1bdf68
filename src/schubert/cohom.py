"""Exact Schubert-cycle / cohomology dictionary.

Symbol enumeration and cell dimensions, exterior algebras on odd
generators over Z and Z/2Z, the merge sign epsilon and the binomial sign
beta, Kronecker and Poincare duals, the Hopf coproduct, intersection
pairings, and the Poincare-polynomial cross-check data.  All arithmetic in
this module is exact integer arithmetic, in Python ints or in integer
arrays; symbols are plain strictly increasing tuples of ints > 1.
Class tags, symbol entries and sizes are each checked by one function;
one table, ``_DIM_FORM``, gives the generator degrees 2m - 1, m and 4m - 3
and the closed-form cell dimensions.  Each public entry point checks each
symbol it is given once; the private helpers (``_merge_sign``,
``_complement``, ``_beta``, the ``_trusted`` constructors) trust the
validated tuples and the symbols the module builds itself.
"""
from __future__ import annotations

import functools
import operator
from itertools import combinations
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidSymbol,
    NotDisjoint,
    PreconditionViolated,
    UnsupportedClass,
    UnsupportedCoefficients,
)

#: the three matrix classes; the tag fixes the Cartan involution sigma
CLASSES = ("general", "symmetric", "skew")
RINGS = ("Z", "Z2")

Monomial = tuple[int, ...]


def check_class(klass: str) -> str:
    """The package's one class-tag check."""
    if klass not in CLASSES:
        raise UnsupportedClass(f"unknown matrix class {klass!r}")
    return klass


def check_entries(m) -> Monomial:
    """The package's one symbol-entry check: a strictly increasing tuple of
    integers > 1, converted with ``operator.index``."""
    try:  # operator.index takes numpy integers and refuses floats
        t = tuple(map(operator.index, m))
    except TypeError:
        raise InvalidSymbol(f"not a tuple of integers: {m!r}") from None
    if t and (t[0] < 2 or not all(map(operator.lt, t, t[1:]))):
        raise InvalidSymbol(f"not a strictly increasing tuple of ints > 1: {t}")
    return t


def _check_size(n, least: int | None = None, name: str = "n") -> int:
    """The module's one size check: an integer, converted with
    ``operator.index`` as symbol entries are, and at least ``least`` when
    given; anything else raises InvalidSymbol."""
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidSymbol(f"{name} must be an integer, got {n!r}") from None
    if least is not None and n < least:
        raise InvalidSymbol(f"need {name} >= {least}")
    return n


# generator degree = scale * m - shift, so a cell dimension, the sum of the
# generator degrees, is scale * |m| - shift * l(m)
_DIM_FORM = {"general": (2, 1), "symmetric": (1, 0), "skew": (4, 3)}


def generator_degree(m: int, klass: str = "general") -> int:
    """Degree of the generator labelled m: 2m-1 / m / 4m-3 by class.  The
    label is checked as a one-entry symbol."""
    scale, shift = _DIM_FORM[check_class(klass)]
    return scale * check_entries((m,))[0] - shift


def cell_dim(m, klass: str = "general") -> int:
    """Real dimension of the Schubert cell of the symbol, the sum of its
    generator degrees, in closed form: 2|m| - l, |m| or 4|m| - 3l by class,
    where |m| is the entry sum and l the length.  The class and the symbol
    are both validated."""
    scale, shift = _DIM_FORM[check_class(klass)]
    t = check_entries(m)
    return scale * sum(t) - shift * len(t)


def enumerate_symbols(n: int, klass: str = "general") -> list[Monomial]:
    """All 2^(n-1) strictly increasing tuples with entries in (1, n],
    ordered by length and then lexicographically (the order in which
    ``itertools.combinations`` yields each length).

    For the skew class the bound n is half the ambient dimension 2n.
    """
    check_class(klass)
    n = _check_size(n, 1)
    return [t for r in range(n) for t in combinations(range(2, n + 1), r)]


def cell_dims(n: int, klass: str = "general") -> tuple[list[Monomial], list[int]]:
    """The symbols of :func:`enumerate_symbols` and, in the same order, their
    closed-form cell dimensions, with no generated symbol checked again."""
    symbols = enumerate_symbols(n, klass)
    scale, shift = _DIM_FORM[klass]
    return symbols, [scale * sum(t) - shift * len(t) for t in symbols]


def beta(m) -> int:
    """Sign exponent binomial(l(m), 2)."""
    return _beta(len(check_entries(m)))


def _beta(length: int) -> int:
    return length * (length - 1) // 2


def _merge_disjoint(m, mp) -> tuple[Monomial, int]:
    """The merge of two symbols and its sign; they must be disjoint."""
    a, b = check_entries(m), check_entries(mp)
    if set(a) & set(b):
        raise NotDisjoint(f"{a} and {b} share entries")
    return _merge_sign(a, b)


def epsilon(m, mp) -> int:
    """Sign of the permutation merging the disjoint symbols (m, m') into
    increasing order, computed as the parity of merge inversions."""
    return _merge_disjoint(m, mp)[1]


def merge_symbols(m, mp) -> Monomial:
    return _merge_disjoint(m, mp)[0]


@dataclass(frozen=True)
class ExtElement:
    """Integer (or Z/2Z) combination of exterior monomials in odd
    generators; terms map strictly increasing generator tuples to nonzero
    coefficients."""

    terms: dict[Monomial, int] = field(default_factory=dict)
    ring: str = "Z"

    def __post_init__(self) -> None:
        terms = ((check_entries(mono), coef) for mono, coef in self.terms.items())
        object.__setattr__(self, "terms", _reduced(terms, self.ring))

    @classmethod
    def _trusted(cls, terms: dict[Monomial, int], ring: str = "Z") -> "ExtElement":
        """An element on monomials that are already valid, made without
        checking them again; the ring and coefficients are handled as by
        the constructor."""
        elem = object.__new__(cls)
        elem.__dict__.update(terms=_reduced(terms.items(), ring), ring=ring)
        return elem

    def __str__(self) -> str:
        return format_element(self)


def _reduced(items, ring: str) -> dict[Monomial, int]:
    """The (monomial, coefficient) pairs with nonzero int coefficients,
    reduced mod 2 over Z/2Z; the ring is checked before any pair is read."""
    if ring not in RINGS:
        raise UnsupportedCoefficients(f"unknown ring {ring!r}")
    return {mono: c for mono, coef in items if (c := int(coef) % 2 if ring == "Z2" else int(coef))}


def _merge_sign(a: Monomial, b: Monomial) -> tuple[Monomial, int]:
    if set(a) & set(b):
        return (), 0
    inversions = sum(1 for x in a for y in b if x > y)
    return tuple(sorted(a + b)), (-1 if inversions % 2 else 1)


def ext_mul(a: ExtElement, b: ExtElement) -> ExtElement:
    """Graded-commutative product: odd generators square to zero and
    anticommute over Z; over Z/2Z the signs vanish."""
    if a.ring != b.ring:
        raise UnsupportedCoefficients("ring mismatch")
    terms: dict[Monomial, int] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mono, sign = _merge_sign(ma, mb)
            if sign == 0:
                continue
            terms[mono] = terms.get(mono, 0) + sign * ca * cb
    return ExtElement._trusted(terms, a.ring)


def _mono_str(mono: Monomial, entry="e({})".format) -> str:
    """``e(m_1)e(m_2)...``, or "1" for the empty monomial; ``entry`` formats one entry."""
    return "".join(map(entry, mono)) or "1"


def _terms_str(terms) -> str:
    """The (body, coefficient) pairs as a signed sum, or "0": the lead sign
    is bare, and a coefficient +-1 is not printed."""
    out = []
    for i, (body, c) in enumerate(terms):
        sign = ("-" if c < 0 else "") if i == 0 else (" - " if c < 0 else " + ")
        out.append(sign + ("" if abs(c) == 1 else f"{abs(c)}*") + body)
    return "".join(out) or "0"


def format_element(e: ExtElement) -> str:
    keys = sorted(e.terms, key=lambda t: (len(t), t))
    return _terms_str((_mono_str(m), e.terms[m]) for m in keys)


@dataclass(frozen=True)
class TensorElement:
    """Integer combination of monomial tensor pairs (coproduct values)."""

    terms: dict[tuple[Monomial, Monomial], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {}
        for (a, b), c in self.terms.items():
            key = (check_entries(a), check_entries(b))
            if int(c):
                clean[key] = int(c)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, terms: dict[tuple[Monomial, Monomial], int]) -> "TensorElement":
        """A tensor held as given, made without checks, for terms whose
        keys are valid symbols and whose coefficients are nonzero ints."""
        elem = object.__new__(cls)
        elem.__dict__["terms"] = terms
        return elem

    def __str__(self) -> str:
        keys = sorted(self.terms, key=lambda k: (len(k[0]), k[0], k[1]))
        entry = functools.cache("e({})".format)  # each entry's e(m) is built once per call
        return _terms_str((f"{_mono_str(a, entry)}x{_mono_str(b, entry)}", self.terms[(a, b)])
                          for a, b in keys)


def tensor_mul(a: TensorElement, b: TensorElement) -> TensorElement:
    """Product on the tensor square with the Koszul sign: interchanging two
    odd-degree monomials of lengths p and q contributes (-1)^(p q)."""
    terms: dict[tuple[Monomial, Monomial], int] = {}
    for (a1, a2), ca in a.terms.items():
        for (b1, b2), cb in b.terms.items():
            left, s1 = _merge_sign(a1, b1)
            if s1 == 0:
                continue
            right, s2 = _merge_sign(a2, b2)
            if s2 == 0:
                continue
            koszul = -1 if (len(a2) * len(b1)) % 2 else 1
            key = (left, right)
            terms[key] = terms.get(key, 0) + koszul * s1 * s2 * ca * cb
    return TensorElement._trusted({k: c for k, c in terms.items() if c})


def kronecker_dual(m, klass: str = "general", assume_conjecture: bool = False) -> ExtElement:
    """Kronecker dual of the Schubert cycle of m:
    ``(-1)^beta(m) e_(m_1) ... e_(m_r)``.

    Established for the general class; for the symmetric and skew classes
    the identification is conjectural and refused unless
    ``assume_conjecture`` is set (then the unsigned monomial is returned,
    over Z/2Z in the symmetric case).
    """
    t = check_entries(m)
    if check_class(klass) == "general":
        return _kronecker(t)
    if not assume_conjecture:
        raise UnsupportedClass(
            f"the {klass} Kronecker-dual monomial identification is conjectural; "
            "pass assume_conjecture=True to compute it anyway"
        )
    return ExtElement._trusted({t: 1}, "Z2" if klass == "symmetric" else "Z")


def _kronecker(t: Monomial) -> ExtElement:
    """The general-class Kronecker dual of a validated symbol."""
    return ExtElement._trusted({t: (-1) ** _beta(len(t))}, "Z")


def coproduct(m) -> TensorElement:
    """Hopf coproduct of the dual class of m:
    sum over ordered disjoint splittings (m', m'') of m of
    ``(-1)^(l(m') l(m'')) epsilon_(m', m'') e_(m') x e_(m'')``.

    One pass per term: the complements of the r-subsets, taken in lex
    order, are the (l - r)-subsets in reverse lex order, and a left part at
    positions p_1 < ... < p_r of m has sum(p) - r(r - 1)/2 inversions
    against its complement, so the sign is that parity plus r(l - r)."""
    t = check_entries(m)
    terms: dict[tuple[Monomial, Monomial], int] = {}
    for r in range(len(t) + 1):
        base = r * (len(t) - r) - r * (r - 1) // 2
        rights = reversed(list(combinations(t, len(t) - r)))
        for left, right, pos in zip(combinations(t, r), rights, combinations(range(len(t)), r)):
            terms[(left, right)] = -1 if (base + sum(pos)) % 2 else 1
    return TensorElement._trusted(terms)


def coproduct_via_primitives(m) -> dict[tuple[Monomial, Monomial], int]:
    """Coproduct computed through the algebra structure instead of the
    splitting formula: expand ``(-1)^beta(m) prod_j coproduct((m_j))`` with
    the Koszul sign rule and convert each monomial tensor factor back to
    the dual basis (``prod_(j in m') e_(j) = (-1)^beta(m') e_(m')``)."""
    t = check_entries(m)
    prod = TensorElement._trusted({((), ()): 1})
    for entry in t:  # the generator e_(entry) is primitive
        prod = tensor_mul(prod, TensorElement._trusted({((), (entry,)): 1, ((entry,), ()): 1}))
    return {(a, b): (-1) ** (_beta(len(t)) + _beta(len(a)) + _beta(len(b))) * c
            for (a, b), c in prod.terms.items()}


def full_symbol(n: int) -> Monomial:
    return tuple(range(2, _check_size(n, 2) + 1))


def _complement(t: Monomial, n) -> Monomial:
    """The ordered complement in (2..n) of a validated symbol."""
    full = full_symbol(n)
    if t and t[-1] > full[-1]:
        raise InvalidSymbol(f"{t} is not contained in (2..{n})")
    return tuple(sorted(set(full) - set(t)))


def poincare_dual(m, n: int) -> ExtElement:
    """Poincare dual of the Schubert class of m in ambient n:
    ``(-1)^(beta(n-full) + beta(m)) epsilon_(m, m')`` times the monomial on
    the ordered complement m' of m in (2..n)."""
    t = check_entries(m)
    comp = _complement(t, n)
    sign = (-1) ** (_beta(len(t) + len(comp)) + _beta(len(t))) * _merge_sign(t, comp)[1]
    return ExtElement._trusted({comp: sign}, "Z")


def _complementary(m, mp, n) -> tuple[Monomial, Monomial, int]:
    """The two symbols and the size of a pairing; the symbol lengths must be
    complementary, l(m) + l(m') = n - 1."""
    a, b, n = check_entries(m), check_entries(mp), _check_size(n)
    if len(a) + len(b) != n - 1:
        raise PreconditionViolated(
            f"lengths {len(a)} + {len(b)} != {n - 1}; the pairing needs complementary degrees"
        )
    return a, b, n


def intersection_pairing(m, mp, n: int) -> int:
    """Intersection number of the Schubert cycles of m and m' in ambient n.

    Requires complementary lengths l(m) + l(m') = n - 1; nonzero only when
    m' is the ordered complement of m, where it equals
    ``(-1)^(beta(n) + beta(m) + beta(m')) epsilon_(m, m')``.
    """
    a, b, n = _complementary(m, mp, n)
    if b != _complement(a, n):
        return 0
    return (-1) ** (_beta(n - 1) + _beta(len(a)) + _beta(len(b))) * _merge_sign(a, b)[1]


def intersection_pairing_via_cup(m, mp, n: int) -> int:
    """The same pairing through the dual route: cup the Kronecker duals and
    read off the coefficient against the top-class orientation."""
    a, b, n = _complementary(m, mp, n)
    prod = ext_mul(_kronecker(a), _kronecker(b))
    nn = full_symbol(n)
    return prod.terms.get(nn, 0) * (-1) ** _beta(len(nn))


def _cell_dim_array(n: int, klass: str) -> np.ndarray:
    """The 2^(n-1) cell dimensions in bit-mask order: entry i is the
    dimension of the cell {m : bit m - 2 of i}.  Each generator m doubles
    the prefix, appending the cells so far shifted by its degree."""
    scale, shift = _DIM_FORM[klass]
    dims = np.zeros(1 << (n - 1), dtype=np.int64)
    for k, m in enumerate(range(2, n + 1)):
        dims[1 << k: 2 << k] = dims[: 1 << k] + (scale * m - shift)
    return dims


def betti_table(n: int, klass: str = "general", ring: str = "Z") -> dict[int, int]:
    """Per-degree ranks of the Schubert-cycle homology basis: the number of
    cells of each dimension, counted over one entry per cell.

    ``ring``, then ``klass``, then ``n`` are validated.  The symmetric class
    carries only Z/2Z fundamental classes, so it requires ``ring="Z2"``.
    """
    if ring not in RINGS:
        raise UnsupportedCoefficients(f"unknown ring {ring!r}")
    if klass == "symmetric" and ring != "Z2":
        raise UnsupportedCoefficients("symmetric Schubert cycles only carry Z/2Z classes")
    check_class(klass)
    counts = np.bincount(_cell_dim_array(_check_size(n, 1), klass))
    return {d: c for d, c in enumerate(counts.tolist()) if c}


def expand_product(degrees) -> dict[int, int]:
    """Coefficients of prod_j (1 + t^d_j), expanded by convolution."""
    poly = {0: 1}
    for d in degrees:
        nxt = dict(poly)
        for deg, c in poly.items():
            nxt[deg + d] = nxt.get(deg + d, 0) + c
        poly = nxt
    return dict(sorted(poly.items()))


def generator_degrees(n: int, klass: str = "general") -> list[int]:
    """Degrees of the exterior generators for ambient n: 3,5,..,2n-1 /
    2,3,..,n / 5,9,..,4n-3 by class."""
    scale, shift = _DIM_FORM[check_class(klass)]
    return [scale * m - shift for m in range(2, _check_size(n) + 1)]


def poincare_polynomial(n: int, klass: str = "general") -> dict[int, int]:
    """Independent expansion of the exterior-algebra Poincare polynomial."""
    return expand_product(generator_degrees(n, klass))


def sym_char0_poincare(m: int) -> dict[int, int]:
    """Poincare polynomial of the symmetric-fiber cohomology over a field
    of characteristic zero.

    Odd m: exterior generators of degrees 5, 9, ..., 2m-1.  Even m: degrees
    5, 9, ..., 2m-3 times the rank-2 factor {1, e_m}.
    """
    m = _check_size(m, 2, "m")
    if m % 2 == 1:
        degrees = list(range(5, 2 * m, 4))
        return expand_product(degrees)
    degrees = list(range(5, 2 * m - 2, 4))
    return expand_product(degrees + [m])


def stiefel_poincare(m: int, n: int) -> dict[int, int]:
    """Integer cohomology Poincare polynomial of the complement of the
    singular m x n matrices (m > n): odd degrees 2(m-n)+1, ..., 2m-1."""
    m, n = _check_size(m, name="m"), _check_size(n)
    if not (m > n >= 1):
        raise InvalidSymbol(f"need m > n >= 1, got ({m}, {n})")
    degrees = [2 * (m - n) + 2 * j - 1 for j in range(1, n + 1)]
    return expand_product(degrees)


def poly_str(poly: dict[int, int]) -> str:
    """Render a polynomial in t with ascending degrees."""
    if not poly:
        return "0"
    parts = []
    for deg in sorted(poly):
        c = poly[deg]
        if c == 0:
            continue
        if deg == 0:
            parts.append(str(c))
        else:
            coef = "" if c == 1 else f"{c}*"
            parts.append(f"{coef}t^{deg}")
    return " + ".join(parts) if parts else "0"
