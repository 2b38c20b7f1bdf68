"""Seeded invariant checks behind ``schubert verify`` and the acceptance gate.

The library modules compute and hold no checks; every invariant that both
check is one ``check_*`` function here, or one loop of a suite.  It takes
its sizes, a trial count, a bound and a base seed, as far as they apply, and
returns its failures: tuples naming the inputs that broke the invariant.
Random inputs come from one generator per size, ``default_rng(seed + n)``,
or from a running seed, so a check draws the same inputs whatever runs
before it.  The suites turn the failures into :class:`CheckResult` rows;
identical flags and seed give byte-identical output.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cohom
from .factor import (SchubertSymbol, cartan_model_sample, cell_sample, factorize_decreasing,
                     factorize_skew, factorize_su, factorize_symmetric)
from .milnor import dressing_sample, fiber_sample, identify
from .numlin import haar_sample, hermitian_inner, jn, pfaffian
from .rotor import PseudoRotation, apply, jmul, min_indices, product_matrix, whitehead_interchange
from .tolerances import DEFAULT_TOL

SUITES = ("rotor", "factor", "milnor", "cohom", "all")

ENGINES = {"general": factorize_su, "symmetric": factorize_symmetric, "skew": factorize_skew}
FIBER_SAMPLERS = {"general": "sl", "symmetric": "sym_fiber", "skew": "skew_fiber"}


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _row(suite: str, name: str, failures: list, detail: str = "") -> CheckResult:
    detail = detail or f"{len(failures)} failures"
    if failures:
        detail += f"; first {failures[0]}"
    return CheckResult(suite, name, not failures, detail)


def class_sizes(n: int, klass: str) -> list[int]:
    """Matrix sizes 2..n of the class; skew matrices are even and at least 4,
    so below 4 the skew class gets size 4."""
    return list(range(4, max(n, 4) + 1, 2)) if klass == "skew" else list(range(2, n + 1))


def check_factorization(klass: str, sizes, trials: int, bound: float, seed: int):
    """Compact-model samples factor into non-trivial factors of increasing
    min-index, within ``bound * n``, and the min-indices a factorization
    carries are those of its factors' axes; returns the failures and worst
    residual."""
    failures, worst = [], 0.0
    for n in sizes:
        rng = np.random.default_rng(seed + n)
        for t in range(trials):
            compact = cartan_model_sample(n, klass, rng)
            fact = ENGINES[klass](compact)
            res = float(np.linalg.norm(fact.matrix() - compact))
            worst = max(worst, res)
            mins = fact.min_indices
            read = tuple(min_indices(np.reshape([f.axis for f in fact.factors], (-1, n))).tolist())
            if res > bound * n:
                failures.append((klass, n, t, "compact", res))
            elif mins != read:
                failures.append((klass, n, t, "carried", mins, read))
            elif (any(x >= y for x, y in zip(mins, mins[1:]))
                  or any(abs(f.theta) < DEFAULT_TOL.tol_angle for f in fact.factors)):
                failures.append((klass, n, t, "order", mins))
    return failures, worst


def check_identification(klass: str, sizes, trials: int, bound: float, seed: int):
    """Haar fiber samples B are identified within ``bound * n * max(1, |B|)``;
    returns the failures and the worst residual over ``max(1, |B|)``."""
    failures, worst = [], 0.0
    for n in sizes:
        rng = np.random.default_rng(seed + n)
        for t in range(trials):
            b = haar_sample(n, FIBER_SAMPLERS[klass], rng)
            cid = identify(b, klass)
            res = float(np.linalg.norm(cid.reconstruction() - b))
            scale = max(1.0, np.linalg.norm(b))
            worst = max(worst, res / scale)
            if res > bound * n * scale:
                failures.append((klass, n, t, "fiber", res))
    return failures, worst


def check_symbol_invariance(sizes, trials: int, seed: int) -> list:
    """A Haar special unitary B has the symbol of B^-1, conj(B) and B^T."""
    failures = []
    for n in sizes:
        rng = np.random.default_rng(seed + n)
        for t in range(trials):
            b = haar_sample(n, "special_unitary", rng)
            symbols = [factorize_su(m).symbol().entries for m in (b, b.conj().T, b.conj(), b.T)]
            if len(set(symbols)) > 1:
                failures.append((n, t, symbols))
    return failures


def check_cell_round_trip(tops: dict, draws: int, seed: int, dresses=(False, True)) -> list:
    """Samples of every cell up to the bounds in ``tops`` (half-dimensions for
    the skew class) are identified as that cell, unflagged; the k-th sample
    has seed ``seed + k``."""
    failures = []
    counter = seed
    for klass, bounds in tops.items():
        for top in bounds:
            ambient = top if klass != "skew" else 2 * top
            for entries in cohom.enumerate_symbols(top, klass):
                sym = SchubertSymbol(entries, ambient, klass)
                for dress in dresses:
                    for _ in range(draws):
                        counter += 1
                        b = fiber_sample(sym, seed=counter, dress=dress)
                        cid = identify(b, klass)
                        if cid.symbol.entries != entries:
                            failures.append((klass, entries, dress, counter, cid.symbol.entries))
                        elif cid.boundary_ambiguous:
                            failures.append((klass, entries, dress, counter, "boundary-flag"))
    return failures


def check_skew_structure_law(sizes, trials: int, seed: int) -> list:
    """Skew compact-model factors pair up as (A, sigma(A*)) with min-indices
    (2m-1, 2m), checked stage by stage independently of the skew engine, and
    the general symbol is the doubled skew symbol up to a leading 2 (Cor. 5.10)."""
    failures = []
    for n in sizes:
        rng = np.random.default_rng(seed + n)
        for t in range(trials):
            b = cartan_model_sample(n, "skew", rng)
            fact = factorize_skew(b)
            work = list(reversed(factorize_decreasing(b).factors))
            stage_fail = len(work) % 2 == 1
            while work and not stage_fail:
                a1, a2 = work[0], work[1]
                m1 = a1.min_index()
                partner = PseudoRotation(a1.theta, jmul(a1.axis))
                if (m1 % 2 != 1 or a2.min_index() != m1 + 1
                        or np.linalg.norm(a2.matrix() - partner.matrix()) > 1e-8):
                    stage_fail = True
                    break
                inv = a1.inverse()
                work = [PseudoRotation(f.theta, apply(inv, f.axis)) for f in work[2:]]
            if stage_fail:
                failures.append((n, t, "pairing"))
                continue
            paired = tuple(x for m in fact.symbol().entries for x in (2 * m - 1, 2 * m))
            su = factorize_su(b).symbol().entries
            if su not in (paired, (2,) + paired):
                failures.append((n, t, "Cor 5.10", su, paired))
    return failures


def check_betti_numbers(sizes) -> list:
    """Cell counts per degree equal the independently expanded Poincare
    polynomial (mod 2 for the symmetric class)."""
    rings = (("general", "Z"), ("symmetric", "Z2"), ("skew", "Z"))
    return [(klass, n) for klass, ring in rings for n in sizes
            if cohom.betti_table(n, klass, ring) != cohom.poincare_polynomial(n, klass)]


def check_coproduct_multiplicativity(sizes) -> list:
    """Every coproduct equals the product of its primitives' coproducts."""
    return [entries for n in sizes for entries in cohom.enumerate_symbols(n)
            if cohom.coproduct_via_primitives(entries) != cohom.coproduct(entries).terms]


def check_perfect_pairing(sizes) -> list:
    """Every symbol pairs to +-1 with exactly one symbol of complementary
    degree, with equal values by the direct and the cup-product route."""
    failures = []
    for n in sizes:
        symbols = cohom.enumerate_symbols(n)
        for a in symbols:
            hits = 0
            for b in (s for s in symbols if len(s) == n - 1 - len(a)):
                v1 = cohom.intersection_pairing(a, b, n)
                v2 = cohom.intersection_pairing_via_cup(a, b, n)
                if v1 != v2:
                    failures.append((n, a, b, "route-mismatch"))
                if v1 != 0:
                    hits += 1
                    if v1 not in (1, -1):
                        failures.append((n, a, b, "entry", v1))
            if hits != 1:
                failures.append((n, a, "hits", hits))
    return failures


def check_closure_products(sizes, trials: int, seed: int) -> list:
    """Products of two general cells' points land in the merged cell for
    ``trials`` disjoint pairs and drop dimension by 2 for ``trials``
    overlapping ones."""
    failures = []
    rng = np.random.default_rng(seed)
    done_disjoint = done_overlap = 0
    while done_disjoint < trials or done_overlap < trials:
        n = sizes[int(rng.integers(len(sizes)))]
        pool = list(range(2, n + 1))
        rng.shuffle(pool)
        a = tuple(sorted(pool[: int(rng.integers(1, len(pool)))]))
        rest = [m for m in range(2, n + 1) if m not in a]
        if done_overlap < trials and (done_disjoint >= trials or rng.uniform() < 0.5):
            b = tuple(sorted({a[int(rng.integers(0, len(a)))]}
                             | set(rest[: int(rng.integers(0, len(rest) + 1))])))
            done_overlap += 1
        else:
            if not rest:
                continue
            b = tuple(sorted(rest[: int(rng.integers(1, len(rest) + 1))]))
            done_disjoint += 1
        cell_rng = np.random.default_rng(int(rng.integers(0, 2**31)))
        p, q = (cell_sample(SchubertSymbol(s, n), cell_rng) for s in (a, b))
        got = factorize_su(p @ q).symbol().entries
        if set(a) & set(b):
            passed = cohom.cell_dim(got) <= cohom.cell_dim(a) + cohom.cell_dim(b) - 2
        else:
            passed = got == cohom.merge_symbols(a, b)
        if not passed:
            failures.append((n, a, b, got))
    return failures


def check_pfaffian_law(sizes, trials: int, bound: float, seed: int):
    """Pf(C^T B C) = det(C) Pf(B) within ``bound * max(1, |rhs|)`` and
    Pf(J) = 1; returns the failures and the worst relative error."""
    failures, worst = [], 0.0
    for n in sizes:
        rng = np.random.default_rng(seed + n)
        for t in range(trials):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = g - g.T
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            lhs = pfaffian(c.T @ b @ c)
            rhs = np.linalg.det(c) * pfaffian(b)
            scale = max(1.0, abs(rhs))
            worst = max(worst, abs(lhs - rhs) / scale)
            if abs(lhs - rhs) > bound * scale:
                failures.append((n, t, abs(lhs - rhs)))
        if pfaffian(jn(n // 2)) != 1.0:
            failures.append(("Pf(J)", n // 2))
    return failures, worst


def _random_axis(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _sym_entries(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    return tuple(m for m in range(2, n + 1) if rng.uniform() < 0.5)


def suite_rotor(n: int, trials: int, seed: int):
    rng = np.random.default_rng(seed)
    out = []

    worst_u = worst_d = 0.0
    for _ in range(trials):
        dim = int(rng.integers(2, n + 1))
        rot = PseudoRotation(rng.uniform(-np.pi, np.pi), _random_axis(rng, dim))
        m = rot.matrix()
        worst_u = max(worst_u, np.linalg.norm(m @ m.conj().T - np.eye(dim)))
        worst_d = max(worst_d, abs(np.linalg.det(m) - np.exp(1j * rot.theta)))
    out.append(CheckResult(
        "rotor", "matrix-unitary-det", worst_u <= 1e-12 * n and worst_d <= 1e-11,
        f"max unitary residual {worst_u:.3g}, max det error {worst_d:.3g}"))

    worst = 0.0
    contract_ok = True
    for _ in range(trials):
        dim = int(rng.integers(2, n + 1))
        m = int(rng.integers(2, dim + 1))
        pick = lambda: np.concatenate([_random_axis(rng, m), np.zeros(dim - m)])
        a = PseudoRotation(rng.uniform(0.3, 2.8), pick())
        b = PseudoRotation(rng.uniform(0.3, 2.8), pick())
        if a.min_index() < b.min_index():
            a, b = b, a
        first, second, tag = whitehead_interchange(a, b)
        got = product_matrix([f for f in (first, second) if f is not None], dim)
        want = a.matrix() @ b.matrix()
        worst = max(worst, np.linalg.norm(got - want))
        if tag == "case2" and first is not None and second is not None:
            mm = a.min_index()
            contract_ok = (contract_ok and first.min_index() <= mm - 1
                           and second.min_index() == mm)
    out.append(CheckResult(
        "rotor", "whitehead-product-law", worst <= 1e-10 and contract_ok,
        f"max product deviation {worst:.3g}"))

    worst_c = worst_h = 0.0
    for _ in range(trials):
        half = int(rng.integers(1, max(2, n // 2) + 1))
        dim = 2 * half
        x = _random_axis(rng, dim)
        theta = rng.uniform(0.3, 2.8)
        a, b = PseudoRotation(theta, x), PseudoRotation(theta, jmul(x))
        worst_c = max(worst_c, np.linalg.norm(a.matrix() @ b.matrix() - b.matrix() @ a.matrix()))
        prod = a.matrix() @ b.matrix()
        v = _random_axis(rng, dim)
        worst_h = max(worst_h, np.linalg.norm(prod @ jmul(v) - jmul(prod.conj().T @ v)))
    out.append(CheckResult(
        "rotor", "hrotation-commute-hstar", worst_c <= 1e-12 * n and worst_h <= 1e-10,
        f"max commutator {worst_c:.3g}, max H*-linearity defect {worst_h:.3g}"))

    worst = 0.0
    for _ in range(trials):
        half = int(rng.integers(1, max(2, n // 2) + 1))
        x, y = _random_axis(rng, 2 * half), _random_axis(rng, 2 * half)
        worst = max(worst, abs(hermitian_inner(jmul(x), jmul(y)) - np.conj(hermitian_inner(x, y))))
    out.append(CheckResult(
        "rotor", "jmul-inner-conjugation", worst <= 1e-12,
        f"max defect {worst:.3g}"))

    worst = 0.0
    for _ in range(trials):
        half = max(2, n // 2)
        dim = 2 * half
        m = int(rng.integers(2, dim + 1))
        ax = lambda: np.concatenate([_random_axis(rng, m), np.zeros(dim - m)])
        a = PseudoRotation(rng.uniform(0.3, 2.8), ax())
        b = PseudoRotation(rng.uniform(0.3, 2.8), ax())
        if a.min_index() < b.min_index():
            a, b = b, a
        first, second, _ = whitehead_interchange(a, b)
        outs = [f for f in (first, second) if f is not None]
        lhs = product_matrix(
            [PseudoRotation(b.theta, jmul(b.axis)), PseudoRotation(a.theta, jmul(a.axis))], dim)
        rhs = product_matrix([PseudoRotation(f.theta, jmul(f.axis)) for f in reversed(outs)], dim)
        worst = max(worst, np.linalg.norm(lhs - rhs))
    out.append(CheckResult(
        "rotor", "j-twisted-interchange", worst <= 1e-10,
        f"max defect {worst:.3g}"))
    return out


def suite_factor(n: int, trials: int, seed: int):
    out = []
    for klass in ENGINES:
        failures, worst = check_factorization(klass, class_sizes(n, klass), trials, 1e-8, seed)
        out.append(_row("factor", f"reconstruction-{klass}", failures,
                        f"max residual {worst:.3g}"))
    out.append(_row("factor", "symbol-invariance-quadruple",
                    check_symbol_invariance(range(2, min(n, 5) + 1), trials, seed)))
    top = range(2, min(n, 6) + 1)
    tops = {"general": top, "symmetric": top, "skew": range(2, min(max(n // 2, 2), 3) + 1)}
    out.append(_row("factor", "cell-map-round-trip",
                    check_cell_round_trip(tops, 3, seed, (False,))))
    out.append(_row("factor", "skew-structure-law",
                    check_skew_structure_law(class_sizes(n, "skew"), trials, seed)))

    closed = {"general": lambda e: 2 * sum(e) - len(e), "symmetric": sum,
              "skew": lambda e: 4 * sum(e) - 3 * len(e)}
    # cell_dim uses these closed forms itself, so the degrees are summed too
    dims_ok = all(cohom.cell_dim(e, k) == form(e) == sum(cohom.generator_degree(m, k) for m in e)
                  for e in cohom.enumerate_symbols(min(n, 8)) for k, form in closed.items())
    out.append(CheckResult("factor", "cell-dimension-formulas", dims_ok, "exact"))
    return out


def suite_milnor(n: int, trials: int, seed: int):
    rng = np.random.default_rng(seed)
    out = []

    for klass in ENGINES:
        # relative residual within 1e-8 at every size up to n
        failures, worst = check_identification(klass, class_sizes(n, klass), trials, 1e-8 / n, seed)
        out.append(_row("milnor", f"identification-reconstruction-{klass}", failures,
                        f"max relative residual {worst:.3g}"))

    bad = 0
    for klass, cls_tag in FIBER_SAMPLERS.items():
        dims = class_sizes(min(n, 5), klass)
        for _ in range(trials):
            dim = dims[int(rng.integers(0, len(dims)))]
            b = haar_sample(dim, cls_tag, rng)
            e = dressing_sample(dim, klass, rng)
            after = b @ e if klass == "general" else e.T @ b @ e
            if identify(b, klass).symbol.entries != identify(after, klass).symbol.entries:
                bad += 1
    out.append(CheckResult("milnor", "solvable-action-invariance", bad == 0, f"{bad} mismatches"))

    top = range(2, min(n, 4) + 1)
    tops = {"general": top, "symmetric": top, "skew": range(2, 3)}
    out.append(_row("milnor", "planted-cell-recovery",
                    check_cell_round_trip(tops, 2, seed, (True,))))

    bad = 0
    for _ in range(trials):
        dim = int(rng.integers(2, min(n, 5) + 1))
        b = cartan_model_sample(dim, "symmetric", rng)
        sy = factorize_symmetric(b).symbol().entries
        su = factorize_su(b).symbol().entries
        if sy != su:
            bad += 1
    out.append(CheckResult(
        "milnor", "symmetric-symbol-cross-engine", bad == 0, f"{bad} mismatches"))
    return out


def suite_cohom(n: int, trials: int, seed: int):
    rng = np.random.default_rng(seed)
    out = []
    top = max(3, min(n, 10))

    out.append(_row("cohom", "betti-vs-poincare", check_betti_numbers(range(2, top + 1)),
                    f"n up to {top}"))

    co_ok = True
    for nn in range(2, min(top, 7) + 1):
        for entries in cohom.enumerate_symbols(nn):
            delta = cohom.coproduct(entries)
            strip = {}
            for (a, b), c in delta.terms.items():
                if b == ():
                    strip[a] = strip.get(a, 0) + c
            co_ok = co_ok and strip == {entries: 1}
            left = {}
            for (a, b), c in delta.terms.items():
                for (a1, a2), c1 in cohom.coproduct(a).terms.items():
                    left[(a1, a2, b)] = left.get((a1, a2, b), 0) + c * c1
            right = {}
            for (a, b), c in delta.terms.items():
                for (b1, b2), c1 in cohom.coproduct(b).terms.items():
                    right[(a, b1, b2)] = right.get((a, b1, b2), 0) + c * c1
            co_ok = co_ok and {k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v}
    out.append(CheckResult("cohom", "coproduct-counit-coassoc", co_ok, "exact"))

    out.append(_row("cohom", "coproduct-multiplicativity",
                    check_coproduct_multiplicativity(range(2, min(top, 6) + 1))))
    out.append(_row("cohom", "perfect-pairing-dual-route",
                    check_perfect_pairing(range(2, min(top, 8) + 1))))

    eps_ok = True
    for _ in range(max(trials, 50)):
        a = _sym_entries(rng, top)
        rest = tuple(m for m in range(2, top + 1) if m not in a)
        b = tuple(m for m in rest if rng.uniform() < 0.5)
        if not a or not b:
            continue
        eps_ok = eps_ok and cohom.epsilon(a, b) * cohom.epsilon(b, a) == (-1) ** (len(a) * len(b))
    out.append(CheckResult("cohom", "epsilon-bilinearity", eps_ok, "exact"))

    deg_ok = True
    for entries in cohom.enumerate_symbols(top):
        dual = cohom.kronecker_dual(entries)
        (mono, _), = dual.terms.items() if dual.terms else (((), 1),)
        deg_ok = deg_ok and cohom.cell_dim(mono) == cohom.cell_dim(entries)
    out.append(CheckResult("cohom", "dual-degree-bookkeeping", deg_ok, "exact"))

    out.append(_row("cohom", "closure-product-sampled", check_closure_products(
        range(3, max(4, min(n, 5) + 1)), min(trials, 10), seed)))
    failures, worst = check_pfaffian_law(range(2, n + 1, 2), trials, 1e-8, seed)
    out.append(_row("cohom", "pfaffian-transformation-law", failures,
                    f"max relative error {worst:.3g}"))
    return out


def run_suites(suite: str, n: int, trials: int, seed: int) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    names = ("rotor", "factor", "milnor", "cohom") if suite == "all" else (suite,)
    table = {"rotor": suite_rotor, "factor": suite_factor,
             "milnor": suite_milnor, "cohom": suite_cohom}
    out: list[CheckResult] = []
    for name in names:
        out.extend(table[name](n, trials, seed))
    return out
