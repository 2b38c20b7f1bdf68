from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from schubert import factor, milnor, numlin, rotor
from schubert.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidSymbol,
    NotInModel,
    SchubertError,
    StructureViolation,
    UnsupportedClass,
)
from schubert.factor import (
    OrderedFactorization,
    SchubertSymbol,
    cartan_model_sample,
    cell_sample,
    embed,
    factorize_decreasing,
    factorize_skew,
    factorize_su,
    factorize_symmetric,
    reverse_order,
    sample_interior_params,
    schubert_map,
    schubert_map_sk,
    schubert_map_sy,
    symbol_invariance_check,
)
from schubert.rotor import PseudoRotation
from schubert.tolerances import DEFAULT_TOL, ToleranceConfig, in_gray_zone

from boundary_survey import pushed_cell as _pushed_cell
from conftest import e


class TestSchubertSymbol:
    def test_validation(self):
        SchubertSymbol((), 3)
        SchubertSymbol((2, 3), 3)
        with pytest.raises(InvalidSymbol):
            SchubertSymbol((1, 2), 3)
        with pytest.raises(InvalidSymbol):
            SchubertSymbol((3, 2), 3)
        with pytest.raises(InvalidSymbol):
            SchubertSymbol((4,), 3)
        with pytest.raises(InvalidSymbol):
            SchubertSymbol((3,), 4, "skew")  # bound is ambient/2

    def test_ambient_too_small(self):
        SchubertSymbol((), 1)
        SchubertSymbol((), 2, "skew")
        for ambient, klass in ((0, "general"), (-1, "symmetric"), (0, "skew")):
            with pytest.raises(InvalidSymbol):
                SchubertSymbol((), ambient, klass)

    def test_attributes(self):
        s = SchubertSymbol((2, 4), 5)
        assert s.length == 2 and s.weight == 6 and s.dim() == 2 * 6 - 2
        assert str(s) == "(2,4)"


class TestFactorizeSU:
    def test_identity(self):
        f = factorize_su(np.eye(4))
        assert f.symbol().entries == ()
        assert f.factors == () and f.correction is None

    def test_su2_diagonal_folds(self):
        theta = 0.8
        b = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
        f = factorize_su(b)
        assert f.symbol().entries == (2,)
        assert f.correction is not None
        assert_allclose(f.correction.matrix(),
                        PseudoRotation(theta, e(1, 2)).matrix(), atol=1e-12)
        assert_allclose(f.factors[0].matrix(),
                        PseudoRotation(-theta, e(2, 2)).matrix(), atol=1e-12)

    def test_round_trip_symbol(self):
        sym = SchubertSymbol((2, 3), 3)
        b = schubert_map(sym, sample_interior_params(sym, seed=5))
        assert factorize_su(b).symbol().entries == (2, 3)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_reconstruction_and_monotone(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(15):
            b = numlin.haar_sample(n, "special_unitary", rng)
            f = factorize_su(b)
            assert np.linalg.norm(f.matrix() - b) <= 1e-8 * n
            mins = f.min_indices()
            assert all(x < y for x, y in zip(mins, mins[1:]))
            assert all(m >= 2 for m in mins)

    def test_recovers_planted_factors(self):
        # uniqueness: the engine must reproduce the planted (theta, L) data
        sym = SchubertSymbol((2,), 2)
        params = [(0.37, np.array([0.6, 0.8]))]
        b = schubert_map(sym, params)
        f = factorize_su(b)
        assert_allclose(f.factors[0].matrix(),
                        PseudoRotation(2 * np.pi * 0.37, np.array([0.6, 0.8])).matrix(),
                        atol=1e-10)


class TestBoundaryConditioning:
    """Near a cell boundary the angle read off a row with a small pivot is
    sensitive to rounding, and its error can make a row no factor owns read
    as an extra factor.  Such inputs must come back flagged or right."""

    @pytest.mark.parametrize("entries,n,seed,tops", [
        ((2, 3, 5, 6), 6, 774, {3: 2.7e-6}),
        ((2, 5, 6, 7), 7, 834, {2: 2.6e-5}),
        ((3, 4, 6), 6, 775, {0: 1.1e-3, 1: 4.6e-3, 2: 1.4e-3}),
        ((3, 4), 5, 1304344479, {0: 3.95e-6, 1: 1.37e-4}),
    ])
    def test_pushed_line(self, entries, n, seed, tops):
        f = factorize_su(_pushed_cell(entries, n, seed, tops))
        assert f.boundary_ambiguous or f.symbol().entries == entries

    def test_interior_cell_n24(self):
        entries = tuple(range(3, 20)) + (22, 23, 24)
        f = factorize_su(cell_sample(SchubertSymbol(entries, 24), seed=207))
        assert f.boundary_ambiguous or f.symbol().entries == entries

    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_pushed_lines_never_wrong(self, data):
        """The boundary contract for compact and dressed general cells: the
        planted symbol, a boundary flag or a ConvergenceFailure, never a
        different symbol."""
        n = data.draw(st.integers(4, 8))
        entries = tuple(sorted(data.draw(st.sets(st.integers(2, n), min_size=1, max_size=n - 1))))
        pushed = data.draw(st.sets(st.integers(0, len(entries) - 1), min_size=1, max_size=2))
        tops = {i: 10.0 ** data.draw(st.floats(np.log10(1.5e-6), -1.0)) for i in pushed}
        b = _pushed_cell(entries, n, data.draw(st.integers(0, 2**31 - 1)), tops,
                         dress=data.draw(st.booleans()))
        try:
            cid = milnor.identify(b, "general")
        except ConvergenceFailure:
            return
        assert cid.boundary_ambiguous or cid.symbol.entries == entries

    @pytest.mark.parametrize("klass", ["symmetric", "skew"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    def test_cartan_pushed_lines_never_wrong(self, klass, data):
        """The boundary contract for compact and dressed planted symmetric and
        skew cells with one or two lines pushed toward a boundary."""
        half = data.draw(st.integers(2, 8) if klass == "symmetric" else st.integers(2, 4))
        n = half if klass == "symmetric" else 2 * half
        entries = tuple(sorted(data.draw(st.sets(st.integers(2, half), min_size=1, max_size=half - 1))))
        pushed = data.draw(st.sets(st.integers(0, len(entries) - 1), min_size=1, max_size=2))
        tops = {i: 10.0 ** data.draw(st.floats(np.log10(4e-8), -1.0)) for i in pushed}
        b = _pushed_cell(entries, n, data.draw(st.integers(0, 2**31 - 1)), tops, klass,
                         dress=data.draw(st.booleans()))
        try:
            cid = milnor.identify(b, klass)
        except ConvergenceFailure:
            return
        assert cid.boundary_ambiguous or cid.symbol.entries == entries


def _per_factor_peel(w, tol):
    """Reference row peel: each factor is built as a PseudoRotation when it
    is read and peeled off all of w; min-indices are read factor by factor."""
    n = w.shape[0]
    w = w.copy()
    gray = False
    factors = []
    for j in range(n, 1, -1):
        dev = -np.conj(w[j - 1, :j])
        dev[j - 1] += 1.0
        d = float(np.linalg.norm(dev))
        if d < tol.tol_angle:
            continue
        x = dev / d
        gray = gray or in_gray_zone(abs(x[j - 1]), tol.axis_snap, span=4.0)
        num, den = x[j - 1] * d, abs(x[j - 1]) ** 2
        for r in range(j - 1, 1, -1):
            dr = -np.conj(w[r - 1, :j])
            dr[r - 1] += 1.0
            cr = np.vdot(x, dr)
            if np.linalg.norm(dr - cr * x) >= tol.tol_angle:
                break
            num += x[r - 1] * cr
            den += abs(x[r - 1]) ** 2
        f = PseudoRotation(-float(np.angle(1.0 - num / den)), np.concatenate([x, np.zeros(n - j)]))
        w -= (1.0 - np.exp(-1j * f.theta)) * np.outer(w @ f.axis, np.conj(f.axis))
        factors.append(f)
    phi = float(np.angle(w[0, 0]))
    return factors[::-1], [f.min_index(tol) for f in factors[::-1]], phi, \
        gray or in_gray_zone(phi, tol.tol_angle)


def _per_factor_su(b, tol=DEFAULT_TOL):
    """Reference factorize_su over the per-factor peel, with the same gates
    and the flag rule of the rank profile."""
    n = b.shape[0]
    u, _, vh = np.linalg.svd(b)
    w = u @ vh
    factors, mins, phi, gray = _per_factor_peel(w, tol)
    if any(y <= x for x, y in zip(mins, mins[1:])):
        raise ConvergenceFailure("non-monotone")
    profile, profile_gray = factor._rank_profile(w, tol)
    fact = OrderedFactorization(
        "general", "increasing", n, tuple(factors),
        PseudoRotation(phi, e(1, n)) if abs(phi) >= tol.tol_angle else None,
        boundary_ambiguous=gray or profile_gray or profile != mins)
    residual = float(np.linalg.norm(fact.matrix() - b))
    if residual > tol.structure * n:
        raise ConvergenceFailure("reconstruction residual")
    return replace(fact, residual=residual)


class TestStackedPeel:
    """The stacked row peel against the per-factor peel it replaces."""

    def _same(self, b, case, factors=True):
        """Same exception type, flag and symbol, the symbol of a flagged
        result excepted; with ``factors``, the same factors up to rounding.

        The two peels round differently, and a lower cell or a small pivot
        amplifies that (by about 1/p^2 for a pivot p), so only
        well-conditioned inputs are compared factor by factor, and the symbol
        of a flagged result, which the flag marks as not resolved by a clear
        margin, may differ.
        """
        got, want = _outcome(factorize_su, b), _outcome(_per_factor_su, b)
        if isinstance(want, type):
            assert got is want, case
            return want
        assert got.boundary_ambiguous == want.boundary_ambiguous, case
        assert got.boundary_ambiguous or got.symbol().entries == want.symbol().entries, case
        for f, g in zip(got.all_factors(), want.all_factors(), strict=True) if factors else ():
            assert abs(f.theta - g.theta) <= 1e-12 and np.max(np.abs(f.axis - g.axis)) <= 1e-12, case
        return None

    def test_haar(self):
        for n in (4, 5, 8, 12, 16, 24, 32):
            for seed in range(6):
                self._same(numlin.haar_sample(n, "special_unitary", 100 * n + seed), (n, seed))

    def test_planted_cells(self):
        rng = np.random.default_rng(11)
        for n in (4, 6, 8, 12, 16, 24):
            for _ in range(8):
                entries = tuple(sorted(map(int, rng.choice(np.arange(2, n + 1), int(rng.integers(1, n)),
                                                           replace=False))))
                b = cell_sample(SchubertSymbol(entries, n), int(rng.integers(2**31)))
                self._same(b, (entries, n), factors=n <= 8)

    def test_pushed_cells(self):
        rng = np.random.default_rng(12)
        raised = set()
        for i in range(60):
            n = int(rng.integers(4, 9))
            entries = tuple(sorted(map(int, rng.choice(np.arange(2, n + 1), int(rng.integers(1, n)),
                                                       replace=False))))
            tops = {int(rng.integers(len(entries))): 10.0 ** rng.uniform(-7.4, -1)}
            raised.add(self._same(_pushed_cell(entries, n, int(rng.integers(2**31)), tops), (entries, n, i),
                                  factors=False))
        assert ConvergenceFailure in raised

    def test_caller_tolerance_snaps(self):
        # the 1e-8 coordinate survives the tight snap level (1e-10)
        tight = ToleranceConfig(tol_zero=1e-14, tol_residual=1e-12)
        v = np.array([1e-8, 0.6, 0.8])
        v /= np.linalg.norm(v)
        b = PseudoRotation(-0.9, e(1, 3)).matrix() @ (np.eye(3) - (1 - np.exp(0.9j)) * np.outer(v, v.conj()))
        f = factorize_su(b, tight)
        assert f.symbol(tight).entries == (3,) and f.residual < 1e-14

    def test_peels_once(self, monkeypatch):
        calls = []

        def counted(w, tol):
            calls.append(w.shape)
            return peel(w, tol)

        peel = factor._peel_rows
        monkeypatch.setattr(factor, "_peel_rows", counted)
        for b in (numlin.haar_sample(8, "special_unitary", 0), _pushed_cell((3, 4), 5, 7, {0: 1e-5})):
            calls.clear()
            factorize_su(b)
            assert len(calls) == 1, calls

    @pytest.mark.parametrize("n", (8, 16))
    def test_canonical_axis_calls(self, monkeypatch, n):
        calls = []

        def counted(x, tol=DEFAULT_TOL):
            calls.append(np.shape(x))
            return canonical_axis(x, tol)

        canonical_axis = rotor.canonical_axis
        monkeypatch.setattr(rotor, "canonical_axis", counted)
        monkeypatch.setattr(factor, "canonical_axis", counted)
        for seed in range(3):
            calls.clear()
            factorize_su(numlin.haar_sample(n, "special_unitary", seed))
            assert len(calls) == 1, calls


class TestDecreasingAndReverse:
    def test_identity(self):
        f = factorize_decreasing(np.eye(3))
        assert f.factors == ()

    def test_single_rotation(self):
        b = PseudoRotation(1.2, e(2, 3)).matrix() @ PseudoRotation(-1.2, e(1, 3)).matrix()
        f = factorize_decreasing(b)
        assert np.linalg.norm(f.matrix() - b) < 1e-10
        mins = f.min_indices()
        assert list(mins) == sorted(mins, reverse=True)

    def test_decreasing_reconstruction(self, rng):
        b = numlin.haar_sample(4, "special_unitary", rng)
        f = factorize_decreasing(b)
        assert np.linalg.norm(f.matrix() - b) <= 1e-9
        mins = f.min_indices()
        assert all(x > y for x, y in zip(mins, mins[1:]))

    def test_residual_is_that_of_the_inverse(self, rng):
        for n in (2, 5, 9, 16):
            b = numlin.haar_sample(n, "special_unitary", rng)
            f = factorize_decreasing(b)
            assert abs(f.residual - np.linalg.norm(f.matrix() - b)) <= 1e-14

    def test_reverse_empty(self):
        f = factorize_su(np.eye(3))
        assert reverse_order(f).factors == ()

    def test_reverse_round_trip(self, rng):
        inputs = [numlin.haar_sample(n, "special_unitary", rng) for n in (2, 5, 9, 16)]
        inputs.append(cell_sample(SchubertSymbol((2, 5, 7), 9), seed=11))
        for b in inputs:
            f = factorize_su(b)
            g = reverse_order(f)
            assert g.order == "decreasing"
            assert np.linalg.norm(g.matrix() - b) <= 1e-10
            assert sorted(g.min_indices()) == sorted(
                list(f.min_indices()) + ([1] if f.correction is not None else []))
            h = reverse_order(g)
            assert np.linalg.norm(h.matrix() - b) <= 1e-10
            assert h.min_indices() == f.min_indices()

    def test_reverse_snaps_with_the_callers_tol(self):
        """A coordinate of 1e-8 is an axis coordinate under a tight tol, and
        the chained axes must keep it."""
        v = np.array([1e-8, 0.6, 0.8]) / np.linalg.norm([1e-8, 0.6, 0.8])
        b = PseudoRotation(-0.9, e(1, 3)).matrix() @ (np.eye(3) - (1 - np.exp(0.9j)) * np.outer(v, v))
        tight = ToleranceConfig(tol_zero=1e-14, tol_residual=1e-12)
        g = reverse_order(factorize_su(b, tight), tight)
        assert g.residual <= 1e-12
        assert np.linalg.norm(g.matrix() - b) <= 1e-12


class TestInvariance:
    def test_identity(self):
        rep = symbol_invariance_check(np.eye(3))
        assert rep.equal and rep.original.entries == ()

    def test_su2_diagonal(self):
        b = np.diag([np.exp(0.9j), np.exp(-0.9j)])
        rep = symbol_invariance_check(b)
        assert rep.equal and rep.original.entries == (2,)

    def test_seeded_suite(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            b = numlin.haar_sample(5, "special_unitary", rng)
            assert symbol_invariance_check(b).equal


class TestSymmetricEngine:
    def test_identity(self):
        f = factorize_symmetric(np.eye(3))
        assert f.symbol().entries == ()

    def test_single_factor_collapse(self):
        # psi_sy at t = 1 is the identity: A_(-pi,e1) A_(pi,L) (A same)^T = I
        sym = SchubertSymbol((2,), 3, "symmetric")
        line = np.array([0.6, 0.8, 0.0])
        b = schubert_map_sy(sym, [(1.0, line)])
        assert_allclose(b, np.eye(3), atol=1e-12)

    def test_round_trip(self):
        sym = SchubertSymbol((2, 3), 3, "symmetric")
        b = schubert_map_sy(sym, sample_interior_params(sym, seed=2))
        assert factorize_symmetric(b).symbol().entries == (2, 3)

    def test_half_angle_structure(self, rng):
        b = cartan_model_sample(4, "symmetric", rng)
        f = factorize_symmetric(b)
        # all axes real, reconstruction via P P^T
        for c in list(f.factors) + ([f.correction] if f.correction else []):
            assert np.linalg.norm(c.axis.imag) < 1e-9
        assert np.linalg.norm(f.matrix() - b) < 1e-9

    def test_cross_engine_symbol(self, rng):
        for _ in range(20):
            b = cartan_model_sample(4, "symmetric", rng)
            assert factorize_symmetric(b).symbol().entries == factorize_su(b).symbol().entries

    def test_rejects_non_model(self):
        with pytest.raises(NotInModel):
            factorize_symmetric(np.diag([2.0, 0.5]))


class TestSkewEngine:
    def test_identity_point(self):
        f = factorize_skew(np.eye(4))
        assert f.symbol().entries == ()

    def test_round_trip(self):
        sym = SchubertSymbol((2,), 4, "skew")
        b = schubert_map_sk(sym, sample_interior_params(sym, seed=3))
        assert factorize_skew(b).symbol().entries == (2,)

    def test_structure_law(self, rng):
        for _ in range(15):
            b = cartan_model_sample(6, "skew", rng)
            f = factorize_skew(b)
            dec = factorize_decreasing(b)
            mins = sorted(dec.min_indices())
            assert len(mins) % 2 == 0
            for i in range(len(mins) // 2):
                assert mins[2 * i] % 2 == 1
                assert mins[2 * i + 1] == mins[2 * i] + 1
            # paired increasing symbol matches plain factorize_su
            paired = tuple(x for m in f.symbol().entries for x in (2 * m - 1, 2 * m))
            su = factorize_su(b).symbol().entries
            assert su in (paired, (2,) + paired)
            assert np.linalg.norm(f.matrix() - b) < 1e-8

    def test_rejects_non_model(self):
        with pytest.raises(NotInModel):
            factorize_skew(np.eye(3))

    def test_partner_gap_matches_dense(self, rng):
        def unit(v):
            return v / np.linalg.norm(v)

        for i in range(400):
            n = int(rng.integers(2, 17))
            x = unit(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            y = unit(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            tx, ty = rng.uniform(-np.pi, np.pi, 2)
            if i % 2:  # near-equal pair, as a skew engine meets it
                y = unit(x * np.exp(1j * rng.uniform(-3, 3)) + 10.0 ** rng.uniform(-16, -6) * y)
                ty = tx + 10.0 ** rng.uniform(-16, -6)
            dense = np.linalg.norm(PseudoRotation.of_canonical(tx, x).matrix()
                                   - PseudoRotation.of_canonical(ty, y).matrix())
            assert abs(factor._partner_gap(x, tx, y, ty) - dense) <= 1e-14


def _per_factor_cartan(m, klass, tol=factor.DEFAULT_TOL):
    """Reference Cartan engine: after each peel, every remaining factor is
    conjugated on its own and rebuilt as a PseudoRotation, with the same
    gates as the engines."""
    elem = rotor.model_element(m, klass, tol)
    dec = factorize_decreasing(elem, tol)
    work = list(reversed(dec.factors))
    if klass == "skew" and len(work) % 2:
        raise StructureViolation("odd factor count")
    halves = []
    while work:
        if klass == "symmetric":
            c, rest = PseudoRotation(work[0].theta / 2.0, factor._real_axis(work[0].axis, tol)), work[1:]
        else:
            c, a2, rest = work[0], work[1], work[2:]
            m1 = c.min_index(tol)
            if m1 % 2 == 0 or a2.min_index(tol) != m1 + 1:
                raise StructureViolation("pair indices")
            partner = PseudoRotation(c.theta, rotor.jmul(c.axis))
            if np.linalg.norm(a2.matrix() - partner.matrix()) > tol.structure:
                raise StructureViolation("j-partner")
        halves.append(c)
        work = [PseudoRotation(f.theta, rotor.apply(c.inverse(), f.axis)) for f in rest]
    correction, factors = factor._split_correction(halves, tol)
    n = elem.matrix.shape[0]
    fact = OrderedFactorization(klass, "increasing", n, tuple(factors), correction,
                                boundary_ambiguous=dec.boundary_ambiguous)
    residual = float(np.linalg.norm(fact.matrix() - elem.matrix))
    if residual > tol.structure * n:
        raise ConvergenceFailure("reconstruction residual")
    return replace(fact, residual=residual)


def _engine_input(monkeypatch, b, klass):
    """The compact-model point that identify hands to the Cartan engine."""
    seen = []

    class Seen(Exception):
        pass

    def capture(m, tol=factor.DEFAULT_TOL):
        seen.append(m)
        raise Seen

    with monkeypatch.context() as patch:
        patch.setattr(milnor, f"factorize_{klass}", capture)
        with pytest.raises(Seen):
            milnor.identify(b, klass)
    return seen[0]


def _outcome(engine, m):
    try:
        return engine(m)
    except SchubertError as exc:
        return type(exc)


def _parity_inputs():
    rng = np.random.default_rng(7)
    cases = [((2, 6, 7, 8), 16, "skew", 1495112468, True)]  # raises StructureViolation
    for klass in ("symmetric", "skew"):
        for n, dresses in ((4, (False, True)), (8, (False, True)), (12, (False, True)), (16, (False,))):
            top = range(2, (n if klass == "symmetric" else n // 2) + 1)
            for dress in dresses:
                for length in rng.choice(len(top) + 1, 6):
                    entries = tuple(sorted(int(m) for m in rng.choice(top, length, replace=False)))
                    cases.append((entries, n, klass, int(rng.integers(2**31)), dress))
    return cases


class TestCartanEngineParity:
    """The stacked rank-1 conjugation of the engines against the
    per-factor loop it replaces."""

    def test_same_outcome_and_factors(self, monkeypatch):
        raised = set()
        for entries, n, klass, seed, dress in _parity_inputs():
            b = milnor.fiber_sample(SchubertSymbol(entries, n, klass), seed, dress=dress)
            m = _engine_input(monkeypatch, b, klass)
            engine = factorize_symmetric if klass == "symmetric" else factorize_skew
            got, want = _outcome(engine, m), _outcome(lambda x: _per_factor_cartan(x, klass), m)
            case = (entries, n, klass, seed, dress)
            if isinstance(want, type):
                assert got is want, case
                raised.add(want)
                continue
            assert got.symbol().entries == want.symbol().entries, case
            assert got.boundary_ambiguous == want.boundary_ambiguous, case
            pairs = list(zip(got.all_factors(), want.all_factors(), strict=True))
            assert all(abs(f.theta - g.theta) <= 1e-12 and np.max(np.abs(f.axis - g.axis)) <= 1e-12
                       for f, g in pairs), case
        assert StructureViolation in raised


class TestSchubertMaps:
    def test_all_zero_is_identity(self):
        sym = SchubertSymbol((2, 3), 3)
        lines = [e(2, 3)[:2], e(3, 3)]
        b = schubert_map(sym, [(0.0, lines[0]), (0.0, lines[1])])
        assert_allclose(b, np.eye(3), atol=1e-14)

    def test_all_one_is_identity(self):
        sym = SchubertSymbol((2, 3), 3)
        b = schubert_map(sym, [(1.0, e(2, 3)[:2]), (1.0, e(3, 3))])
        assert_allclose(b, np.eye(3), atol=1e-12)

    def test_lands_in_su(self, rng):
        sym = SchubertSymbol((2, 4), 4)
        b = schubert_map(sym, sample_interior_params(sym, rng))
        assert numlin.is_unitary(b)
        assert abs(np.linalg.det(b) - 1) < 1e-12

    def test_sy_identity_cases(self):
        sym = SchubertSymbol((3,), 3, "symmetric")
        assert_allclose(schubert_map_sy(sym, [(0.0, e(3, 3))]), np.eye(3), atol=1e-14)

    def test_sy_rejects_complex_line(self):
        from schubert.errors import PreconditionViolated

        sym = SchubertSymbol((2,), 3, "symmetric")
        with pytest.raises(PreconditionViolated):
            schubert_map_sy(sym, [(0.5, np.array([1j, 1.0]) / np.sqrt(2))])

    def test_sk_boundary_collapse(self):
        sym = SchubertSymbol((2,), 4, "skew")
        line = e(3, 4)[:3]
        assert_allclose(schubert_map_sk(sym, [(0.0, line)]), np.eye(4), atol=1e-14)
        assert_allclose(schubert_map_sk(sym, [(1.0, line)]), np.eye(4), atol=1e-12)

    def test_sk_lands_in_model(self, rng):
        sym = SchubertSymbol((2, 3), 6, "skew")
        b = schubert_map_sk(sym, sample_interior_params(sym, rng))
        assert rotor.in_cartan_model(b, "skew")

    def test_param_count_checked(self):
        sym = SchubertSymbol((2, 3), 3)
        with pytest.raises(InvalidSymbol):
            schubert_map(sym, [(0.5, e(2, 3)[:2])])

    def test_wrong_class_rejected(self):
        with pytest.raises(UnsupportedClass):
            schubert_map(SchubertSymbol((2,), 3, "symmetric"), [(0.5, e(2, 3)[:2])])


class TestEmbed:
    def test_empty(self):
        f = factorize_su(np.eye(3))
        g = embed(f, 4)
        assert g.ambient == 4 and g.symbol().entries == ()

    def test_general_symbol_stable(self):
        sym = SchubertSymbol((2,), 2)
        b = schubert_map(sym, sample_interior_params(sym, seed=4))
        f = factorize_su(b)
        g = embed(f, 3)
        assert g.symbol().entries == (2,)
        assert factorize_su(g.matrix()).symbol().entries == (2,)

    def test_skew_symbol_stable(self):
        sym = SchubertSymbol((2,), 4, "skew")
        b = schubert_map_sk(sym, sample_interior_params(sym, seed=4))
        f = factorize_skew(b)
        g = embed(f, 6)
        assert g.symbol().entries == (2,)
        assert factorize_skew(g.matrix()).symbol().entries == (2,)

    def test_wrong_step_rejected(self):
        f = factorize_su(np.eye(3))
        with pytest.raises(DimensionMismatch):
            embed(f, 5)


class TestCellMapRoundTrips:
    @pytest.mark.parametrize("klass,top", [("general", 5), ("symmetric", 4), ("skew", 3)])
    def test_every_symbol(self, klass, top):
        from schubert import cohom

        rng = np.random.default_rng(sum(map(ord, klass)))
        engine = {"general": factorize_su, "symmetric": factorize_symmetric,
                  "skew": factorize_skew}[klass]
        for entries in cohom.enumerate_symbols(top, klass):
            ambient = top if klass != "skew" else 2 * top
            sym = SchubertSymbol(entries, ambient, klass)
            for _ in range(3):
                point = cell_sample(sym, rng)
                assert engine(point).symbol().entries == entries
