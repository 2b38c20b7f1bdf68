from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from schubert import factor, milnor, numlin, rotor, verify
from schubert.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidSymbol,
    NotInModel,
    PreconditionViolated,
    RealAxisExtractionFailure,
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
    sample_interior_params,
    schubert_map,
    schubert_map_sk,
    schubert_map_sy,
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
        for entries, ambient in (((2.7, 3), 4), (("2", 3), 4), ((2,), 4.5)):
            with pytest.raises(InvalidSymbol):  # not truncated to integers
                SchubertSymbol(entries, ambient)

    def test_ambient_too_small(self):
        SchubertSymbol((), 1)
        SchubertSymbol((), 2, "skew")
        for ambient, klass in ((0, "general"), (-1, "symmetric"), (0, "skew")):
            with pytest.raises(InvalidSymbol):
                SchubertSymbol((), ambient, klass)

    def test_attributes(self):
        s = SchubertSymbol((2, 4), 5)
        assert s.length == 2 and s.dim() == 2 * 6 - 2
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
            mins = f.min_indices
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

    @pytest.mark.parametrize("dress", [False, True])
    def test_two_lines_pushed_near_1e7(self, dress):
        b = _pushed_cell((2, 3, 5), 5, 590692229, {1: 1.1680671906639132e-07, 0: 7.465331499783564e-08},
                         "symmetric", dress=dress)
        cid = milnor.identify(b, "symmetric")
        assert cid.boundary_ambiguous or cid.symbol.entries == (2, 3, 5)

    @pytest.mark.parametrize("entries,n,seed,klass,dress,angles", [
        ((2, 3, 4, 6, 7, 8), 8, 822036871, "general", False, {0: 3.014496751170129e-09}),
        ((3, 4, 5, 6, 7), 7, 1757020036, "general", False, {0: 2.099726992296912e-09}),
        ((2, 3, 4, 5, 6), 6, 43363989, "general", False, {2: 2.823476320866946e-09}),
        ((2, 3, 5, 7), 8, 1515576749, "general", True, {0: 1.407234224319983e-09}),
        ((2, 3, 4), 4, 520096442, "general", True, {1: 1.6587780464616451e-09}),
        ((2, 3, 4, 5, 6, 7, 8), 8, 1100888145, "general", True, {0: 2.168491642320103e-09}),
        ((2, 3, 4, 5, 6), 6, 1936253828, "general", True, {0: 1.792093527586957e-09}),
        ((2, 3, 4, 5, 6), 7, 1430582916, "general", True, {0: 1.8697171407572786e-09}),
        ((2, 3, 4, 5, 6, 7, 8), 8, 1788336461, "symmetric", False, {1: 1.2965295682753985e-08}),
        ((2, 4, 5, 6), 6, 1546996, "symmetric", True, {0: 1.1112020304420308e-09}),
        ((2, 3), 6, 1849251898, "skew", False, {0: 2.3692582531597257e-09}),
        ((2, 3, 4), 8, 1858008307, "skew", False, {0: 3.205237470380473e-09}),
        ((2, 3), 6, 129975091, "skew", False, {0: 1.924054740485943e-09}),
        ((2, 3), 6, 367156608, "skew", False, {0: 2.770658254716712e-09}),
        ((2, 3, 4), 8, 195529635, "skew", False, {0: 2.881513351163478e-09}),
    ])
    def test_pushed_angle(self, entries, n, seed, klass, dress, angles):
        """A factor whose angle t is pushed toward 0: the row it owns deviates
        from e_j by about 2 pi t times its pivot, near tol_angle, and a row
        skipped with its deviation in the gray zone is flagged."""
        cid = milnor.identify(_pushed_cell(entries, n, seed, {}, klass, dress, angles), klass)
        assert cid.boundary_ambiguous or cid.symbol.entries == entries

    def test_zero_pivot_deviation_raises(self):
        # a row of the peeled polar factor deviates off its diagonal while its
        # pivot rounds to exactly 1, so no angle can be fitted there
        b = _pushed_cell((2,), 8, 949280926, {}, "skew", True, {0: 3.2951594247061424e-08})
        with pytest.raises(ConvergenceFailure):
            milnor.identify(b, "skew")

    @pytest.mark.xfail(strict=True, reason="the pushed factor moves W by far less than the gray zone "
                                           "of tol_angle, and the lower cell reconstructs the input")
    @pytest.mark.parametrize("entries,n,seed,klass,dress,angles", [
        ((2, 3, 4, 5, 6, 7), 7, 2028637078, "general", False, {3: 1.0233451916268464e-09}),
        ((2, 3, 4, 5, 6, 7), 8, 320538850, "general", False, {1: 2.2740691396101093e-09}),
        ((2, 3, 4, 5, 6, 7), 8, 320538850, "general", True, {1: 2.2740691396101093e-09}),
        ((2, 4, 5, 6), 6, 1546996, "general", True, {0: 1.1112020304420308e-09}),
        ((2, 3, 4), 8, 1215335322, "skew", False, {1: 1.5244715726095315e-09}),
    ])
    def test_pushed_angle_below_the_gray_zone(self, entries, n, seed, klass, dress, angles):
        cid = milnor.identify(_pushed_cell(entries, n, seed, {}, klass, dress, angles), klass)
        assert cid.boundary_ambiguous or cid.symbol.entries == entries

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
        gray = gray or in_gray_zone(d, tol.tol_angle)
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
        "general", n, tuple(factors), tuple(mins),
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
        assert f.symbol().entries == (3,) and f.residual < 1e-14

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

        def counted(x, tol):
            calls.append(np.shape(x))
            return canonical_axes(x, tol)

        canonical_axes = rotor._canonical_axes  # canonical_axis calls it too
        monkeypatch.setattr(rotor, "_canonical_axes", counted)
        monkeypatch.setattr(factor, "_canonical_axes", counted)
        for seed in range(3):
            calls.clear()
            factorize_su(numlin.haar_sample(n, "special_unitary", seed))
            assert len(calls) == 1, calls

    @pytest.mark.parametrize("klass", ("symmetric", "skew"))
    @pytest.mark.parametrize("n", (8, 16, 32))
    def test_cartan_canonical_axis_calls(self, monkeypatch, klass, n):
        """A Cartan peel canonicalises once whatever n: its half factors, when
        they are un-conjugated."""
        calls = []

        def counted(x, tol):
            calls.append(np.shape(x))
            return canonical_axes(x, tol)

        canonical_axes = rotor._canonical_axes  # canonical_axis calls it too
        monkeypatch.setattr(rotor, "_canonical_axes", counted)
        monkeypatch.setattr(factor, "_canonical_axes", counted)
        engine = factorize_symmetric if klass == "symmetric" else factorize_skew
        for seed in range(2):
            calls.clear()
            engine(cartan_model_sample(n, klass, seed))
            assert len(calls) == 1, calls


def _lower_entries(rng, n, least=0):
    """Random entries of a lower general cell of SU(n): fewer than n - 1."""
    return tuple(sorted(map(int, rng.choice(np.arange(2, n + 1), int(rng.integers(least, n - 1)),
                                            replace=False))))


def _polar_mins(b, tol=DEFAULT_TOL):
    """The unitary polar factor of ``b`` and the min-indices of its peel."""
    u, _, vh = np.linalg.svd(b)
    w = u @ vh
    axes = rotor.canonical_axis(factor._peel_rows(w, tol)[1], tol)
    return w, rotor.min_indices(axes, tol).tolist()


def _pushed_probes():
    """Compact lower general cells at n = 3..8 with one or two lines or
    angles pushed toward a boundary."""
    rng = np.random.default_rng(26)
    for push in ("line", "angle"):
        for _ in range(60):
            n = int(rng.integers(3, 9))
            entries = _lower_entries(rng, n, least=1)
            pushed = {int(i): 10.0 ** rng.uniform(*((-5.8, -1) if push == "line" else (-9, -1)))
                      for i in rng.choice(len(entries), min(len(entries), 2), replace=False)}
            tops, angles = (pushed, {}) if push == "line" else ({}, pushed)
            yield _pushed_cell(entries, n, int(rng.integers(2**31)), tops, angles=angles)


TOLERANCES = (DEFAULT_TOL, ToleranceConfig(tol_angle=1e-10), ToleranceConfig(tol_angle=1e-6))


class TestRankCertificate:
    """One QR certifies the rank profile of a lower cell: whenever it holds,
    the trailing-block SVDs of ``_rank_profile`` name the peel's
    min-indices with no value in a gray zone."""

    def test_planted_lower_cells(self):
        rng = np.random.default_rng(24)
        for n in range(4, 17):
            for _ in range(6):
                entries = _lower_entries(rng, n)
                w, mins = _polar_mins(cell_sample(SchubertSymbol(entries, n), int(rng.integers(2**31))))
                assert factor._certifies(w - np.eye(n), mins, DEFAULT_TOL.tol_angle), (entries, n)
                assert factor._rank_profile(w, DEFAULT_TOL) == (mins, False), (entries, n)

    def test_pushed_cells(self):
        held = refused = 0
        for b in _pushed_probes():
            n = b.shape[0]
            for tol in TOLERANCES:
                w, mins = _polar_mins(b, tol)
                if factor._certifies(w - np.eye(n), mins, tol.tol_angle):
                    held += 1
                    assert factor._rank_profile(w, tol) == (mins, False), (mins, tol)
                else:
                    refused += 1
        assert held > refused > 0, (held, refused)

    def test_same_outcome_as_the_svd_loop(self, monkeypatch):
        def outcome(b, tol):
            try:
                f = factorize_su(b, tol)
            except SchubertError as exc:
                return type(exc)
            return f.boundary_ambiguous, f.symbol().entries, f.residual

        cases = [(b, tol) for b in _pushed_probes() for tol in TOLERANCES]
        got = [outcome(b, tol) for b, tol in cases]
        monkeypatch.setattr(factor, "_certifies", lambda d, mins, tau: False)
        assert got == [outcome(b, tol) for b, tol in cases]

    def test_refuses_a_wrong_index_set(self):
        """An index dropped, added or moved, or a min-index of 1."""
        rng, tau = np.random.default_rng(25), DEFAULT_TOL.tol_angle
        for n in (4, 8, 12, 16):
            for _ in range(4):
                entries = _lower_entries(rng, n, least=1)
                w, mins = _polar_mins(cell_sample(SchubertSymbol(entries, n), int(rng.integers(2**31))))
                d = w - np.eye(n)
                assert factor._certifies(d, mins, tau) and not factor._certifies(d, [1] + mins, tau)
                others = sorted(set(range(2, n + 1)) - set(mins))
                for i in range(len(mins)):
                    dropped = mins[:i] + mins[i + 1:]
                    assert not factor._certifies(d, dropped, tau), (mins, i)
                    for j in others:  # an index moved up or down
                        assert not factor._certifies(d, sorted(dropped + [j]), tau), (mins, i, j)
                for j in others:
                    assert not factor._certifies(d, sorted(mins + [j]), tau), (mins, j)

    def test_bound_is_the_least_singular_value(self, rng):
        """Five S rows of norm 2e-7, orthogonal: sigma_min(R_SS) = 2e-7 clears
        the floor 16 tau = 1.6e-7, which 1 / ||R_SS^-1||_F = 2e-7 / sqrt(5)
        does not."""
        n, mins = 12, [3, 5, 6, 9, 12]
        q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        d = np.zeros((n, n), dtype=np.complex128)
        d[np.array(mins) - 1] = 2e-7 * q[: len(mins)]
        assert factor._certifies(d, mins, DEFAULT_TOL.tol_angle)
        assert factor._rank_profile(np.eye(n) + d, DEFAULT_TOL) == (mins, False)

    @pytest.mark.parametrize("n", (20, 24))
    def test_certified_lower_cells(self, n):
        """Every certified cell of 40 has the profile the certificate names,
        and no more cells are refused than 1 / ||R_SS^-1||_F refused: 3 at
        n = 20 and 4 at n = 24, where sigma_min(R_SS) itself is below the
        floor."""
        rng, refused = np.random.default_rng(40 + n), 0
        for _ in range(40):
            entries = _lower_entries(rng, n)
            w, mins = _polar_mins(cell_sample(SchubertSymbol(entries, n), int(rng.integers(2**31))))
            if factor._certifies(w - np.eye(n), mins, DEFAULT_TOL.tol_angle):
                assert factor._rank_profile(w, DEFAULT_TOL) == (mins, False), entries
            else:
                refused += 1
        assert refused <= {20: 3, 24: 4}[n]

    def test_svd_calls(self, monkeypatch):
        """A lower cell at n = 12 takes the polar factor's SVD and the
        certificate's of its 5 x 5 block R_SS, and no trailing-block SVD; the
        top cell, where every Haar input lies, one of rows 2..n for the
        profile; the cell (3, ..., 12) no certificate, and the two
        trailing-block SVDs at which the profile stops."""
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        svd = np.linalg.svd
        lower = cell_sample(SchubertSymbol((3, 5, 6, 9, 12), 12), seed=3)
        haar = numlin.haar_sample(12, "special_unitary", 3)
        below_top = cell_sample(SchubertSymbol(tuple(range(3, 13)), 12), seed=3)
        monkeypatch.setattr(np.linalg, "svd", counted)
        for b, want in ((lower, [(12, 12), (5, 5)]), (haar, [(12, 12), (11, 12)]),
                        (below_top, [(12, 12), (11, 12), (10, 12)])):
            calls.clear()
            factorize_su(b)
            assert calls == want


class TestDecreasingAndReverse:
    def test_identity(self):
        f = factorize_decreasing(np.eye(3))
        assert f.factors == ()

    def test_single_rotation(self):
        """The second input snaps with the caller's tight tol, under which its
        coordinate of 1e-8 is an axis coordinate that the factor must keep."""
        v = np.array([1e-8, 0.6, 0.8]) / np.linalg.norm([1e-8, 0.6, 0.8])
        tight = ToleranceConfig(tol_zero=1e-14, tol_residual=1e-12)
        for b, tol, bound in (
            (PseudoRotation(1.2, e(2, 3)).matrix() @ PseudoRotation(-1.2, e(1, 3)).matrix(), DEFAULT_TOL, 1e-10),
            (PseudoRotation(-0.9, e(1, 3)).matrix() @ (np.eye(3) - (1 - np.exp(0.9j)) * np.outer(v, v)), tight, 1e-12),
        ):
            f = factorize_decreasing(b, tol)
            assert f.residual <= bound
            assert np.linalg.norm(f.matrix() - b) <= bound
            mins = f.min_indices
            assert list(mins) == sorted(mins, reverse=True)

    def test_decreasing_reconstruction(self, rng):
        b = numlin.haar_sample(4, "special_unitary", rng)
        f = factorize_decreasing(b)
        assert np.linalg.norm(f.matrix() - b) <= 1e-9
        mins = f.min_indices
        assert all(x > y for x, y in zip(mins, mins[1:]))

    def test_residual_is_that_of_the_inverse(self, rng):
        """The reported residual is the reconstruction error of B, and the
        min-indices are those of the increasing factorization with a 1 for
        its correction."""
        inputs = [numlin.haar_sample(n, "special_unitary", rng) for n in (2, 5, 9, 16)]
        inputs.append(cell_sample(SchubertSymbol((2, 5, 7), 9), seed=11))
        for b in inputs:
            f, inc = factorize_decreasing(b), factorize_su(b)
            assert abs(f.residual - np.linalg.norm(f.matrix() - b)) <= 1e-14
            assert f.residual <= 1e-10
            assert sorted(f.min_indices) == sorted(
                list(inc.min_indices) + ([1] if inc.correction is not None else []))

    def test_one_unitarity_check_on_a_raw_array(self, monkeypatch):
        calls = []
        is_unitary = numlin.is_unitary
        monkeypatch.setattr(numlin, "is_unitary", lambda *a: calls.append(1) or is_unitary(*a))
        factorize_decreasing(numlin.haar_sample(5, "special_unitary", 3))
        assert len(calls) == 1


class TestInvariance:
    """B, B^-1, conj(B) and B^T have one symbol."""

    @staticmethod
    def symbols(b):
        return [factorize_su(m).symbol().entries for m in (b, b.conj().T, b.conj(), b.T)]

    def test_identity(self):
        assert self.symbols(np.eye(3)) == [()] * 4

    def test_su2_diagonal(self):
        assert self.symbols(np.diag([np.exp(0.9j), np.exp(-0.9j)])) == [(2,)] * 4

    def test_seeded_suite(self):
        # size 5 draws from default_rng(3 + 5)
        assert verify.check_symbol_invariance([5], 40, 3) == []


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
            mins = sorted(dec.min_indices)
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


class TestCartanPeel:
    """The gates of the two-sided Cartan peel, and inputs that the route
    over the factorization of B* refused."""

    @pytest.mark.parametrize("entries,n,klass", [((2,), 4, "skew"), ((2, 3), 3, "symmetric")])
    def test_top_cell_unflagged(self, entries, n, klass):
        """The correction's row 1 (a skew pair's rows 1 and 2 give 2) is no
        row of the rank profile, so it is left out of the comparison."""
        engine = factorize_symmetric if klass == "symmetric" else factorize_skew
        for seed in range(10):
            f = engine(cell_sample(SchubertSymbol(entries, n, klass), seed))
            assert f.symbol().entries == entries and not f.boundary_ambiguous, seed

    @pytest.mark.parametrize("entries,n,seed,tops,dress", [
        ((2, 3, 4, 5, 6), 6, 1589409352, {2: 4.124048733079918e-08}, False),
        ((2, 3, 4, 5, 6, 7), 7, 140497424, {3: 4.3452141419277715e-08}, False),
        ((3, 4, 5, 6, 7, 8), 8, 1610022671, {2: 4.148318517338926e-08}, True),
    ])
    def test_half_factors_keep_the_rows_read(self, entries, n, seed, tops, dress):
        """A line pushed to about 4e-8 un-conjugates onto the min-index of the
        factor below it: a repeated entry, which no symbol may hold."""
        b = _pushed_cell(entries, n, seed, tops, "symmetric", dress)
        with pytest.raises(ConvergenceFailure, match="min-indices"):
            milnor.identify(b, "symmetric")

    def test_skew_axis_must_leave_the_odd_coordinate(self):
        """A pair read off row j lies on C^(j - 1) + j C^(j - 1), so its axis
        has no coordinate j - 1; a unitary outside the model has one."""
        with pytest.raises(StructureViolation, match="coordinate 3"):
            factor._peel_rows(numlin.haar_sample(4, "special_unitary", 0), DEFAULT_TOL, "skew")

    @pytest.mark.parametrize("delta,left", [(1e-6, None), (1.2e-8, None), (5e-9, True), (3e-9, True),
                                            (1e-11, False)])
    def test_odd_row_after_the_pair(self, delta, left):
        """Row 3 of a skew point at n = 4 turned by delta: after the pair of
        row 4 is removed it deviates by about delta, which raises above
        tol.structure (1e-8) and flags in the gray zone of tol_angle."""
        w = PseudoRotation(delta, e(3, 4)).matrix() @ cell_sample(SchubertSymbol((2,), 4, "skew"), 3)
        if left is None:
            with pytest.raises(StructureViolation, match="row 3 deviates"):
                factor._peel_rows(w, DEFAULT_TOL, "skew")
        else:
            assert factor._peel_rows(w, DEFAULT_TOL, "skew")[4] is left

    def test_dressed_skew_point_of_a_lower_cell(self):
        """The route over B* raised "j-partner deviates by 2.32e-08" here."""
        b = milnor.fiber_sample(SchubertSymbol((2, 6, 7, 8), 16, "skew"), 1495112468, dress=True)
        cid = milnor.identify(b, "skew")
        assert cid.boundary_ambiguous or cid.symbol.entries == (2, 6, 7, 8)

    def test_dressed_symmetric_pushed_line(self):
        """The route over B* raised RealAxisExtractionFailure here, an
        imaginary residual of 5.6e-7 on an axis."""
        b = _pushed_cell((3, 4), 4, 263773726, {1: 1e-5}, "symmetric", dress=True)
        cid = milnor.identify(b, "symmetric")
        assert cid.boundary_ambiguous or cid.symbol.entries == (3, 4)


def _real_axis(x, tol):
    """The canonical real axis of the line of x: the phase of the largest
    coordinate stripped, with the symmetric engine's imaginary gate."""
    y = x * np.exp(-1j * np.angle(x[np.argmax(np.abs(x))]))
    if np.linalg.norm(y.imag) > 100 * tol.tol_residual:
        raise RealAxisExtractionFailure("imaginary residual")
    return rotor.canonical_axis(y.real, tol)


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
            c, rest = PseudoRotation(work[0].theta / 2.0, _real_axis(work[0].axis, tol)), work[1:]
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
    n, correction = elem.matrix.shape[0], None
    if halves and halves[0].min_index(tol) == 1:
        correction, halves = PseudoRotation.of_canonical(halves[0].theta, e(1, n)), halves[1:]
    mins = tuple(h.min_index(tol) for h in halves)
    fact = OrderedFactorization(klass, n, tuple(halves), mins, correction,
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


def _planted_halves(symbol, seed, tol=DEFAULT_TOL):
    """The half factors planted in ``fiber_sample(symbol, seed)``, the
    correction first, in the engines' form: a symmetric half angle outside
    (-pi/2, pi/2] is moved by pi, which splits off the real reflection
    A(pi, x), and conjugating the planted point's inner factors by it moves
    every later axis by that reflection."""
    klass = symbol.klass
    params = sample_interior_params(symbol, np.random.default_rng(seed))
    rots = factor._cell_rotations(symbol, params, klass, np.pi if klass == "symmetric" else 2 * np.pi)
    out = []
    for i, r in enumerate(rots):
        if klass == "symmetric" and not -np.pi / 2 < r.theta <= np.pi / 2:
            reflect = PseudoRotation.of_canonical(np.pi, r.axis).matrix()
            rots[i + 1:] = [PseudoRotation(s.theta, reflect @ s.axis) for s in rots[i + 1:]]
            r = PseudoRotation(r.theta - np.copysign(np.pi, r.theta), r.axis)
        if abs(r.theta) >= tol.tol_angle:
            out.append(r)
    return out


class TestCartanEngineParity:
    """The two-sided peel of the engines against the per-factor loop over
    the factorization of B* that it replaced, and both against the planted
    factors."""

    def test_same_outcome_and_factors(self, monkeypatch):
        raised = set()
        for entries, n, klass, seed, dress in _parity_inputs():
            symbol = SchubertSymbol(entries, n, klass)
            m = _engine_input(monkeypatch, milnor.fiber_sample(symbol, seed, dress=dress), klass)
            engine = factorize_symmetric if klass == "symmetric" else factorize_skew
            got, want = engine(m), _outcome(lambda x: _per_factor_cartan(x, klass), m)
            case = (entries, n, klass, seed, dress)
            if isinstance(want, type):
                raised.add(want)
                assert got.boundary_ambiguous or got.symbol().entries == entries, case
                continue
            assert got.symbol().entries == want.symbol().entries, case
            assert got.boundary_ambiguous == want.boundary_ambiguous, case
            if got.boundary_ambiguous:
                continue
            # both engines sit within about 1e-10 of the planted factors
            bound = 1e-9 if dress else 1e-10
            pairs = list(zip(got.all_factors(), _planted_halves(symbol, seed), strict=True))
            assert all(abs(f.theta - g.theta) <= bound and np.max(np.abs(f.axis - g.axis)) <= bound
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
        rotor.model_element(b, "skew")

    def test_param_count_checked(self):
        sym = SchubertSymbol((2, 3), 3)
        with pytest.raises(InvalidSymbol):
            schubert_map(sym, [(0.5, e(2, 3)[:2])])

    def test_wrong_class_rejected(self):
        with pytest.raises(UnsupportedClass):
            schubert_map(SchubertSymbol((2,), 3, "symmetric"), [(0.5, e(2, 3)[:2])])

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_angle_rejected(self, t):
        with pytest.raises(PreconditionViolated, match="not finite"):
            schubert_map(SchubertSymbol((2,), 3), [(t, [0.6, 0.8])])

    @pytest.mark.parametrize("length", [2, 3])
    def test_zero_line_rejected(self, length):
        with pytest.raises(DimensionMismatch, match="cell line is zero"):
            schubert_map(SchubertSymbol((2,), 3), [(0.5, np.zeros(length))])


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


def _read_mins(f):
    """The min-indices of the factors' axes, read again off the axes."""
    return tuple(rotor.min_indices(np.reshape([g.axis for g in f.factors], (-1, f.ambient))).tolist())


class TestCarriedMinIndices:
    """A factorization carries the min-indices its engine read, and they are
    those of its factors' axes."""

    @pytest.mark.parametrize("klass,top", [("general", 6), ("symmetric", 6), ("skew", 3)])
    @pytest.mark.parametrize("dress", [False, True])
    def test_planted(self, klass, top, dress):
        from schubert import cohom

        ambient = 2 * top if klass == "skew" else top
        for seed, entries in enumerate(cohom.enumerate_symbols(top, klass)):
            b = milnor.fiber_sample(SchubertSymbol(entries, ambient, klass), seed, dress=dress)
            f = milnor.identify(b, klass).factorization
            assert f.min_indices == _read_mins(f), (entries, seed)

    def test_pushed_probes(self):
        checked = 0
        for b in _pushed_probes():
            f = _outcome(factorize_su, b)
            if not isinstance(f, type):
                checked += 1
                assert f.min_indices == _read_mins(f)
        assert checked > 100

    @pytest.mark.parametrize("klass", verify.ENGINES)
    @pytest.mark.parametrize("n", (4, 8, 16))
    def test_haar(self, klass, n):
        for seed in range(3):
            compact = cartan_model_sample(n, klass, seed)
            fiber = numlin.haar_sample(n, verify.FIBER_SAMPLERS[klass], seed)
            for f in (verify.ENGINES[klass](compact), milnor.identify(fiber, klass).factorization):
                assert f.min_indices == _read_mins(f), seed

    def test_decreasing(self):
        inputs = [numlin.haar_sample(n, "special_unitary", n) for n in (2, 5, 9)]
        inputs += [cell_sample(SchubertSymbol(entries, 7), seed=3) for entries in ((), (3,), (2, 5, 7))]
        for b in inputs:
            f = factorize_decreasing(b)
            assert f.min_indices == _read_mins(f)

    @pytest.mark.parametrize("klass,entries,n", [("general", (2, 4), 4), ("symmetric", (3,), 3),
                                                 ("skew", (2, 3), 6)])
    def test_embed(self, klass, entries, n):
        f = verify.ENGINES[klass](cell_sample(SchubertSymbol(entries, n, klass), 5))
        g = embed(f, n + (2 if klass == "skew" else 1))
        assert g.min_indices == f.min_indices == _read_mins(g)
