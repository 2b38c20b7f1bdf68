import numpy as np
import pytest
from numpy.testing import assert_allclose

from schubert import numlin
from schubert.errors import (
    DimensionMismatch,
    NotInFiber,
    NotSkewSymmetric,
    NotSymmetric,
    OddDimension,
    SingularInput,
)
from schubert.tolerances import DEFAULT_TOL

from conftest import e


class TestHermitianInner:
    def test_unit_vector(self):
        assert numlin.hermitian_inner(e(1, 3), e(1, 3)) == 1

    def test_orthogonality(self):
        assert numlin.hermitian_inner(e(1, 3), e(2, 3)) == 0

    def test_complex_example(self):
        # <(1,i),(i,1)> = 1*conj(i) + i*conj(1) = -i + i = 0
        val = numlin.hermitian_inner([1, 1j], [1j, 1])
        assert abs(val) < 1e-15

    def test_conjugate_symmetry(self, rng):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert abs(numlin.hermitian_inner(x, y) - np.conj(numlin.hermitian_inner(y, x))) < 1e-14


class TestFroNorm:
    """The one Frobenius-norm kernel returns exactly what np.linalg.norm does."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n", range(1, 65))
    def test_equals_numpy(self, n, dtype):
        rng = np.random.default_rng(n)
        big = rng.standard_normal((2 * n, 2 * n + 1)).astype(dtype)
        if dtype is np.complex128:
            big += 1j * rng.standard_normal(big.shape)
        square = np.ascontiguousarray(big[:n, :n])
        # C-contiguous, transposed, sliced, 1-D, and 1-D with a stride
        for x in (square, square.T, big[::2, 1::2], big[0], big[1, ::2]):
            assert numlin.fro_norm(x) == np.linalg.norm(x)

    def test_zero_and_non_finite(self):
        for x in (np.zeros((3, 3), complex), np.full(2, np.inf), np.array([np.nan, 1.0])):
            assert np.array_equal(numlin.fro_norm(x), np.linalg.norm(x), equal_nan=True)


class TestPerCallForms:
    """The loop-free J and the in-place B B* - I give the bits they replace."""

    @pytest.mark.parametrize("k", range(1, 33))
    def test_jn_bytes(self, k):
        ref = np.zeros((2 * k, 2 * k), dtype=np.complex128)
        for i in range(k):
            ref[2 * i, 2 * i + 1], ref[2 * i + 1, 2 * i] = 1.0, -1.0
        assert numlin.jn(k).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 16, 32])
    def test_is_unitary_decision(self, rng, n):
        u = numlin.haar_sample(max(n, 2), "special_unitary", rng)[:n, :n]
        g = numlin.haar_sample(max(n, 2), "sl", rng)[:n, :n]
        for b in (u, u * (1 + 1e-10 * n), u * (1 + 1e-8), g):
            want = np.linalg.norm(b @ b.conj().T - np.eye(n)) <= DEFAULT_TOL.tol_residual * n
            assert numlin.is_unitary(b) == want


class TestIwasawa:
    def test_identity(self):
        parts = numlin.iwasawa_split(np.eye(3))
        assert_allclose(parts.unitary, np.eye(3), atol=1e-14)
        assert_allclose(parts.solvable, np.eye(3), atol=1e-14)

    def test_already_solvable(self):
        b = numlin.solvable_sample(4, seed=11)
        parts = numlin.iwasawa_split(b)
        assert_allclose(parts.unitary, np.eye(4), atol=1e-12)
        assert_allclose(parts.solvable, b, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_reconstruction(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            b = numlin.haar_sample(n, "sl", rng)
            parts = numlin.iwasawa_split(b)
            assert np.linalg.norm(parts.unitary @ parts.solvable - b) <= 1e-10 * np.linalg.norm(b)
            diag = np.diag(parts.solvable)
            assert np.all(diag.real > 0) and np.all(diag.imag == 0)
            assert abs(np.linalg.det(parts.unitary) - 1) < 1e-10
            assert abs(np.linalg.det(parts.solvable) - 1) < 1e-8

    def test_det_deviation_rejected(self):
        with pytest.raises(NotInFiber):
            numlin.iwasawa_split(2.0 * np.eye(3))

    def test_singular_rejected(self):
        b = np.eye(3, dtype=complex)
        b[2, 2] = 1e-300
        with pytest.raises((SingularInput, NotInFiber)):
            numlin.iwasawa_split(b)


class TestEigUnitary:
    def test_already_diagonal(self):
        eig = numlin.eig_unitary(np.diag([1j, -1j]))
        assert_allclose(sorted(eig.values, key=lambda z: z.imag), [-1j, 1j], atol=1e-12)
        assert not eig.flags.any()

    def test_identity_flagged(self):
        eig = numlin.eig_unitary(np.eye(3))
        assert eig.flags.all()

    def test_construct_then_recover(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 6):
            thetas = np.sort(rng.uniform(-3, 3, size=n))
            u = numlin.haar_sample(n, "special_unitary", rng)
            b = u @ np.diag(np.exp(1j * thetas)) @ u.conj().T
            eig = numlin.eig_unitary(b)
            got = np.sort(np.angle(eig.values))
            assert_allclose(got, thetas, atol=1e-9)
            gram = eig.vectors.conj().T @ eig.vectors
            assert np.linalg.norm(gram - np.eye(n)) < 1e-10
            for k in range(n):
                v = eig.vectors[:, k]
                assert np.linalg.norm(b @ v - eig.values[k] * v) < 1e-9

    def test_not_unitary_rejected(self):
        from schubert.errors import NotUnitary

        with pytest.raises(NotUnitary):
            numlin.eig_unitary(np.diag([2.0, 0.5]))


class TestPfaffian:
    def test_normal_form(self):
        for k in (1, 2, 3, 4):
            assert numlin.pfaffian(numlin.jn(k)) == 1.0

    def test_two_by_two(self):
        a = 2.5 - 1.25j
        assert numlin.pfaffian(np.array([[0, a], [-a, 0]])) == a

    @pytest.mark.parametrize("n", (2, 4, 6, 8))
    def test_transformation_law(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(25):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = g - g.T
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            lhs = numlin.pfaffian(c.T @ b @ c)
            rhs = np.linalg.det(c) * numlin.pfaffian(b)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_squares_to_det(self, rng):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = g - g.T
        assert abs(numlin.pfaffian(b) ** 2 - np.linalg.det(b)) < 1e-7 * abs(np.linalg.det(b))

    def test_odd_rejected(self):
        with pytest.raises(OddDimension):
            numlin.pfaffian(np.zeros((3, 3)))

    def test_not_skew_rejected(self):
        with pytest.raises(NotSkewSymmetric):
            numlin.pfaffian(np.eye(4))


def _loop_pfaffian(b, tol=DEFAULT_TOL):
    """The elimination that swaps whole rows and columns, as the reference
    for the trailing-block swaps of ``numlin.pfaffian``."""
    n = b.shape[0]
    scale = max(1.0, float(np.linalg.norm(b)))
    a = 0.5 * (b - b.T)
    pf = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        jpiv = k + 1 + int(np.argmax(np.abs(a[k, k + 1 :])))
        if abs(a[k, jpiv]) <= tol.tol_zero * scale:
            return 0.0 + 0.0j
        if jpiv != k + 1:
            a[[k + 1, jpiv], :] = a[[jpiv, k + 1], :]
            a[:, [k + 1, jpiv]] = a[:, [jpiv, k + 1]]
            pf = -pf
        pivot = a[k, k + 1]
        pf *= pivot
        if k + 2 < n:
            tau = a[k, k + 2 :] / pivot
            w = a[k + 1, k + 2 :]
            a[k + 2 :, k + 2 :] += np.outer(w, tau) - np.outer(tau, w)
    return complex(pf)


class TestTrailingBlockPfaffian:
    def test_equal_to_the_full_width_elimination(self):
        for n in range(2, 33, 2):
            for seed in range(10):
                b = numlin.haar_sample(n, "skew_fiber", seed)
                assert numlin.pfaffian(b) == _loop_pfaffian(b), (n, seed)

    def test_singular_is_zero(self):
        b = np.zeros((4, 4), dtype=complex)
        b[:2, :2] = numlin.jn(1)
        assert numlin.pfaffian(b) == 0


# each normalizer with the Haar class and the sizes of its inputs
NORMALIZERS = [
    (numlin.diagonalize_quadratic_form, "sym_fiber", (2, 3, 4, 5, 8, 16, 32)),
    (numlin.normalize_skew_form, "skew_fiber", (2, 4, 6, 8, 16, 32)),
]


class TestNormalizers:
    @pytest.mark.parametrize("normalize,klass,sizes", NORMALIZERS)
    def test_reach_the_form_with_det_one(self, normalize, klass, sizes):
        for n in sizes:
            form = np.eye(n) if klass == "sym_fiber" else numlin.jn(n // 2)
            for seed in range(20):
                b = numlin.haar_sample(n, klass, seed)
                c = normalize(b)
                assert np.linalg.norm(c.T @ b @ c - form) <= 1e-8 * n, (n, seed)
                assert abs(np.linalg.det(c) - 1) <= 1e-8 * n, (n, seed)

    def test_vanishing_diagonal_after_the_first_pivot(self, monkeypatch):
        """The Schur complement of the first pivot is [[0, y], [y, 0]], so
        the row+column trick (the only np.triu call) fires at i = 1."""
        y, u = 1j / np.sqrt(2), np.array([1.0, 1.0])
        b = np.zeros((3, 3), dtype=complex)
        b[0, 0], b[0, 1:], b[1:, 0] = 2.0, u, u
        b[1:, 1:] = np.array([[0, y], [y, 0]]) + np.outer(u, u) / 2
        assert abs(np.linalg.det(b) - 1) <= 1e-12
        tricks = []
        triu = np.triu
        monkeypatch.setattr(np, "triu", lambda m, k=0: tricks.append(m.shape) or triu(m, k))
        c = numlin.diagonalize_quadratic_form(b)
        assert tricks == [(2, 2)]
        assert np.linalg.norm(c.T @ b @ c - np.eye(3)) <= 1e-12
        assert abs(np.linalg.det(c) - 1) <= 1e-12

    def test_singular_forms_rejected(self):
        skew = np.zeros((4, 4), dtype=complex)
        skew[:2, :2] = numlin.jn(1)
        with pytest.raises(SingularInput):
            numlin.diagonalize_quadratic_form(np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(SingularInput):
            numlin.normalize_skew_form(skew)


class TestSkewElimination:
    """One skew elimination serves membership and normalization: Pf read off
    its pivots, and C kept by the FiberElement."""

    def test_pfaffian_off_the_pivots(self):
        """Both eliminations err by up to n u cond(B) (u the unit roundoff);
        Haar skew points at n = 32 have cond(B) up to about 3e6."""
        for n in range(2, 33, 2):
            for seed in range(10):
                b = numlin.haar_sample(n, "skew_fiber", seed)
                _, pf = numlin._skew_elimination(b, DEFAULT_TOL)
                bound = n * np.finfo(float).eps * np.linalg.cond(b)
                assert abs(pf - numlin.pfaffian(b)) <= bound, (n, seed)

    def test_membership_as_pfaffian_decides_it_at_large_n(self):
        """The elimination's Pf strays further from 1 than pfaffian's at
        n >= 56, so pfaffian confirms each rejection: FiberElement accepts
        a skew Haar point exactly when pfaffian's Pf passes near_one."""
        for n, seeds in ((56, range(8)), (64, range(4))):
            for seed in seeds:
                b = numlin.haar_sample(n, "skew_fiber", seed)
                try:
                    numlin.FiberElement(b, "skew")
                    accepted = True
                except NotInFiber:
                    accepted = False
                assert accepted == numlin.near_one(numlin.pfaffian(b)), (n, seed)

    def test_pivots_in_the_strict_upper_triangle(self, monkeypatch):
        swaps = []
        swap = numlin._swap
        monkeypatch.setattr(numlin, "_swap", lambda t, p, q: swaps.append(q) or swap(t, p, q))
        for n in (4, 8, 16):
            for seed in range(10):
                swaps.clear()
                numlin.normalize_skew_form(numlin.haar_sample(n, "skew_fiber", seed))
                rows, cols = swaps[::2], swaps[1::2]  # each block swaps row p to 0, then q to 1
                assert len(cols) == n // 2 and all(q > p for p, q in zip(rows, cols)), (n, seed)

    def test_element_hands_over_its_c(self, rng):
        b = numlin.haar_sample(8, "skew_fiber", rng)
        elem = numlin.FiberElement(b, "skew")
        c = numlin.normalize_skew_form(elem)
        assert np.array_equal(c, numlin.normalize_skew_form(b))
        c[:] = 0  # a copy: the element's C is unchanged
        assert np.array_equal(numlin.normalize_skew_form(elem), numlin.normalize_skew_form(b))

    def test_compact_element_is_normalized_too(self):
        j = numlin.jn(3)
        assert np.array_equal(numlin.normalize_skew_form(numlin.FiberElement(j, "skew")),
                              numlin.normalize_skew_form(j))

    def test_non_members(self):
        skew = numlin.haar_sample(4, "skew_fiber", 0)
        singular = np.zeros((4, 4), dtype=complex)
        singular[:2, :2] = 2 * numlin.jn(1)
        cases = [
            (numlin.haar_sample(3, "sl", 0), OddDimension),
            (numlin.haar_sample(4, "sl", 0), NotSkewSymmetric),
            (singular, SingularInput),
            (np.sqrt(2) * skew, NotInFiber),  # Pf = 2
        ]
        for b, raw_error in cases:
            assert not numlin.is_unitary(b)  # the elimination decides membership
            with pytest.raises(NotInFiber):
                numlin.FiberElement(b, "skew")
            with pytest.raises(raw_error):
                numlin.normalize_skew_form(b)


class TestQuadraticForm:
    def test_identity(self):
        c = numlin.diagonalize_quadratic_form(np.eye(3))
        assert_allclose(c, np.eye(3), atol=1e-12)

    def test_scaling_case(self):
        b = np.diag([4.0, 0.25]).astype(complex)
        c = numlin.diagonalize_quadratic_form(b)
        assert_allclose(c.T @ b @ c, np.eye(2), atol=1e-12)
        assert_allclose(np.abs(np.diag(c)), [0.5, 2.0], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 5, 8):
            for _ in range(20):
                d = numlin.haar_sample(n, "sl", rng)
                b = d.T @ d
                c = numlin.diagonalize_quadratic_form(b)
                assert np.linalg.norm(c.T @ b @ c - np.eye(n)) <= 1e-8
                assert abs(np.linalg.det(c) - 1) < 1e-8

    def test_zero_diagonal_pivot(self):
        # antidiagonal symmetric form with det 1: the row+column trick must fire
        b = np.array([[0, 1j], [1j, 0]], dtype=complex)
        c = numlin.diagonalize_quadratic_form(b)
        assert np.linalg.norm(c.T @ b @ c - np.eye(2)) <= 1e-10
        assert abs(np.linalg.det(c) - 1) <= 1e-10

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            numlin.diagonalize_quadratic_form(numlin.jn(1))


class TestSkewForm:
    def test_normal_form_fixed(self):
        c = numlin.normalize_skew_form(numlin.jn(2))
        assert_allclose(c.T @ numlin.jn(2) @ c, numlin.jn(2), atol=1e-12)

    def test_block_scaling(self):
        # per-block scales a and 1/a keep Pf = 1; C rescales each block by
        # the inverse square root
        a = 4.0
        b = np.zeros((4, 4), dtype=complex)
        b[:2, :2] = a * numlin.jn(1)
        b[2:, 2:] = numlin.jn(1) / a
        c = numlin.normalize_skew_form(b)
        expect = np.diag([a ** -0.5, a ** -0.5, a ** 0.5, a ** 0.5])
        assert_allclose(c, expect, atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(23)
        for n in (4, 6, 8):
            for _ in range(20):
                cc = numlin.haar_sample(n, "sl", rng)
                b = cc.T @ numlin.jn(n // 2) @ cc
                c = numlin.normalize_skew_form(b)
                assert np.linalg.norm(c.T @ b @ c - numlin.jn(n // 2)) <= 1e-8
                assert abs(np.linalg.det(c) - 1) < 1e-7

    def test_not_skew_rejected(self):
        with pytest.raises(NotSkewSymmetric):
            numlin.normalize_skew_form(np.eye(4))


class TestHaarSample:
    def test_special_unitary(self):
        u = numlin.haar_sample(2, "special_unitary", seed=3)
        assert np.linalg.norm(u @ u.conj().T - np.eye(2)) <= 1e-12
        assert abs(np.linalg.det(u) - 1) <= 1e-12

    def test_sym_fiber(self):
        b = numlin.haar_sample(2, "sym_fiber", seed=3)
        assert np.linalg.norm(b - b.T) < 1e-13
        assert abs(np.linalg.det(b) - 1) < 1e-10

    def test_skew_fiber(self):
        b = numlin.haar_sample(4, "skew_fiber", seed=3)
        assert np.linalg.norm(b + b.T) < 1e-13
        assert abs(numlin.pfaffian(b) - 1) < 1e-10

    def test_determinism(self):
        for klass in numlin.SAMPLE_CLASSES:
            n = 4
            a = numlin.haar_sample(n, klass, seed=99)
            b = numlin.haar_sample(n, klass, seed=99)
            assert (a == b).all()

    def test_solvable_samplers(self):
        def assert_solvable(e):
            """Upper triangular with positive real diagonal and det 1."""
            d = np.diag(e)
            assert np.all(np.tril(e, -1) == 0)
            assert np.all(d.real > 0) and np.all(d.imag == 0)
            assert numlin.near_one(np.linalg.det(e))

        e1 = numlin.solvable_sample(5, seed=1)
        assert_solvable(e1)
        e2 = numlin.real_solvable_sample(5, seed=1)
        assert_solvable(e2)
        assert np.all(e2.imag == 0)
        e3 = numlin.quaternionic_solvable_sample(6, seed=1)
        assert_solvable(e3)
        j = numlin.jn(3)
        assert np.linalg.norm(j @ np.conj(e3) @ np.linalg.inv(j) - e3) < 1e-12

    def test_bad_class(self):
        with pytest.raises(ValueError):
            numlin.haar_sample(3, "nope", seed=0)

    def test_skew_odd_rejected(self):
        with pytest.raises(OddDimension):
            numlin.haar_sample(3, "skew_fiber", seed=0)


# The three loop samplers that the one solvable sampler replaced, kept as its
# reference: the same draws in the same order must give the same matrices.
def _ref_solvable(n, seed):
    rng = np.random.default_rng(seed)
    diag = np.exp(rng.uniform(-0.5, 0.5, size=n))
    diag /= np.prod(diag) ** (1.0 / n)
    e = np.diag(diag.astype(np.complex128))
    iu = np.triu_indices(n, 1)
    vals = rng.standard_normal(len(iu[0])) + 1j * rng.standard_normal(len(iu[0]))
    e[iu] = 0.5 * vals
    return e


def _ref_real_solvable(n, seed):
    rng = np.random.default_rng(seed)
    diag = np.exp(rng.uniform(-0.5, 0.5, size=n))
    diag /= np.prod(diag) ** (1.0 / n)
    e = np.diag(diag.astype(np.complex128))
    iu = np.triu_indices(n, 1)
    e[iu] = 0.5 * rng.standard_normal(len(iu[0]))
    return e


def _ref_quaternionic_solvable(n, seed):
    rng = np.random.default_rng(seed)
    half = n // 2
    diag = np.exp(rng.uniform(-0.5, 0.5, size=half))
    diag /= np.prod(diag) ** (1.0 / half)
    e = np.zeros((n, n), dtype=np.complex128)
    for k in range(half):
        e[2 * k, 2 * k] = diag[k]
        e[2 * k + 1, 2 * k + 1] = diag[k]
    for k in range(half):
        for l in range(k + 1, half):
            x = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
            y = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
            e[2 * k, 2 * l] = x
            e[2 * k, 2 * l + 1] = y
            e[2 * k + 1, 2 * l] = -np.conj(y)
            e[2 * k + 1, 2 * l + 1] = np.conj(x)
    return e


SAMPLERS = [
    (numlin.solvable_sample, _ref_solvable, (1, 2, 4, 6, 8, 12, 32)),
    (numlin.real_solvable_sample, _ref_real_solvable, (1, 2, 4, 6, 8, 12, 32)),
    (numlin.quaternionic_solvable_sample, _ref_quaternionic_solvable, (2, 4, 6, 8, 12, 32)),
]


class TestSolvableSamplers:
    @pytest.mark.parametrize("sampler,ref,sizes", SAMPLERS)
    def test_equal_to_the_loop_samplers(self, sampler, ref, sizes):
        for n in sizes:
            for seed in range(20):
                assert np.array_equal(sampler(n, seed), ref(n, seed)), (n, seed)

    @pytest.mark.parametrize("sampler,ref,sizes", SAMPLERS)
    def test_leaves_the_generator_where_the_loop_samplers_do(self, sampler, ref, sizes):
        for n in sizes:
            got, want = np.random.default_rng(n), np.random.default_rng(n)
            assert np.array_equal(sampler(n, got), ref(n, want))
            assert got.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("sampler", [s for s, _, _ in SAMPLERS])
    def test_size_with_no_group_rejected(self, sampler):
        for n in (0, -2):
            with pytest.raises(DimensionMismatch):
                sampler(n, 0)

    def test_odd_quaternionic_rejected(self):
        with pytest.raises(OddDimension):
            numlin.quaternionic_solvable_sample(5, 0)
