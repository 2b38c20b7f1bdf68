import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from schubert import numlin, rotor
from schubert.errors import PreconditionViolated, ZeroVector
from schubert.rotor import PseudoRotation

from conftest import e


def random_axis(rng, n, m=None):
    m = n if m is None else m
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return np.concatenate([v / np.linalg.norm(v), np.zeros(n - m)])


angles = st.floats(min_value=-3.0, max_value=3.0).filter(lambda t: abs(t) > 1e-3)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestPseudoRotation:
    def test_matrix_form(self):
        rot = PseudoRotation(np.pi / 3, e(2, 4))
        x = rot.axis
        expect = np.eye(4) - (1 - np.exp(1j * np.pi / 3)) * np.outer(x, np.conj(x))
        assert_allclose(rot.matrix(), expect)

    @given(theta=angles, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_unitary_with_det_phase(self, theta, seed):
        rng = np.random.default_rng(seed)
        rot = PseudoRotation(theta, random_axis(rng, 4))
        m = rot.matrix()
        assert np.linalg.norm(m @ m.conj().T - np.eye(4)) < 1e-12
        assert abs(np.linalg.det(m) - np.exp(1j * rot.theta)) < 1e-12

    def test_apply_pi_on_axis(self):
        rot = PseudoRotation(np.pi, e(1, 3))
        assert_allclose(rotor.apply(rot, e(1, 3)), -e(1, 3), atol=1e-15)

    def test_apply_fixes_orthogonal(self, rng):
        rot = PseudoRotation(1.1, random_axis(rng, 5))
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y -= numlin.hermitian_inner(y, rot.axis) * rot.axis
        assert_allclose(rotor.apply(rot, y), y, atol=1e-13)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_angle_refused(self, theta):
        with pytest.raises(PreconditionViolated, match="not finite"):
            PseudoRotation(theta, e(1, 3))

    def test_apply_formula_example(self):
        x = (e(1, 3) + e(2, 3)) / np.sqrt(2)
        rot = PseudoRotation(np.pi / 2, x)
        got = rotor.apply(rot, e(1, 3))
        expect = e(1, 3) - ((1 - 1j) / 2) * (e(1, 3) + e(2, 3)) / np.sqrt(2) * np.sqrt(1)
        # <e1, x> = 1/sqrt(2); coefficient (1 - i)/sqrt(2) applied to x
        expect = e(1, 3) - (1 - 1j) / np.sqrt(2) * x
        assert_allclose(got, expect, atol=1e-14)


class TestMinIndex:
    def test_basis_vector(self):
        assert rotor.min_index(e(1, 4)) == 1

    def test_padded(self):
        assert rotor.min_index(np.array([0.3, 0, 0.7, 0, 0])) == 3

    def test_threshold_semantics(self):
        assert rotor.min_index(np.array([1.0, 1e-15, 0, 0])) == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroVector):
            rotor.min_index(np.zeros(3))

    def test_stack_matches_each_row(self, rng, tol):
        rows = rng.standard_normal((40, 7)) + 1j * rng.standard_normal((40, 7))
        rows *= rng.random((40, 7)) < 0.6  # trailing and inner zeros
        rows[:, 0] += 0.5
        rows[:10] = rotor.canonical_axis(rows[:10] + 1e-9 * rows[10:20])  # snapped coordinates
        rows[20:30, 4:] = 10.0 ** rng.uniform(-13, -11, size=(10, 3))  # around tol_zero
        got = rotor.min_indices(rows, tol)
        for row, m in zip(rows, got):
            big = np.abs(row) > tol.tol_zero * np.linalg.norm(row)
            assert m == rotor.min_index(row, tol) == np.flatnonzero(big)[-1] + 1
        assert rotor.min_indices(np.zeros((0, 3))).shape == (0,)
        with pytest.raises(ZeroVector):
            rotor.min_indices(np.array([[0.6, 0.8j], [0.0, 0.0]]))


class TestCanonicalAxis:
    def test_stack_matches_each_row(self, rng):
        rows = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        rows[:, 4:] *= 10.0 ** rng.uniform(-12, -6, size=(8, 2))  # some snap, some stay
        rows[2, 3:] = 0.0
        rows[5, 1:] = 1e-9
        rows *= 10.0 ** rng.uniform(-3, 3, size=(8, 1))
        stacked = rotor.canonical_axis(rows)
        assert stacked.shape == rows.shape
        for row, got in zip(rows, stacked):
            want = rotor.canonical_axis(row)
            assert np.max(np.abs(got - want)) <= 1e-15
            assert np.array_equal(got == 0, want == 0)
            assert rotor.min_index(got) == rotor.min_index(want)
            pivot = got[rotor.min_index(got) - 1]
            assert pivot.real > 0 and abs(pivot.imag) <= 1e-15

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroVector):
            rotor.canonical_axis(np.array([[0.6, 0.8j, 0.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(ZeroVector):
            rotor.canonical_axis(np.zeros(3))


class TestOfCanonical:
    def test_same_rotation_as_constructor(self, rng):
        for m in range(1, 7):
            x = random_axis(rng, 6, m)
            theta = float(rng.uniform(-10, 10))
            want = PseudoRotation(theta, x)
            got = PseudoRotation.of_canonical(theta, want.axis)
            assert got.theta == want.theta and got.axis is want.axis
            assert_allclose(got.matrix(), want.matrix(), atol=1e-15)
            assert_allclose(want.inverse().matrix(), PseudoRotation(-theta, x).matrix(), atol=1e-15)


class TestProductMatrix:
    def test_matches_dense_product(self, rng):
        rots = [PseudoRotation(t, random_axis(rng, 5, m)) for t, m in ((0.4, 2), (-2.9, 5), (np.pi, 3))]
        dense = rots[0].matrix() @ rots[1].matrix() @ rots[2].matrix()
        assert np.linalg.norm(rotor.product_matrix(rots, 5) - dense) <= 1e-14
        assert_allclose(rotor.product_matrix([], 3), np.eye(3))


class TestWhitehead:
    def test_commuting_orthogonal_axes(self):
        a = PseudoRotation(0.9, e(2, 3))
        b = PseudoRotation(1.7, e(1, 3))
        first, second, tag = rotor.whitehead_interchange(a, b)
        assert tag == "case1"
        assert_allclose(first.matrix(), b.matrix(), atol=1e-14)
        assert_allclose(second.matrix(), a.matrix(), atol=1e-13)

    def test_same_line_merge(self, rng):
        x = random_axis(rng, 3)
        a, b = PseudoRotation(0.5, x), PseudoRotation(0.8, x)
        merged, nothing, tag = rotor.whitehead_interchange(a, b)
        assert tag == "same-line" and nothing is None
        assert_allclose(merged.matrix(), a.matrix() @ b.matrix(), atol=1e-13)

    def test_same_line_cancel(self, rng):
        x = random_axis(rng, 3)
        first, second, tag = rotor.whitehead_interchange(
            PseudoRotation(0.5, x), PseudoRotation(-0.5, x)
        )
        assert tag == "same-line" and first is None and second is None

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            rotor.whitehead_interchange(PseudoRotation(1, e(1, 3)), PseudoRotation(1, e(2, 3)))

    @given(seed=seeds)
    @settings(max_examples=50, deadline=None)
    def test_case2_contract(self, seed):
        rng = np.random.default_rng(seed)
        m = 3
        a = PseudoRotation(rng.uniform(0.3, 2.8), random_axis(rng, 3, m))
        b = PseudoRotation(rng.uniform(0.3, 2.8), random_axis(rng, 3, m))
        if a.min_index() != m or b.min_index() != m:
            return
        first, second, tag = rotor.whitehead_interchange(a, b)
        outs = [f for f in (first, second) if f is not None]
        got = rotor.product_matrix(outs, 3)
        assert np.linalg.norm(got - a.matrix() @ b.matrix()) <= 1e-10
        if tag == "case2" and len(outs) == 2:
            assert first.min_index() <= m - 1
            assert second.min_index() == m


class TestQuaternionic:
    def test_jmul_e1(self):
        assert_allclose(rotor.jmul(e(1, 4)), -e(2, 4))

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_jmul_square(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert_allclose(rotor.jmul(rotor.jmul(x)), -x, atol=1e-14)

    def test_jmul_isotropy(self, rng):
        # <x, jx> = 0
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert abs(numlin.hermitian_inner(x, rotor.jmul(x))) < 1e-13

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_jmul_inner_conjugate(self, seed):
        # <jx, jy> = conj(<x, y>)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lhs = numlin.hermitian_inner(rotor.jmul(x), rotor.jmul(y))
        assert abs(lhs - np.conj(numlin.hermitian_inner(x, y))) < 1e-12

    def test_hrotation_properties(self, rng):
        """The quaternionic pair A(theta, x) A(theta, jx) that a skew peel
        removes: its halves commute, its determinant is e^(2 i theta), and it
        commutes with j up to the adjoint."""
        x = random_axis(rng, 6)
        one, two = PseudoRotation(0.9, x), PseudoRotation(0.9, rotor.jmul(x))
        assert np.linalg.norm(one.matrix() @ two.matrix() - two.matrix() @ one.matrix()) < 1e-12
        m = rotor.product_matrix([one, two], 6)
        assert abs(np.linalg.det(m) - np.exp(1.8j)) < 1e-12
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.linalg.norm(m @ rotor.jmul(v) - rotor.jmul(m.conj().T @ v)) < 1e-10

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_lemma_j_twisted_pairing(self, seed):
        # an interchange A A' = A1 A2 forces A'_j A_j = A2_j A1_j
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        a = PseudoRotation(rng.uniform(0.3, 2.8), random_axis(rng, 4, m))
        b = PseudoRotation(rng.uniform(0.3, 2.8), random_axis(rng, 4, m))
        if a.min_index() < b.min_index():
            a, b = b, a
        first, second, _ = rotor.whitehead_interchange(a, b)
        outs = [f for f in (first, second) if f is not None]
        lhs = rotor.product_matrix(
            [PseudoRotation(b.theta, rotor.jmul(b.axis)),
             PseudoRotation(a.theta, rotor.jmul(a.axis))], 4)
        rhs = rotor.product_matrix(
            [PseudoRotation(f.theta, rotor.jmul(f.axis)) for f in reversed(outs)], 4)
        assert np.linalg.norm(lhs - rhs) <= 1e-10


class TestCartan:
    """The Cartan action B -> A B sigma(A*), which keeps the model of its
    class.  A skew peel removes a pair as this action of A(-theta, y), since
    sigma(A(-theta, y)*) = A(-theta, j y)."""

    def test_identity_conjugator(self, rng):
        b = numlin.haar_sample(4, "special_unitary", rng)
        for klass, m in (("general", b), ("symmetric", b @ b.T), ("skew", b @ numlin.jn(2) @ b.T @ -numlin.jn(2))):
            assert_allclose(rotor.sigma(np.eye(4), klass), np.eye(4))
            rotor.model_element(m, klass)

    def test_symmetric_membership(self, rng):
        a = numlin.haar_sample(3, "special_unitary", rng)
        out = a @ rotor.sigma(a.conj().T, "symmetric")
        rotor.model_element(out, "symmetric")
        assert_allclose(out, a @ a.T, atol=1e-14)

    def test_skew_membership(self, rng):
        a = numlin.haar_sample(4, "special_unitary", rng)
        rotor.model_element(a @ rotor.sigma(a.conj().T, "skew"), "skew")
        c = PseudoRotation(-0.7, random_axis(rng, 4, 3))
        partner = PseudoRotation(-0.7, rotor.jmul(c.axis)).matrix()
        assert_allclose(rotor.sigma(c.matrix().conj().T, "skew"), partner, atol=1e-14)

    def test_rejects_non_model(self):
        from schubert.errors import NotInModel

        with pytest.raises(NotInModel):
            rotor.model_element(2 * np.eye(2), "symmetric")


class TestRowNorms:
    """Row norms take np.linalg.norm's own arithmetic, bit for bit."""

    @pytest.mark.parametrize("k,n", [(1, 1), (1, 5), (2, 2), (3, 8), (16, 16), (31, 32)])
    def test_equals_numpy(self, rng, k, n):
        rows = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        got = rotor._row_norms(rows)
        if k == 1:
            assert got == np.linalg.norm(rows[0])
        else:
            assert np.array_equal(got, np.linalg.norm(rows, axis=1, keepdims=True))


class TestModelElement:
    """Every failure of the model gate is NotInModel, built only when raised."""

    def test_not_unitary(self):
        from schubert.errors import NotInModel

        for klass in ("general", "symmetric"):
            with pytest.raises(NotInModel, match=f"not in the {klass} Cartan model"):
                rotor.model_element(np.diag([2.0, 0.5]), klass)  # det 1, symmetric

    def test_skew_odd_dimension(self, rng):
        from schubert.errors import NotInModel

        with pytest.raises(NotInModel, match="skew Cartan model"):
            rotor.model_element(numlin.haar_sample(3, "special_unitary", rng), "skew")

    def test_not_in_fiber(self, rng):
        from schubert.errors import NotInModel

        u = numlin.haar_sample(4, "special_unitary", rng)  # not symmetric
        skew = np.diag([1j, 1, 1, 1])  # det i
        for b, klass in ((1j * np.eye(2), "general"), (u, "symmetric"), (skew, "skew")):
            with pytest.raises(NotInModel):
                rotor.model_element(b, klass)

    def test_model_point_passes(self, rng):
        u = numlin.haar_sample(4, "special_unitary", rng)
        for b, klass in ((u, "general"), (u @ u.T, "symmetric"),
                         (u @ numlin.jn(2) @ u.T @ -numlin.jn(2), "skew")):
            elem = rotor.model_element(b, klass)
            assert elem.unitary and np.array_equal(elem.matrix, b)
