import itertools
import json
import pathlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schubert import cohom
from schubert.errors import (
    InvalidSymbol,
    NotDisjoint,
    PreconditionViolated,
    UnsupportedClass,
    UnsupportedCoefficients,
)

DATA = pathlib.Path(__file__).parent / "data"

subsets = st.sets(st.integers(min_value=2, max_value=10), max_size=6).map(
    lambda s: tuple(sorted(s))
)


def splitting_formula(entries) -> dict:
    """Every ordered splitting of the symbol, signed through the validating
    epsilon, in the order of the splitting formula."""
    want = {}
    for r in range(len(entries) + 1):
        for left in itertools.combinations(entries, r):
            right = tuple(x for x in entries if x not in left)
            want[(left, right)] = (-1) ** (r * len(right)) * cohom.epsilon(left, right)
    return want


def split_of(draw_from):
    """Strategy: a symbol together with a disjoint partner inside 2..10."""
    return st.tuples(subsets, subsets).map(
        lambda ab: (ab[0], tuple(m for m in ab[1] if m not in ab[0]))
    )


class TestEnumeration:
    def test_n2(self):
        assert cohom.enumerate_symbols(2) == [(), (2,)]

    def test_n3(self):
        assert cohom.enumerate_symbols(3) == [(), (2,), (3,), (2, 3)]

    def test_count(self):
        assert len(cohom.enumerate_symbols(6)) == 32
        assert len(cohom.enumerate_symbols(6, "skew")) == 32

    @pytest.mark.parametrize("klass", cohom.CLASSES)
    def test_order_is_length_then_lex(self, klass):
        for n in range(1, 13):
            subsets = [tuple(m for m in range(2, n + 1) if mask >> (m - 2) & 1)
                       for mask in range(2 ** (n - 1))]
            assert cohom.enumerate_symbols(n, klass) == sorted(subsets, key=lambda t: (len(t), t))


    @pytest.mark.parametrize("bad", [3.5, "4", None])
    def test_non_integral_n_rejected(self, bad):
        with pytest.raises(InvalidSymbol):
            cohom.enumerate_symbols(bad)

    def test_accepts_numpy_integer_n(self):
        assert cohom.enumerate_symbols(np.int64(4)) == cohom.enumerate_symbols(4)


class TestSizes:
    """Every entry that takes a size checks it as enumerate_symbols does."""

    @pytest.mark.parametrize("call", [
        lambda: cohom.stiefel_poincare(5.5, 2),
        lambda: cohom.stiefel_poincare(5, 2.0),
        lambda: cohom.sym_char0_poincare(3.0),
        lambda: cohom.poincare_polynomial(3.5),
        lambda: cohom.generator_degrees("4"),
        lambda: cohom.poincare_dual((2,), 3.0),
        lambda: cohom.full_symbol(3.0),
        lambda: cohom.intersection_pairing((2,), (3,), 4.0),
        lambda: cohom.intersection_pairing_via_cup((2,), (3,), 4.0),
    ])
    def test_non_integral_size_rejected(self, call):
        with pytest.raises(InvalidSymbol):
            call()

    def test_numpy_integer_sizes_accepted(self):
        i = np.int64
        assert cohom.stiefel_poincare(i(3), i(2)) == cohom.stiefel_poincare(3, 2)
        assert cohom.sym_char0_poincare(i(4)) == cohom.sym_char0_poincare(4)
        assert cohom.poincare_polynomial(i(5), "skew") == cohom.poincare_polynomial(5, "skew")
        assert cohom.full_symbol(i(4)) == (2, 3, 4)
        assert cohom.intersection_pairing((2,), (3,), i(3)) == -1

    def test_integral_bounds_unchanged(self):
        assert cohom.generator_degrees(1) == [] and cohom.generator_degrees(0) == []
        with pytest.raises(InvalidSymbol):
            cohom.full_symbol(1)
        with pytest.raises(InvalidSymbol):
            cohom.sym_char0_poincare(1)
        with pytest.raises(PreconditionViolated):
            cohom.intersection_pairing((2,), (), 1)


class TestCellDim:
    def test_general(self):
        assert cohom.cell_dim((2, 3), "general") == 8

    def test_symmetric(self):
        assert cohom.cell_dim((2, 3), "symmetric") == 5

    def test_skew(self):
        assert cohom.cell_dim((2, 3), "skew") == 14

    def test_rejects_bad_tuple(self):
        with pytest.raises(InvalidSymbol):
            cohom.cell_dim((3, 2))

    @pytest.mark.parametrize("klass", cohom.CLASSES)
    def test_closed_form_is_the_degree_sum(self, klass):
        for entries in cohom.enumerate_symbols(10, klass):
            want = sum(cohom.generator_degree(m, klass) for m in entries)
            assert cohom.cell_dim(entries, klass) == want

    @pytest.mark.parametrize("klass", cohom.CLASSES)
    def test_cell_dims_pairs_each_symbol_with_its_dim(self, klass):
        symbols, dims = cohom.cell_dims(9, klass)
        assert symbols == cohom.enumerate_symbols(9, klass)
        assert dims == [cohom.cell_dim(t, klass) for t in symbols]

    def test_unknown_class_rejected_for_every_symbol(self):
        for entries in ((), (2, 3)):
            with pytest.raises(UnsupportedClass):
                cohom.cell_dim(entries, "bogus")

    def test_rejects_non_integral_entries(self):
        for entries in ((2.7, 3), (2.0, 3), (np.float64(2), 3), ("2", 3), 5):
            with pytest.raises(InvalidSymbol):
                cohom.cell_dim(entries)

    def test_generator_degree_values(self):
        for m in range(2, 21):
            got = [cohom.generator_degree(m, klass) for klass in ("general", "symmetric", "skew")]
            assert got == [2 * m - 1, m, 4 * m - 3], m

    def test_generator_degree_rejects_non_generators(self):
        for args in ((2.5,), (-3,), (1, "skew"), (1,), ("2",)):
            with pytest.raises(InvalidSymbol):
                cohom.generator_degree(*args)

    def test_accepts_numpy_integers(self):
        assert cohom.cell_dim(np.array([2, 3])) == 8
        assert cohom.cell_dim((np.int64(2), np.int32(3)), "skew") == 14


class TestBetti:
    def test_su3(self):
        assert cohom.betti_table(3, "general", "Z") == {0: 1, 3: 1, 5: 1, 8: 1}

    def test_su3_so3_mod2(self):
        assert cohom.betti_table(3, "symmetric", "Z2") == {0: 1, 2: 1, 3: 1, 5: 1}

    def test_su4_sp2(self):
        assert cohom.betti_table(2, "skew", "Z") == {0: 1, 5: 1}

    def test_symmetric_over_z_rejected(self):
        with pytest.raises(UnsupportedCoefficients):
            cohom.betti_table(3, "symmetric", "Z")

    @pytest.mark.parametrize("klass,ring", [("general", "Z"), ("symmetric", "Z2"), ("skew", "Z")])
    def test_matches_poincare(self, klass, ring):
        for n in range(2, 11):
            assert cohom.betti_table(n, klass, ring) == cohom.poincare_polynomial(n, klass)

    @pytest.mark.parametrize("klass,ring", [("general", "Z"), ("symmetric", "Z2"), ("skew", "Z")])
    def test_counts_the_enumerated_cell_dims(self, klass, ring):
        for n in range(1, 13):
            want = Counter(cohom.cell_dim(t, klass) for t in cohom.enumerate_symbols(n, klass))
            assert cohom.betti_table(n, klass, ring) == want

    @pytest.mark.parametrize("bad", [3.5, "4"])
    def test_non_integral_n_rejected(self, bad):
        with pytest.raises(InvalidSymbol):
            cohom.betti_table(bad)

    def test_unknown_class_or_ring_rejected(self):
        with pytest.raises(UnsupportedClass):
            cohom.betti_table(3, "bogus")
        with pytest.raises(UnsupportedCoefficients):
            cohom.betti_table(3, "general", "Q")
        with pytest.raises(InvalidSymbol):
            cohom.betti_table(0)

    @pytest.mark.parametrize("klass,ring", [("general", "Z"), ("symmetric", "Z2"), ("skew", "Z")])
    def test_poincare_check_sees_a_dropped_symbol(self, monkeypatch, klass, ring):
        # the Betti table is counted over one entry per cell, not derived
        # from the product expansion it is checked against
        cell_dim_array = cohom._cell_dim_array
        monkeypatch.setattr(cohom, "_cell_dim_array", lambda n, k: cell_dim_array(n, k)[1:])
        assert cohom.betti_table(6, klass, ring) != cohom.poincare_polynomial(6, klass)

    @pytest.mark.parametrize("klass", cohom.CLASSES)
    def test_cell_dim_array_is_one_entry_per_cell(self, klass):
        for n in range(1, 13):
            dims = cohom._cell_dim_array(n, klass)
            assert len(dims) == 2 ** (n - 1)
            for i, d in enumerate(dims.tolist()):
                assert d == cohom.cell_dim(tuple(m for m in range(2, n + 1) if i >> (m - 2) & 1), klass)
            assert sorted(dims.tolist()) == sorted(cohom.cell_dims(n, klass)[1])

    @pytest.mark.parametrize("klass,ring", [("general", "Z"), ("symmetric", "Z2"), ("skew", "Z")])
    def test_memory_ceiling_at_the_cli_cap(self, klass, ring):
        # the CLI's MAX_TABLE_N; a table of 2^19 symbol tuples peaks near 79 MiB
        tracemalloc.start()
        try:
            table = cohom.betti_table(20, klass, ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert sum(table.values()) == 2 ** 19


class TestPoincareData:
    def test_sym_char0_examples(self):
        assert cohom.sym_char0_poincare(3) == {0: 1, 5: 1}
        assert cohom.sym_char0_poincare(2) == {0: 1, 2: 1}
        assert cohom.sym_char0_poincare(4) == {0: 1, 4: 1, 5: 1, 9: 1}

    def test_sym_char0_golden(self):
        golden = json.loads((DATA / "sym_char0_poincare.json").read_text())
        for m_str, coeffs in golden.items():
            got = cohom.sym_char0_poincare(int(m_str))
            assert {str(k): v for k, v in got.items()} == coeffs

    def test_stiefel_examples(self):
        assert cohom.stiefel_poincare(3, 2) == {0: 1, 3: 1, 5: 1, 8: 1}
        assert cohom.stiefel_poincare(2, 1) == {0: 1, 3: 1}
        assert cohom.stiefel_poincare(5, 1) == {0: 1, 9: 1}

    def test_stiefel_golden(self):
        golden = json.loads((DATA / "stiefel_poincare.json").read_text())
        for key, coeffs in golden.items():
            m, n = (int(p) for p in key.split(","))
            got = cohom.stiefel_poincare(m, n)
            assert {str(k): v for k, v in got.items()} == coeffs

    def test_stiefel_rejects_bad_shape(self):
        with pytest.raises(InvalidSymbol):
            cohom.stiefel_poincare(2, 2)


class TestSigns:
    def test_epsilon_examples(self):
        assert cohom.epsilon((2,), (3,)) == 1
        assert cohom.epsilon((3,), (2,)) == -1
        assert cohom.epsilon((2, 5), (3, 4)) == 1

    def test_epsilon_not_disjoint(self):
        with pytest.raises(NotDisjoint):
            cohom.epsilon((2,), (2, 3))

    @given(split_of(None))
    @settings(max_examples=80, deadline=None)
    def test_epsilon_bilinearity(self, pair):
        a, b = pair
        if not a or not b:
            return
        assert cohom.epsilon(a, b) * cohom.epsilon(b, a) == (-1) ** (len(a) * len(b))

    def test_beta(self):
        assert cohom.beta(()) == 0
        assert cohom.beta((2, 3)) == 1
        assert cohom.beta((2, 3, 4, 5)) == 6


class TestExtAlgebra:
    def test_anticommute(self):
        e2 = cohom.ExtElement({(2,): 1})
        e3 = cohom.ExtElement({(3,): 1})
        assert cohom.ext_mul(e2, e3).terms == {(2, 3): 1}
        assert cohom.ext_mul(e3, e2).terms == {(2, 3): -1}

    def test_square_zero(self):
        e2 = cohom.ExtElement({(2,): 1})
        assert cohom.ext_mul(e2, e2).terms == {}

    def test_mod2_signs_vanish(self):
        e2 = cohom.ExtElement({(2,): 1}, "Z2")
        e3 = cohom.ExtElement({(3,): 1}, "Z2")
        assert cohom.ext_mul(e3, e2).terms == {(2, 3): 1}

    @given(subsets, subsets, subsets)
    @settings(max_examples=40, deadline=None)
    def test_associativity(self, a, b, c):
        ea, eb, ec = (cohom.ExtElement({t: 1}) for t in (a, b, c))
        left = cohom.ext_mul(cohom.ext_mul(ea, eb), ec)
        right = cohom.ext_mul(ea, cohom.ext_mul(eb, ec))
        assert left.terms == right.terms

    def test_format(self):
        assert cohom.format_element(cohom.kronecker_dual((2, 3))) == "-e(2)e(3)"
        assert cohom.format_element(cohom.ExtElement({(): 1})) == "1"
        assert cohom.format_element(cohom.ExtElement({})) == "0"


class TestKroneckerDual:
    def test_single(self):
        assert cohom.kronecker_dual((2,)).terms == {(2,): 1}

    def test_pair_sign(self):
        assert cohom.kronecker_dual((2, 3)).terms == {(2, 3): -1}

    def test_triple_sign(self):
        assert cohom.kronecker_dual((2, 3, 4)).terms == {(2, 3, 4): -1}

    def test_degree_bookkeeping(self):
        for entries in cohom.enumerate_symbols(10):
            if not entries:
                continue
            ((mono, _),) = cohom.kronecker_dual(entries).terms.items()
            assert cohom.cell_dim(mono) == cohom.cell_dim(entries)

    def test_conjectural_classes_gated(self):
        with pytest.raises(UnsupportedClass):
            cohom.kronecker_dual((2,), "symmetric")
        out = cohom.kronecker_dual((2,), "symmetric", assume_conjecture=True)
        assert out.ring == "Z2" and out.terms == {(2,): 1}


class TestCoproduct:
    def test_primitive(self):
        assert cohom.coproduct((4,)).terms == {((4,), ()): 1, ((), (4,)): 1}

    def test_pair_signs_literal(self):
        got = cohom.coproduct((2, 3)).terms
        assert got == {
            ((2, 3), ()): 1,
            ((2,), (3,)): -1,
            ((3,), (2,)): 1,
            ((), (2, 3)): 1,
        }

    def test_empty(self):
        assert cohom.coproduct(()).terms == {((), ()): 1}

    def test_counit(self):
        for entries in cohom.enumerate_symbols(6):
            strip = {a: c for (a, b), c in cohom.coproduct(entries).terms.items() if b == ()}
            assert strip == {entries: 1}

    @given(subsets.filter(lambda t: len(t) <= 5))
    @settings(max_examples=30, deadline=None)
    def test_coassociativity(self, entries):
        delta = cohom.coproduct(entries)
        left: dict = {}
        right: dict = {}
        for (a, b), c in delta.terms.items():
            for (a1, a2), c1 in cohom.coproduct(a).terms.items():
                left[(a1, a2, b)] = left.get((a1, a2, b), 0) + c * c1
            for (b1, b2), c1 in cohom.coproduct(b).terms.items():
                right[(a, b1, b2)] = right.get((a, b1, b2), 0) + c * c1
        assert {k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v}

    def test_splitting_formula(self):
        for entries in cohom.enumerate_symbols(10):
            got = cohom.coproduct(entries)
            assert isinstance(got, cohom.TensorElement)
            want = cohom.TensorElement(splitting_formula(entries))
            assert list(got.terms.items()) == list(want.terms.items())

    @pytest.mark.parametrize("length", [11, 12, 13, 14])
    def test_splitting_formula_long_symbols(self, length):
        rng = np.random.default_rng(length)
        for _ in range(2):
            entries = tuple(sorted(int(x) for x in rng.choice(range(2, 21), length, replace=False)))
            got = cohom.coproduct(entries)
            want = cohom.TensorElement(splitting_formula(entries))
            assert list(got.terms.items()) == list(want.terms.items())

    def test_multiplicativity_mechanism(self):
        for entries in cohom.enumerate_symbols(8):
            assert cohom.coproduct_via_primitives(entries) == cohom.coproduct(entries).terms


class TestValidateOnce:
    """Each public entry point checks each symbol argument once: a 3-entry
    symbol and its complement at n = 8 cost one ``check_entries`` call each,
    and a call with no symbol argument costs none."""

    M, COMP, N = (2, 4, 7), (3, 5, 6, 8), 8
    CALLS = {
        "coproduct": (lambda m, comp, n: cohom.coproduct(m), 1),
        "poincare_dual": (lambda m, comp, n: cohom.poincare_dual(m, n), 1),
        "intersection_pairing": (cohom.intersection_pairing, 2),
        "intersection_pairing_via_cup": (cohom.intersection_pairing_via_cup, 2),
        "kronecker_dual": (lambda m, comp, n: cohom.kronecker_dual(m), 1),
        # no symbol argument: the labels 2..n it generates are not checked
        "poincare_polynomial": (
            lambda m, comp, n: [cohom.poincare_polynomial(n, k) for k in cohom.CLASSES], 0),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_one_check_per_symbol(self, monkeypatch, name):
        checked = []
        check = cohom.check_entries
        monkeypatch.setattr(cohom, "check_entries", lambda m: checked.append(m) or check(m))
        call, symbols = self.CALLS[name]
        call(self.M, self.COMP, self.N)
        assert len(checked) == symbols, checked

    @pytest.mark.parametrize("bad", [(2.5, 4), (4, 3), ("2",), (1, 3)])
    def test_bad_symbols_still_refused(self, bad):
        calls = [
            lambda: cohom.coproduct(bad),
            lambda: cohom.poincare_dual(bad, self.N),
            lambda: cohom.kronecker_dual(bad),
        ]
        for route in (cohom.intersection_pairing, cohom.intersection_pairing_via_cup):
            calls += [lambda f=route: f(bad, self.COMP, self.N),
                      lambda f=route: f(self.M, bad, self.N)]
        for call in calls:
            with pytest.raises(InvalidSymbol):
                call()

    @pytest.mark.parametrize("route", [cohom.intersection_pairing,
                                       cohom.intersection_pairing_via_cup])
    def test_wrong_lengths_still_refused(self, route):
        with pytest.raises(PreconditionViolated, match="complementary degrees"):
            route(self.M, (3, 5), self.N)


class TestPoincareDual:
    def test_top_cell(self):
        assert cohom.poincare_dual((2, 3), 3).terms == {(): 1}

    def test_empty_cell(self):
        assert cohom.poincare_dual((), 3).terms == {(2, 3): -1}

    def test_single(self):
        assert cohom.poincare_dual((2,), 3).terms == {(3,): -1}

    def test_rejects_outside(self):
        with pytest.raises(InvalidSymbol):
            cohom.poincare_dual((5,), 3)


class TestIntersectionPairing:
    def test_n3_example(self):
        assert cohom.intersection_pairing((2,), (3,), 3) == -1

    def test_not_complement_zero(self):
        assert cohom.intersection_pairing((2,), (2,), 3) == 0

    def test_length_precondition(self):
        with pytest.raises(PreconditionViolated):
            cohom.intersection_pairing((2,), (2, 3), 3)

    def test_dual_route_consistency(self):
        assert (cohom.intersection_pairing((2,), (3, 4), 4)
                == cohom.intersection_pairing_via_cup((2,), (3, 4), 4))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_perfect_pairing(self, n):
        symbols = cohom.enumerate_symbols(n)
        by_len: dict = {}
        for s in symbols:
            by_len.setdefault(len(s), []).append(s)
        for r, rows in by_len.items():
            cols = by_len.get(n - 1 - r, [])
            for a in rows:
                hits = [b for b in cols if cohom.intersection_pairing(a, b, n) != 0]
                assert len(hits) == 1
                b = hits[0]
                v = cohom.intersection_pairing(a, b, n)
                assert v in (1, -1)
                assert v == cohom.intersection_pairing_via_cup(a, b, n)
