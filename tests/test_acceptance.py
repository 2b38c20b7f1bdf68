"""Acceptance criteria, one test per criterion, at the stated tolerances.

Criteria 01-09 run the invariant checks of ``schubert.verify``, the same
functions behind ``schubert verify``, at the gate's own seeds, trial counts
and bounds.  Each test prints a single pass/fail line (visible with
``pytest -s``; on failure the captured line shows up in the report).
"""
import json
import pathlib
import subprocess
import sys

from schubert import cohom, verify

DATA = pathlib.Path(__file__).parent / "data"


def _report(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} problems)"
    print(f"ACCEPTANCE {num:2d} {name}: {status}")
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"


def test_criterion_01_factorization_reconstruction():
    failures = []
    for klass in verify.ENGINES:
        sizes = verify.class_sizes(8, klass)
        failures += verify.check_factorization(klass, sizes, 100, 1e-8, 1000)[0]
        # the same bound for the fiber-level identification pipelines
        failures += verify.check_identification(klass, sizes, 100, 1e-8, 2000)[0]
    _report(1, "factorization reconstruction", failures)


def test_criterion_02_symbol_well_definedness():
    failures = verify.check_symbol_invariance(range(2, 7), 100, 50)
    _report(2, "symbol well-definedness (quadruples)", failures)


def test_criterion_03_cell_map_round_trip():
    tops = {"general": range(2, 7), "symmetric": range(2, 7), "skew": range(2, 5)}
    _report(3, "cell-map round trips incl. dressed", verify.check_cell_round_trip(tops, 10, 0))


def test_criterion_04_skew_structure_law():
    _report(4, "skew structure law", verify.check_skew_structure_law((4, 6, 8), 30, 70))


def test_criterion_05_cell_count_equals_betti():
    failures = verify.check_betti_numbers(range(2, 11))
    for key, coeffs in json.loads((DATA / "sym_char0_poincare.json").read_text()).items():
        if {str(k): v for k, v in cohom.sym_char0_poincare(int(key)).items()} != coeffs:
            failures.append(("sym_char0", key))
    for key, coeffs in json.loads((DATA / "stiefel_poincare.json").read_text()).items():
        m, n = (int(p) for p in key.split(","))
        if {str(k): v for k, v in cohom.stiefel_poincare(m, n).items()} != coeffs:
            failures.append(("stiefel", key))
    _report(5, "cell counts = Betti numbers + golden polynomials", failures)


def test_criterion_06_hopf_consistency():
    failures = verify.check_coproduct_multiplicativity(range(2, 7))
    # the (m1, m2) middle-term signs, literally
    for (m1, m2) in ((2, 3), (2, 5), (3, 4)):
        got = cohom.coproduct((m1, m2)).terms
        expect = {((m1, m2), ()): 1, ((m1,), (m2,)): -1, ((m2,), (m1,)): 1, ((), (m1, m2)): 1}
        if got != expect:
            failures.append(("pair-signs", m1, m2))
    _report(6, "Hopf coproduct consistency", failures)


def test_criterion_07_perfect_pairing():
    _report(7, "perfect intersection pairing", verify.check_perfect_pairing(range(2, 9)))


def test_criterion_08_closure_product_laws():
    _report(8, "closure and product laws", verify.check_closure_products(range(3, 6), 50, 88))


def test_criterion_09_pfaffian_law():
    failures, _ = verify.check_pfaffian_law((2, 4, 6, 8), 25, 1e-8, 90)
    _report(9, "Pfaffian transformation law", failures)


def test_criterion_10_determinism():
    failures = []

    def run(*args):
        return subprocess.run([sys.executable, "-m", "schubert.cli", *args],
                              capture_output=True, text=True)

    sample_args = ("sample", "--class", "symmetric", "--symbol", "2,3",
                   "--n", "4", "--seed", "31", "--dress-solvable")
    a, b = run(*sample_args), run(*sample_args)
    if a.stdout != b.stdout or not a.stdout:
        failures.append("cmd_sample not byte-identical")
    verify_args = ("verify", "--suite", "all", "--n", "3", "--trials", "3", "--seed", "5")
    a, b = run(*verify_args), run(*verify_args)
    if a.stdout != b.stdout or a.returncode != 0 or b.returncode != 0:
        failures.append("cmd_verify not byte-identical or failing")
    _report(10, "byte-identical determinism", failures)
