"""The shared invariant checks report a broken engine, and ``schubert
verify`` turns their failures into exit code 5."""
import dataclasses
import itertools

import numpy as np

from schubert import cli, verify
from schubert.factor import SchubertSymbol, factorize_su


def _wrap_identify(monkeypatch, change):
    real = verify.identify
    monkeypatch.setattr(verify, "identify", lambda b, klass: change(real(b, klass)))


def test_perturbed_factorization_fails(monkeypatch, capsys):
    def drop_first_factor(b):
        fact = factorize_su(b)
        return dataclasses.replace(fact, factors=fact.factors[1:])

    monkeypatch.setitem(verify.ENGINES, "general", drop_first_factor)
    failures, worst = verify.check_factorization("general", [3, 4], 2, 1e-8, 0)
    assert len(failures) == 4 and worst > 1e-3
    assert cli.main(["verify", "--suite", "factor", "--n", "2", "--trials", "2"]) == 5
    assert "FAIL\tfactor.reconstruction-general" in capsys.readouterr().out


def test_wrong_carried_min_indices_fail(monkeypatch, capsys):
    """An engine that carries strictly increasing min-indices other than its
    factors' axes' fails, though it reconstructs and is ordered."""
    def shift_min_indices(b):
        fact = factorize_su(b)
        return dataclasses.replace(fact, min_indices=tuple(m + 1 for m in fact.min_indices))

    monkeypatch.setitem(verify.ENGINES, "general", shift_min_indices)
    failures, worst = verify.check_factorization("general", [3, 4], 2, 1e-8, 0)
    assert [f[3] for f in failures] == ["carried"] * 4 and worst < 1e-12
    assert all(f[4] == tuple(m + 1 for m in f[5]) for f in failures)
    assert cli.main(["verify", "--suite", "factor", "--n", "2", "--trials", "2"]) == 5
    assert "FAIL\tfactor.reconstruction-general" in capsys.readouterr().out


def test_perturbed_identification_fails(monkeypatch, capsys):
    _wrap_identify(monkeypatch, lambda cid: dataclasses.replace(cid, witness=cid.witness * 1.001))
    failures, worst = verify.check_identification("symmetric", [2, 3], 2, 1e-8, 0)
    assert len(failures) == 4 and worst > 1e-4
    assert cli.main(["verify", "--suite", "milnor", "--n", "2", "--trials", "1"]) == 5
    assert "FAIL\tmilnor.identification-reconstruction-general" in capsys.readouterr().out


def test_wrong_symbol_fails(monkeypatch, capsys):
    def identity_symbol(cid):
        return dataclasses.replace(cid, symbol=SchubertSymbol((), cid.symbol.ambient))

    _wrap_identify(monkeypatch, identity_symbol)
    failures = verify.check_cell_round_trip({"general": range(2, 4)}, 1, 0, dresses=(True,))
    # every cell of n = 2 and n = 3 but the identity cells comes back as ()
    assert [f[1] for f in failures] == [(2,), (2,), (3,), (2, 3)]
    assert cli.main(["verify", "--suite", "milnor", "--n", "2", "--trials", "1"]) == 5
    assert "FAIL\tmilnor.planted-cell-recovery" in capsys.readouterr().out


def test_disagreeing_symbols_fail(monkeypatch):
    """Every other call of the general engine loses its first factor and
    that factor's min-index, so B and conj(B) keep their symbol while B^-1
    and B^T lose an entry."""
    calls = itertools.count()

    def drop_on_odd_calls(b):
        fact, k = factorize_su(b), next(calls) % 2
        return dataclasses.replace(fact, factors=fact.factors[k:], min_indices=fact.min_indices[k:])

    monkeypatch.setattr(verify, "factorize_su", drop_on_odd_calls)
    failures = verify.check_symbol_invariance([3, 4], 2, 0)
    assert [f[:2] for f in failures] == [(3, 0), (3, 1), (4, 0), (4, 1)]
    assert all(f[2][0] == f[2][2] != f[2][1] == f[2][3] for f in failures)
    assert verify.check_closure_products(range(3, 6), 4, 0)


def test_cell_moving_dressing_fails(monkeypatch, capsys):
    """A general-class "dressing" E = B^-1 sends B to the identity cell."""
    drawn = []
    haar, dressing = verify.haar_sample, verify.dressing_sample

    def record(n, klass, rng):
        drawn.append(haar(n, klass, rng))
        return drawn[-1]

    def undo(n, klass, rng):
        e = dressing(n, klass, rng)  # the same draws from the suite's generator
        return np.linalg.inv(drawn[-1]) if klass == "general" else e

    monkeypatch.setattr(verify, "haar_sample", record)
    monkeypatch.setattr(verify, "dressing_sample", undo)
    assert cli.main(["verify", "--suite", "milnor", "--n", "3", "--trials", "2"]) == 5
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL\tmilnor.solvable-action-invariance\t2 mismatches"]
