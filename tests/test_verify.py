"""The shared invariant checks report a broken engine, and ``schubert
verify`` turns their failures into exit code 5."""
import dataclasses

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
