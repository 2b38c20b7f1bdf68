import json
import subprocess
import sys

import numpy as np
import pytest

from schubert import numlin
from schubert.serialize import MatrixDocument, dump_canonical, fmt17


def run_cli(*args, infile=None):
    cmd = [sys.executable, "-m", "schubert.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


class TestSerialization:
    def test_fmt17_round_trip(self, rng):
        for _ in range(200):
            x = float(rng.standard_normal() * 10.0 ** int(rng.integers(-8, 8)))
            assert float(fmt17(x)) == x

    def test_document_round_trip(self, rng):
        mat = numlin.haar_sample(4, "sl", rng)
        doc = MatrixDocument(n=4, klass="general", rows=mat)
        back = MatrixDocument.from_json(doc.to_json())
        assert (back.rows == doc.rows).all()
        assert back.to_json() == doc.to_json()
        for n in ("1.0", "true"):  # an n equal to the size is stored as that int
            doc = MatrixDocument.from_json(f'{{"n": {n}, "class": "general", "rows": [[[1, 0]]]}}')
            assert doc.to_json().startswith('{"n":1,')

    def test_digest_stable(self, rng):
        mat = numlin.haar_sample(3, "sl", rng)
        doc = MatrixDocument(n=3, klass="general", rows=mat)
        assert doc.digest() == MatrixDocument(n=3, klass="general", rows=mat).digest()

    def test_schema_rejected(self):
        from schubert.errors import SchubertError

        with pytest.raises(SchubertError):
            MatrixDocument.from_json('{"n": 2, "rows": []}')
        rows = [[[1.0, 0.0]] * 3] * 3
        with pytest.raises(SchubertError):  # n is not truncated to 3
            MatrixDocument.from_json(json.dumps({"n": 3.7, "class": "general", "rows": rows}))
        with pytest.raises(SchubertError, match="malformed rows field"):  # an object, not a pair
            MatrixDocument.from_json('{"n": 1, "class": "general", "rows": [[{"a": 1}]]}')

    def test_canonical_dump_is_deterministic(self):
        payload = {"b": [1.5, 2], "a": None, "flag": True}
        assert dump_canonical(payload) == dump_canonical(payload)


class TestSymbolCommand:
    def test_identity_symbol(self, tmp_path):
        doc = MatrixDocument(n=3, klass="general", rows=np.eye(3))
        path = tmp_path / "id.json"
        path.write_text(doc.to_json())
        out = run_cli("symbol", "--in", str(path))
        assert out.returncode == 0
        assert "symbol: ()" in out.stdout

    def test_planted_symmetric_fixture(self, tmp_path):
        sample = run_cli("sample", "--class", "symmetric", "--symbol", "2,3",
                         "--n", "3", "--seed", "7", "--dress-solvable")
        assert sample.returncode == 0
        path = tmp_path / "fx.json"
        path.write_text(sample.stdout)
        out = run_cli("symbol", "--in", str(path), "--out", "json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["symbol"] == "2,3"
        assert payload["boundary_ambiguous"] is False

    def test_not_in_fiber_exit_2(self, tmp_path):
        doc = MatrixDocument(n=2, klass="general", rows=2 * np.eye(2))
        path = tmp_path / "bad.json"
        path.write_text(doc.to_json())
        out = run_cli("symbol", "--in", str(path))
        assert out.returncode == 2

    def test_missing_file_exit_1(self):
        out = run_cli("symbol", "--in", "/nonexistent.json")
        assert out.returncode == 1

    def test_malformed_json_exit_1(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        out = run_cli("symbol", "--in", str(path))
        assert out.returncode == 1

    def test_object_in_rows_exit_1(self, tmp_path):
        path = tmp_path / "object.json"
        path.write_text('{"n":1,"class":"general","rows":[[{"a":1}]]}')
        out = run_cli("symbol", "--in", str(path))
        assert out.returncode == 1
        assert out.stderr.startswith("error: malformed rows field") and "Traceback" not in out.stderr

    def test_boundary_ambiguous_exit_3(self, tmp_path):
        # an eigen-angle inside the gray zone of the angle threshold
        theta = 3e-8
        rows = np.diag([np.exp(1j * theta), np.exp(-1j * theta), 1.0])
        doc = MatrixDocument(n=3, klass="general", rows=rows)
        path = tmp_path / "gray.json"
        path.write_text(doc.to_json())
        out = run_cli("symbol", "--in", str(path), "--out", "json")
        assert out.returncode == 3
        assert json.loads(out.stdout)["boundary_ambiguous"] is True

    def test_structure_violation_exit_4(self, tmp_path, monkeypatch):
        from schubert import cli, milnor
        from schubert.errors import StructureViolation

        def fail(*args, **kwargs):
            raise StructureViolation("j-partner deviates")

        monkeypatch.setattr(milnor, "factorize_skew", fail)
        doc = MatrixDocument(n=4, klass="skew", rows=numlin.jn(2))
        path = tmp_path / "skew.json"
        path.write_text(doc.to_json())
        assert cli.main(["symbol", "--in", str(path)]) == 4


class TestSampleCommand:
    def test_identity_document(self):
        out = run_cli("sample", "--class", "general", "--symbol", "", "--n", "3")
        doc = MatrixDocument.from_json(out.stdout)
        assert np.allclose(doc.rows, np.eye(3))

    def test_round_trip_general(self, tmp_path):
        out = run_cli("sample", "--class", "general", "--symbol", "2,3", "--n", "3", "--seed", "7")
        path = tmp_path / "g.json"
        path.write_text(out.stdout)
        res = run_cli("symbol", "--in", str(path), "--out", "json")
        assert json.loads(res.stdout)["symbol"] == "2,3"

    def test_skew_dimensions(self, tmp_path):
        out = run_cli("sample", "--class", "skew", "--symbol", "2", "--n", "2", "--seed", "7")
        doc = MatrixDocument.from_json(out.stdout)
        assert doc.n == 4 and doc.klass == "skew"
        path = tmp_path / "sk.json"
        path.write_text(out.stdout)
        res = run_cli("symbol", "--in", str(path), "--out", "json")
        assert json.loads(res.stdout)["symbol"] == "2"

    def test_invalid_symbol_exit_1(self):
        out = run_cli("sample", "--class", "general", "--symbol", "1,2", "--n", "3")
        assert out.returncode == 1

    def test_empty_ambient_exit_1(self, capsys):
        from schubert import cli

        for klass in ("general", "skew"):
            assert cli.main(["sample", "--class", klass, "--n", "0"]) == 1
            assert "too small" in capsys.readouterr().err

    def test_byte_determinism(self):
        a = run_cli("sample", "--class", "skew", "--symbol", "2", "--n", "2",
                    "--seed", "42", "--dress-solvable")
        b = run_cli("sample", "--class", "skew", "--symbol", "2", "--n", "2",
                    "--seed", "42", "--dress-solvable")
        assert a.stdout == b.stdout and a.stdout


class TestTables:
    def test_cells(self):
        out = run_cli("cells", "--class", "general", "--n", "3")
        assert out.returncode == 0
        assert "(2,3)\tdim=8" in out.stdout

    @pytest.mark.parametrize("klass", ["general", "symmetric", "skew"])
    def test_cells_listing_is_each_symbol_with_its_cell_dim(self, capsys, klass):
        from schubert import cli, cohom

        for n in range(1, 13):
            assert cli.main(["cells", "--class", klass, "--n", str(n)]) == 0
            ambient = n if klass != "skew" else 2 * n
            want = "".join(f"({','.join(map(str, t))})\tdim={cohom.cell_dim(t, klass)}\n"
                           for t in cohom.enumerate_symbols(n, klass))
            assert capsys.readouterr().out == want + f"total\t{2 ** (n - 1)}\tambient={ambient}\n"

    def test_betti_verdict(self):
        out = run_cli("betti", "--class", "general", "--n", "3")
        assert out.returncode == 0
        assert "verdict\tEQUAL" in out.stdout
        for deg in (0, 3, 5, 8):
            assert f"H_{deg}\trank=1" in out.stdout

    def test_betti_symmetric_needs_mod2(self):
        out = run_cli("betti", "--class", "symmetric", "--n", "3", "--ring", "Z")
        assert out.returncode == 1

    @pytest.mark.parametrize("klass", ["general", "symmetric", "skew"])
    def test_betti_at_the_size_cap(self, capsys, klass):
        from schubert import cli

        assert cli.main(["betti", "--class", klass, "--n", "20"]) == 0
        assert capsys.readouterr().out.endswith("verdict\tEQUAL\n")
        assert cli.main(["betti", "--class", klass, "--n", "21"]) == 1
        assert "above the cap" in capsys.readouterr().err

    def test_pair(self):
        out = run_cli("pair", "--n", "3", "--m", "2", "--m2", "3")
        assert out.stdout.strip() == "-1"

    def test_dual(self):
        out = run_cli("dual", "--m", "2,3")
        assert out.stdout.strip() == "-e(2)e(3)"

    def test_pdual(self):
        out = run_cli("pdual", "--m", "2", "--n", "3")
        assert out.stdout.strip() == "-e(3)"

    def test_size_caps_exit_1(self, capsys):
        from schubert import cli

        for argv in (["cells", "--class", "general", "--n", str(cli.MAX_TABLE_N + 1)],
                     ["betti", "--class", "skew", "--n", str(cli.MAX_TABLE_N + 1)],
                     ["sample", "--class", "general", "--n", str(cli.MAX_MATRIX_N + 1)],
                     ["sample", "--class", "skew", "--n", str(cli.MAX_MATRIX_N // 2 + 1)],
                     ["verify", "--n", str(cli.MAX_MATRIX_N + 1)],
                     ["pdual", "--m", "2", "--n", str(cli.MAX_MATRIX_N + 1)],
                     ["coproduct", "--m", ",".join(str(m) for m in range(2, cli.MAX_TABLE_N + 2))]):
            assert cli.main(argv) == 1
            assert "above the cap" in capsys.readouterr().err

    def test_coproduct(self):
        out = run_cli("coproduct", "--m", "4")
        assert "e(4)x1" in out.stdout and "1xe(4)" in out.stdout


class TestVerifyCommand:
    def test_suite_names_match_verify(self):
        from schubert import cli, verify

        assert cli.SUITES == verify.SUITES

    def test_cli_import_leaves_verify_unloaded(self):
        code = "import sys, schubert.cli; print('schubert.verify' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0 and out.stdout.strip() == "False"

    def test_cohom_suite_passes(self):
        out = run_cli("verify", "--suite", "cohom", "--n", "6")
        assert out.returncode == 0
        assert "summary" in out.stdout

    def test_factor_suite_reports_residual(self):
        out = run_cli("verify", "--suite", "factor", "--n", "4", "--trials", "10", "--seed", "1")
        assert out.returncode == 0
        assert "max residual" in out.stdout

    def test_skew_rows_check_matrices_below_n_4(self, capsys):
        from schubert import cli

        assert cli.main(["verify", "--suite", "factor", "--n", "3", "--trials", "3",
                         "--seed", "5"]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if "factor.reconstruction-skew" in line)
        assert float(row.split()[-1]) > 0

    def test_smoke_all(self):
        out = run_cli("verify", "--suite", "all", "--n", "2", "--trials", "1", "--seed", "0")
        assert out.returncode == 0

    def test_byte_determinism(self):
        args = ("verify", "--suite", "factor", "--n", "3", "--trials", "5", "--seed", "9")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_too_few_trials_exit_1(self, capsys):
        from schubert import cli

        assert cli.main(["verify", "--trials", "0"]) == 1
        assert "trials must be at least 1" in capsys.readouterr().err

    def test_too_small_n_exit_1(self, capsys):
        from schubert import cli

        assert cli.main(["verify", "--suite", "milnor", "--n", "1"]) == 1
        assert "n must be at least 2" in capsys.readouterr().err
