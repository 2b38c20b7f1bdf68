import math

import numpy as np
import pytest

import schubert
from schubert.errors import DimensionMismatch
from schubert.numlin import as_square_matrix
from schubert.tolerances import ToleranceConfig


class TestToleranceConfig:
    def test_defaults_valid(self):
        tol = ToleranceConfig()
        assert 0 < tol.tol_zero <= tol.tol_residual < 1
        assert 0 < tol.tol_angle < math.pi / 2

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ToleranceConfig(tol_zero=1e-6, tol_residual=1e-9)
        with pytest.raises(ValueError):
            ToleranceConfig(tol_residual=2.0)
        with pytest.raises(ValueError):
            ToleranceConfig(tol_angle=2.0)
        with pytest.raises(ValueError):
            ToleranceConfig(tol_angle=0.0)

    def test_derived_thresholds(self):
        tol = ToleranceConfig(tol_residual=1e-6)
        assert tol.structure == pytest.approx(1e-5)
        assert tol.axis_snap == pytest.approx(1e-4)


class TestMatrixValidation:
    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            as_square_matrix(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        bad = np.eye(2, dtype=complex)
        for value in (np.nan, np.inf * 1j, np.inf, -np.inf, np.nan * 1j, complex(1.0, -np.inf)):
            bad[0, 1] = value
            with pytest.raises(DimensionMismatch):
                as_square_matrix(bad)

    def test_accepts_views(self):
        m = np.eye(3, dtype=complex)
        out = as_square_matrix(m.T[0:3, 0:3])
        assert out.shape == (3, 3)


def test_exports_resolve_once():
    """Every name in the package's export list is bound on the package, and
    none is listed twice."""
    assert len(set(schubert.__all__)) == len(schubert.__all__)
    assert [name for name in schubert.__all__ if not hasattr(schubert, name)] == []
