"""Numerical thresholds used by all floating-point routines."""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    """Thresholds for zero tests, residual checks and angle wrap detection.

    tol_zero      absolute threshold below which a complex value counts as zero
    tol_residual  relative threshold for matrix reconstruction residuals
    tol_angle     threshold for treating an angle as 0 (mod 2*pi)
    """

    tol_zero: float = 1e-12
    tol_residual: float = 1e-9
    tol_angle: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.tol_zero <= self.tol_residual < 1.0:
            raise ValueError("need 0 < tol_zero <= tol_residual < 1")
        if not 0.0 < self.tol_angle < math.pi / 2:
            raise ValueError("tol_angle must lie in (0, pi/2)")

    @property
    def structure(self) -> float:
        """Threshold for structural matrix identities (10x residual)."""
        return 10.0 * self.tol_residual

    @property
    def axis_snap(self) -> float:
        """Relative threshold below which axis coordinates are snapped to
        zero inside the factorization engines (100x residual).

        An axis read off a row of an input known to residual accuracy
        carries rounding of that order in every coordinate, so the snapping
        level sits well above the residual tolerance; genuine interior chart
        coordinates are many orders of magnitude larger.  A pivot coordinate
        within a factor of 4 of this level flags the result as
        boundary-ambiguous.
        """
        return 100.0 * self.tol_residual


#: Gray-zone width used for boundary-ambiguity detection: a quantity that
#: lands within a factor of GRAY_SPAN of its decision threshold was resolved
#: by thresholding rather than by a clear margin.
GRAY_SPAN = 8.0


def in_gray_zone(value: float, threshold: float, span: float = GRAY_SPAN) -> bool:
    """True when ``value`` is close enough to ``threshold`` that the
    thresholding decision is ambiguous."""
    return threshold / span < abs(value) < threshold * span


DEFAULT_TOL = ToleranceConfig()
