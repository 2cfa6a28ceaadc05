"""Variance estimation for the studentized Mann-Whitney effect.

The estimator's asymptotic variance decomposes into two terms, one per
group.  Each term integrates a covariance kernel of that group's
Kaplan-Meier process against the other group's Kaplan-Meier mass, with the
kernel normalized by averaging its four one-sided limits so that tied jump
points are weighted like mid-ranks.

The two terms are not mirror images.  Write p_hat = -sum S1^+-(u) dS2(u)
with S^+- the mid-point curve.  Perturbing S1 by d1 changes p_hat by
-int d1^+- dS2, a plain integral against group 2's mass.  Perturbing S2 by
d2 changes it by -int S1^+- dd2, and the step-function product rule
d(fg) = f^+- dg + g^+- df turns that into

    int d2^+- dS1 - S1(k) d2(k).

The boundary term is the mass that group 1's curve keeps at the window
end.  The group-2 term therefore integrates group 2's kernel against
group 1's mass plus an atom of size S1(k) placed just past k.  Without
that atom the variance falls short whenever group 1's curve ends above
zero, as it does when its largest observation is censored.  The result is
the delta-method variance of p_hat with Greenwood covariances, exactly.

Both terms are computed by the statistic engine (``_engine.py``, whose
docstring gives the single-sum form it evaluates) as part of the observed
row; this module holds the result type.  The pairwise O(m^2) quadratic
form the engine equals is kept as a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._engine import RowStatistics, identity_row
from .survival import Sample, pool

__all__ = ["VarianceEstimate", "variance_estimate"]


@dataclass(frozen=True)
class VarianceEstimate:
    """Variance of the studentized effect, sigma2 = (n1 n2 / n) (s12 + s21).

    ``degenerate`` is True when the studentized statistic is undefined:
    sigma2 vanishes, or a group has no events (its Kaplan-Meier curve is
    flat at 1 and carries no sampling variability of its own).
    """

    sigma2: float
    sigma2_12: float
    sigma2_21: float
    n1: int
    n2: int
    degenerate: bool

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.sigma2))

    @classmethod
    def from_row(cls, row: RowStatistics, n1: int, n2: int) -> VarianceEstimate:
        """The estimate in the first row of an engine result."""
        return cls(sigma2=float(row.sigma2[0]), sigma2_12=float(row.sigma2_12[0]),
                   sigma2_21=float(row.sigma2_21[0]), n1=n1, n2=n2,
                   degenerate=not row.valid[0])


def variance_estimate(s1: Sample, s2: Sample) -> VarianceEstimate:
    """Variance estimate for the studentized effect statistic.

    sigma2 = (n1 n2 / n) * (sigma2_12 + sigma2_21) where sigma2_jk
    integrates group j's normalized kernel against group k's mass, and
    sigma2_21 also carries group 1's leftover mass S1(k) as an atom just
    past the window end (see the module docstring).
    """
    z = pool(s1, s2)
    return VarianceEstimate.from_row(identity_row(z.context), z.n1, z.n2)
