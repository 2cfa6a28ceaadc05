"""Mann-Whitney effect and win ratio for censored, possibly tied samples.

The effect p = P(T1 > T2) + P(T1 = T2) / 2 is estimated on the window
[0, k] by integrating the mid-point-normalized Kaplan-Meier curve of group
1 against the Kaplan-Meier mass of group 2.  Ties receive half weight
through the normalization, which is what makes the estimate agree exactly
with the mid-rank pairwise count on uncensored data.  The integral is the
observed row of the statistic engine (``_engine.py``); this module holds
the result type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._engine import RowStatistics, identity_row
from .survival import Sample, pool

__all__ = ["EffectEstimate", "mann_whitney_effect"]


@dataclass(frozen=True)
class EffectEstimate:
    """Point estimates of the Mann-Whitney effect and the win ratio.

    ``p_hat`` lies in [0, 1]; ``w_hat`` = p_hat / (1 - p_hat), with +inf
    when p_hat == 1 (flagged, not an error).
    """

    p_hat: float
    w_hat: float
    n1: int
    n2: int

    @property
    def w_infinite(self) -> bool:
        return np.isinf(self.w_hat)

    @classmethod
    def from_row(cls, row: RowStatistics, n1: int, n2: int) -> EffectEstimate:
        """The estimate in the first row of an engine result."""
        p = float(row.p[0])
        return cls(p_hat=p, w_hat=np.inf if p >= 1.0 else p / (1.0 - p), n1=n1, n2=n2)


def mann_whitney_effect(s1: Sample, s2: Sample) -> EffectEstimate:
    """Estimate p = P(T1 > T2) + P(T1 = T2) / 2 on the common window.

    Both samples must share the same window end k; otherwise an
    "incompatible horizons" error is raised.  Mass that either
    Kaplan-Meier curve retains above its last event contributes nothing.
    """
    z = pool(s1, s2)
    return EffectEstimate.from_row(identity_row(z.context), z.n1, z.n2)
