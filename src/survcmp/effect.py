"""Mann-Whitney effect and win ratio for censored, possibly tied samples.

The effect p = P(T1 > T2) + P(T1 = T2) / 2 is estimated on the window
[0, k] by integrating the mid-point-normalized Kaplan-Meier curve of group
1 against the Kaplan-Meier mass of group 2.  Ties receive half weight
through the normalization, which is what makes the estimate agree exactly
with the mid-rank pairwise count on uncensored data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stepfun import StepFunction
from .survival import KaplanMeierFit, Sample, kaplan_meier

__all__ = [
    "EffectEstimate",
    "wilcoxon_integral",
    "mann_whitney_effect",
    "integration_by_parts_value",
]


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


def _win_ratio(p: float) -> float:
    if p >= 1.0:
        return np.inf
    return p / (1.0 - p)


def wilcoxon_integral(f_normalized, g: StepFunction) -> float:
    """Integrate a normalized curve against the mass of a step function.

    Computes sum over the jump times u of ``g`` of f_normalized(u) times
    the downward mass -(g(u) - g(u-)).  Exact jump summation, no grid.

    Parameters
    ----------
    f_normalized : callable
        Vectorized evaluator of the mid-point-normalized curve, e.g.
        ``KaplanMeierFit.normalized``.
    g : StepFunction
        Non-increasing step function whose jumps carry the mass.
    """
    u = g.jump_times
    if u.size == 0:
        return 0.0
    mass = -g.deltas
    return float(np.sum(f_normalized(u) * mass))


def mann_whitney_effect(s1: Sample, s2: Sample) -> EffectEstimate:
    """Estimate p = P(T1 > T2) + P(T1 = T2) / 2 on the common window.

    Both samples must share the same window end k; otherwise an
    "incompatible horizons" error is raised.  Mass that either
    Kaplan-Meier curve retains above its last event contributes nothing.
    """
    if s1.k != s2.k:
        raise ValueError("incompatible horizons")
    f1 = kaplan_meier(s1)
    f2 = kaplan_meier(s2)
    return effect_from_fits(f1, f2)


def effect_from_fits(f1: KaplanMeierFit, f2: KaplanMeierFit) -> EffectEstimate:
    """Effect estimate from two already-computed Kaplan-Meier fits."""
    p = wilcoxon_integral(f1.normalized, f2.survival)
    # exact summation can drift a hair outside [0, 1]
    p = min(1.0, max(0.0, p))
    return EffectEstimate(p_hat=p, w_hat=_win_ratio(p), n1=f1.n, n2=f2.n)


def integration_by_parts_value(s1: Sample, s2: Sample) -> float:
    """Companion value 1/2 - int_[0,k) S1 dS2 / 2 + int_[0,k) S2 dS1 / 2.

    The half-open domain excludes jumps exactly at k.  Equals the effect
    estimate whenever at least one Kaplan-Meier curve has no mass left at
    k; in general the two differ by S1(k) S2(k) / 2.  Cross-check only.
    """
    if s1.k != s2.k:
        raise ValueError("incompatible horizons")
    f1 = kaplan_meier(s1).survival
    f2 = kaplan_meier(s2).survival

    def _below_k(f: StepFunction, g: StepFunction) -> float:
        # int_[0,k) f dg, exact jump sum over g's jumps strictly below k
        u = g.jump_times
        keep = u < g.k
        if not keep.any():
            return 0.0
        return float(np.sum(f(u[keep]) * g.deltas[keep]))

    return 0.5 - 0.5 * _below_k(f1, f2) + 0.5 * _below_k(f2, f1)
