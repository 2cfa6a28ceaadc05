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
zero, as it does when its largest observation is censored.

The kernel is S_j(u) S_j(v) H_j(u ^ v), and H_j(u ^ v) is a sum of
hazard-variance increments dH_j(s) over s <= u and s <= v.  Summing over
s last turns the double integral over (u, v) into one sum over group j's
event times (the same reassociation the replicate engine uses):

    sigma2_jk = 1/4 * sum_s dH_j(s) * (A(s) + A_minus(s))^2,

with A(s) the tail sum of S_j(u) |dS_k(u)| over k's jump times u >= s and
A_minus(s) the strict tail (u > s) of S_j(u-) |dS_k(u)|.  The boundary
atom adds S_j(k) S_k(k) to both.  That is O(m log m) time and O(m) memory;
the pairwise O(m^2) quadratic form it equals is kept as a test oracle
(``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .survival import KaplanMeierFit, Sample, kaplan_meier

__all__ = ["VarianceEstimate", "variance_estimate", "variance_from_fits"]


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


def _sigma2_jk(fit_j: KaplanMeierFit, fit_k: KaplanMeierFit, boundary: bool = False) -> float:
    """Group j's kernel integrated twice against fit_k's mass, as tail sums.

    With ``boundary`` the mass fit_k keeps at the window end, S_k(k), is
    one more atom just past k (see the module docstring).  Nonnegative.
    """
    cp = fit_j.counting
    gap = (cp.y - cp.dn) * cp.y
    # a jump to zero (dN == Y) adds nothing to H_j
    dh = np.where(gap > 0, cp.dn / np.where(gap > 0, gap, 1), 0.0)
    s, g = fit_j.survival, fit_k.survival
    u, mass = g.jump_times, -g.deltas
    tail = np.append(np.cumsum((s(u) * mass)[::-1])[::-1], 0.0)
    strict = np.append(np.cumsum((s.left_limit(u) * mass)[::-1])[::-1], 0.0)
    atom = s(g.k) * g(g.k) if boundary else 0.0
    a = tail[np.searchsorted(u, cp.event_times, side="left")] + atom
    a_minus = strict[np.searchsorted(u, cp.event_times, side="right")] + atom
    return 0.25 * float(np.sum(dh * (a + a_minus) ** 2))


def variance_estimate(s1: Sample, s2: Sample) -> VarianceEstimate:
    """Variance estimate for the studentized effect statistic.

    sigma2 = (n1 n2 / n) * (sigma2_12 + sigma2_21) where sigma2_jk
    integrates group j's normalized kernel against group k's mass.  The
    group-2 term sigma2_21 also carries group 1's leftover mass S1(k) as
    an atom just past the window end: the product rule leaves the
    boundary term -S1(k) d2(k) when p_hat is linearized in group 2's
    curve.  The group-1 term has no such term.  The result is the
    delta-method variance of p_hat with Greenwood covariances, exactly.
    """
    if s1.k != s2.k:
        raise ValueError("incompatible horizons")
    f1 = kaplan_meier(s1)
    f2 = kaplan_meier(s2)
    return variance_from_fits(f1, f2)


def variance_from_fits(f1: KaplanMeierFit, f2: KaplanMeierFit) -> VarianceEstimate:
    """Variance estimate from two already-computed Kaplan-Meier fits."""
    s12 = _sigma2_jk(f1, f2)
    s21 = _sigma2_jk(f2, f1, boundary=True)
    n1, n2 = f1.n, f2.n
    n = n1 + n2
    sigma2 = (n1 * n2 / n) * (s12 + s21)
    no_events = f1.counting.event_times.size == 0 or f2.counting.event_times.size == 0
    return VarianceEstimate(
        sigma2=sigma2,
        sigma2_12=s12,
        sigma2_21=s21,
        n1=n1,
        n2=n2,
        degenerate=no_events or sigma2 <= 0.0,
    )
