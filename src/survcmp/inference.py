"""Asymptotic confidence intervals and tests for the effect and win ratio.

The studentized statistic sqrt(n1 n2 / n) (p_hat - p0) / sigma_hat is
asymptotically standard normal, which yields Wald-type intervals for the
effect p and, through the delta method, for the win ratio w = p / (1 - p).
Intervals are clamped to the parameter's range; the unclamped endpoints
are kept alongside because test inversion uses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from ._engine import identity_row, studentize
from .effect import EffectEstimate
from .survival import PooledSample, Sample, pool
from .variance import VarianceEstimate

__all__ = [
    "InferenceResult",
    "studentized_p",
    "studentized_w",
    "normal_quantile",
    "asymptotic_ci",
    "asymptotic_test",
]

_ALTERNATIVES = ("two-sided", "greater", "less")


@dataclass(frozen=True)
class InferenceResult:
    """One method's interval and test for a chosen target.

    ``ci`` is clamped to the target's range ([0, 1] for p, [0, inf) for
    w); ``ci_raw`` keeps the unclamped endpoints.  ``statistic`` is the
    studentized statistic at the null (p0 = 1/2 or w0 = 1), ``p_value``
    its tail probability under ``alternative``.  ``b`` and ``dropped``
    are 0 for the asymptotic method.
    """

    method: str
    target: str
    alternative: str
    effect: EffectEstimate
    variance: VarianceEstimate
    statistic: float
    ci: tuple[float, float]
    ci_raw: tuple[float, float]
    p_value: float
    critical: float
    alpha: float
    b: int = 0
    dropped: int = 0

    @property
    def sigma(self) -> float:
        return self.variance.sigma

    @property
    def reject(self) -> bool:
        if self.alternative == "greater":
            return self.statistic > self.critical
        if self.alternative == "less":
            return self.statistic < -self.critical
        return abs(self.statistic) > self.critical


def normal_quantile(alpha: float) -> float:
    """Upper-alpha standard normal quantile z with P(Z > z) = alpha.

    Accurate to well below 1e-9 absolute (inverse of the erf-based CDF).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return float(-special.ndtri(alpha))


def _rate(n1: int, n2: int) -> float:
    # sqrt(n1 n2 / n), the scaling of the studentized statistic
    return float(np.sqrt(n1 * n2 / (n1 + n2)))


def _observed(z: PooledSample) -> tuple[EffectEstimate, VarianceEstimate]:
    # the observed effect and variance: the engine's identity row on the
    # pool's context, which the pool's replicate sets share
    row = identity_row(z.context)
    return EffectEstimate.from_row(row, z.n1, z.n2), VarianceEstimate.from_row(row, z.n1, z.n2)


def studentized_p(s1: Sample, s2: Sample, p0: float = 0.5) -> float:
    """Studentized effect statistic sqrt(n1 n2 / n) (p_hat - p0) / sigma.

    Raises a "degenerate variance" error when sigma_hat == 0 or a group
    has no events.
    """
    return _studentized_p(*_observed(pool(s1, s2)), p0)


def _studentized_p(eff: EffectEstimate, var: VarianceEstimate, p0: float) -> float:
    if var.degenerate:
        raise ValueError("degenerate variance")
    # the replicates' studentization, so the observed row's T is theirs bit for bit
    return float(studentize(eff.p_hat, var.sigma2, True, eff.n1, eff.n2, p0))


def studentized_w(s1: Sample, s2: Sample, w0: float = 1.0) -> float:
    """Studentized win-ratio statistic via the delta method.

    sqrt(n1 n2 / n) (1 - p_hat)^2 (w_hat - w0) / sigma_hat, since
    dw/dp = 1 / (1 - p)^2.  Raises "win ratio degenerate" at p_hat == 1
    and "degenerate variance" at sigma_hat == 0 or when a group has no
    events.
    """
    return _studentized_w(*_observed(pool(s1, s2)), w0)


def _studentized_w(eff: EffectEstimate, var: VarianceEstimate, w0: float) -> float:
    if eff.p_hat >= 1.0:
        raise ValueError("win ratio degenerate")
    if var.degenerate:
        raise ValueError("degenerate variance")
    return _rate(eff.n1, eff.n2) * (1.0 - eff.p_hat) ** 2 * (eff.w_hat - w0) / var.sigma


def _interval(center: float, halfwidth_lo: float, halfwidth_hi: float, target: str,
              alternative: str) -> tuple[tuple[float, float], tuple[float, float]]:
    """Raw and clamped interval endpoints for the given alternative."""
    lo_b, hi_b = (0.0, 1.0) if target == "p" else (0.0, np.inf)
    if alternative == "two-sided":
        raw = (center - halfwidth_lo, center + halfwidth_hi)
    elif alternative == "greater":
        raw = (center - halfwidth_lo, hi_b)
    else:
        raw = (lo_b if target == "p" else 0.0, center + halfwidth_hi)
    clamped = (min(max(raw[0], lo_b), hi_b), min(max(raw[1], lo_b), hi_b))
    return raw, clamped


def _build(method: str, target: str, alternative: str, eff: EffectEstimate,
           var: VarianceEstimate, alpha: float, crit_lo: float, crit_hi: float,
           statistic: float, p_value: float, critical: float,
           b: int = 0, dropped: int = 0) -> InferenceResult:
    se = var.sigma / _rate(eff.n1, eff.n2)
    if target == "p":
        center = eff.p_hat
        scale = 1.0
    else:
        if eff.p_hat >= 1.0:
            raise ValueError("win ratio degenerate")
        center = eff.w_hat
        scale = 1.0 / (1.0 - eff.p_hat) ** 2
    raw, clamped = _interval(center, crit_lo * se * scale, crit_hi * se * scale,
                             target, alternative)
    return InferenceResult(
        method=method, target=target, alternative=alternative, effect=eff,
        variance=var, statistic=statistic, ci=clamped, ci_raw=raw,
        p_value=p_value, critical=critical, alpha=alpha, b=b, dropped=dropped,
    )


def _normal_p_value(statistic: float, alternative: str) -> float:
    if alternative == "greater":
        return float(special.ndtr(-statistic))
    if alternative == "less":
        return float(special.ndtr(statistic))
    return float(2.0 * special.ndtr(-abs(statistic)))


def _check_options(target: str, alternative: str) -> None:
    if target not in ("p", "w"):
        raise ValueError("target must be 'p' or 'w'")
    if alternative not in _ALTERNATIVES:
        raise ValueError(f"alternative must be one of {_ALTERNATIVES}")


def _asymptotic(eff: EffectEstimate, var: VarianceEstimate, alpha: float, target: str,
                alternative: str) -> InferenceResult:
    stat = _studentized_p(eff, var, 0.5) if target == "p" else _studentized_w(eff, var, 1.0)
    z = normal_quantile(alpha / 2 if alternative == "two-sided" else alpha)
    return _build("asymptotic", target, alternative, eff, var, alpha, z, z,
                  stat, _normal_p_value(stat, alternative), z)


def asymptotic_ci(s1: Sample, s2: Sample, alpha: float = 0.05, target: str = "p",
                  alternative: str = "two-sided") -> InferenceResult:
    """Normal-quantile confidence interval (and matching test) at level alpha.

    Two-sided: p_hat -/+ z_{alpha/2} sigma_hat sqrt(n / (n1 n2)), clamped
    to [0, 1]; the win-ratio interval divides the halfwidth by
    (1 - p_hat)^2 and clamps to [0, inf).  One-sided intervals use
    z_alpha and extend to the respective range boundary.
    """
    _check_options(target, alternative)
    return _asymptotic(*_observed(pool(s1, s2)), alpha, target, alternative)


def asymptotic_test(s1: Sample, s2: Sample, alpha: float = 0.05, target: str = "p",
                    alternative: str = "greater") -> InferenceResult:
    """Studentized test of p0 = 1/2 (or w0 = 1); same result object as the CI."""
    return asymptotic_ci(s1, s2, alpha=alpha, target=target, alternative=alternative)
