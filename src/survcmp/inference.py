"""The observed estimate, and asymptotic intervals and tests built on it.

The effect p = P(T1 > T2) + P(T1 = T2) / 2 and the two variance terms of
its studentization are the observed row of the statistic engine
(``_engine.py``, whose docstring derives them); :class:`Estimate` holds
that row.

The studentized statistic sqrt(n1 n2 / n) (p_hat - p0) / sigma_hat is
asymptotically standard normal, which yields Wald-type intervals for the
effect p and, through the delta method, for the win ratio w = p / (1 - p).
Intervals are clamped to the parameter's range; the unclamped endpoints
are kept alongside because test inversion uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from ._engine import RowStatistics, identity_row, studentize
from .survival import PooledSample, Sample, pool

__all__ = [
    "Estimate",
    "InferenceResult",
    "mann_whitney_effect",
    "studentized_p",
    "studentized_w",
    "normal_quantile",
    "asymptotic_ci",
    "asymptotic_test",
]

_ALTERNATIVES = ("two-sided", "greater", "less")

_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class Estimate:
    """The observed effect, win ratio and variance of the studentized effect.

    ``p_hat`` lies in [0, 1]; ``w_hat`` = p_hat / (1 - p_hat), with +inf
    when p_hat == 1 (flagged, not an error).  sigma2 = (n1 n2 / n)
    (sigma2_12 + sigma2_21).  ``degenerate`` is True when the studentized
    statistic is undefined: sigma2 vanishes, or a group has no events (its
    Kaplan-Meier curve is flat at 1 and carries no sampling variability of
    its own).
    """

    p_hat: float
    w_hat: float
    sigma2: float
    sigma2_12: float
    sigma2_21: float
    n1: int
    n2: int
    degenerate: bool

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.sigma2))

    @property
    def w_infinite(self) -> bool:
        return np.isinf(self.w_hat)

    @classmethod
    def from_row(cls, row: RowStatistics, n1: int, n2: int) -> Estimate:
        """The estimate in the first row of an engine result."""
        p = float(row.p[0])
        return cls(p_hat=p, w_hat=np.inf if p >= 1.0 else p / (1.0 - p),
                   sigma2=float(row.sigma2[0]), sigma2_12=float(row.sigma2_12[0]),
                   sigma2_21=float(row.sigma2_21[0]), n1=n1, n2=n2,
                   degenerate=not row.valid[0])


@dataclass(frozen=True)
class InferenceResult:
    """One method's interval and test for a chosen target.

    ``ci`` is clamped to the target's range ([0, 1] for p, [0, inf) for
    w); ``ci_raw`` keeps the unclamped endpoints.  ``statistic`` is the
    studentized statistic at the null (p0 = 1/2 or w0 = 1), ``p_value``
    its tail probability under ``alternative``.  ``b`` and ``dropped``
    are 0 for the asymptotic method, and so is ``rank``, the order
    statistic ceil((1 - alpha) (b_eff + 1)) of a resampling method's
    critical value.
    """

    method: str
    target: str
    alternative: str
    estimate: Estimate
    statistic: float
    ci: tuple[float, float]
    ci_raw: tuple[float, float]
    p_value: float
    critical: float
    alpha: float
    b: int = 0
    dropped: int = 0
    rank: int = 0

    @property
    def sigma(self) -> float:
        return self.estimate.sigma

    @property
    def capped(self) -> bool:
        """True when ``rank`` exceeds b_eff and the largest replicate stands
        in for the quantile, so the level is not guaranteed."""
        return self.rank > self.b - self.dropped

    @property
    def reject(self) -> bool:
        if self.alternative == "greater":
            return self.statistic > self.critical
        if self.alternative == "less":
            return self.statistic < -self.critical
        return abs(self.statistic) > self.critical


def normal_quantile(alpha: float) -> float:
    """Upper-alpha standard normal quantile z with P(Z > z) = alpha.

    The standard library's inverse normal CDF (Wichura's AS 241 rational
    approximations) is within 2e-15 relative of an independent
    double-precision inverse for alpha from 1e-300 to 1 - 1e-15, a few
    units in the last place.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return -_STANDARD_NORMAL.inv_cdf(alpha)


def _rate(n1: int, n2: int) -> float:
    # sqrt(n1 n2 / n), the scaling of the studentized statistic
    return float(np.sqrt(n1 * n2 / (n1 + n2)))


def _observed(z: PooledSample) -> Estimate:
    # the engine's identity row on the pool's context, which the pool's
    # replicate sets share
    return Estimate.from_row(identity_row(z.context), z.n1, z.n2)


def mann_whitney_effect(s1: Sample, s2: Sample) -> Estimate:
    """Estimate p = P(T1 > T2) + P(T1 = T2) / 2 on the common window.

    The mid-point-normalized Kaplan-Meier curve of group 1 is integrated
    against the Kaplan-Meier mass of group 2; the normalization gives ties
    half weight, so the estimate equals the mid-rank pairwise count on
    uncensored data.  Both samples must share the same window end k;
    otherwise an "incompatible horizons" error is raised.  Mass that
    either Kaplan-Meier curve retains above its last event contributes
    nothing.  The variance terms of the studentized effect come with it.
    """
    return _observed(pool(s1, s2))


def studentized_p(s1: Sample, s2: Sample, p0: float = 0.5) -> float:
    """Studentized effect statistic sqrt(n1 n2 / n) (p_hat - p0) / sigma.

    Raises a "degenerate variance" error when sigma_hat == 0 or a group
    has no events.
    """
    return _studentized_p(_observed(pool(s1, s2)), p0)


def _studentized_p(est: Estimate, p0: float) -> float:
    if est.degenerate:
        raise ValueError("degenerate variance")
    # the replicates' studentization, so the observed row's T is theirs bit for bit
    return float(studentize(est.p_hat, est.sigma2, True, est.n1, est.n2, p0))


def studentized_w(s1: Sample, s2: Sample, w0: float = 1.0) -> float:
    """Studentized win-ratio statistic via the delta method.

    sqrt(n1 n2 / n) (1 - p_hat)^2 (w_hat - w0) / sigma_hat, since
    dw/dp = 1 / (1 - p)^2.  Raises "win ratio degenerate" at p_hat == 1
    and "degenerate variance" at sigma_hat == 0 or when a group has no
    events.
    """
    return _studentized_w(_observed(pool(s1, s2)), w0)


def _studentized_w(est: Estimate, w0: float) -> float:
    if est.p_hat >= 1.0:
        raise ValueError("win ratio degenerate")
    if est.degenerate:
        raise ValueError("degenerate variance")
    return _rate(est.n1, est.n2) * (1.0 - est.p_hat) ** 2 * (est.w_hat - w0) / est.sigma


def _interval(center: float, halfwidth: float, target: str,
              alternative: str) -> tuple[tuple[float, float], tuple[float, float]]:
    """Raw and clamped interval endpoints for the given alternative."""
    lo_b, hi_b = (0.0, 1.0) if target == "p" else (0.0, np.inf)
    if alternative == "two-sided":
        raw = (center - halfwidth, center + halfwidth)
    elif alternative == "greater":
        raw = (center - halfwidth, hi_b)
    else:
        raw = (lo_b, center + halfwidth)
    clamped = (min(max(raw[0], lo_b), hi_b), min(max(raw[1], lo_b), hi_b))
    return raw, clamped


def _build(method: str, target: str, alternative: str, est: Estimate, alpha: float,
           critical: float, statistic: float, p_value: float,
           b: int = 0, dropped: int = 0, rank: int = 0) -> InferenceResult:
    se = est.sigma / _rate(est.n1, est.n2)
    if target == "p":
        center = est.p_hat
        scale = 1.0
    else:
        if est.p_hat >= 1.0:
            raise ValueError("win ratio degenerate")
        center = est.w_hat
        scale = 1.0 / (1.0 - est.p_hat) ** 2
    raw, clamped = _interval(center, critical * se * scale, target, alternative)
    return InferenceResult(
        method=method, target=target, alternative=alternative, estimate=est,
        statistic=statistic, ci=clamped, ci_raw=raw, p_value=p_value,
        critical=critical, alpha=alpha, b=b, dropped=dropped, rank=rank,
    )


def _normal_p_value(statistic: float, alternative: str) -> float:
    # P(Z > x) = erfc(x / sqrt 2) / 2, accurate far into either tail
    if alternative == "greater":
        return 0.5 * math.erfc(statistic / math.sqrt(2))
    if alternative == "less":
        return 0.5 * math.erfc(-statistic / math.sqrt(2))
    return math.erfc(abs(statistic) / math.sqrt(2))


def _check_options(target: str, alternative: str) -> None:
    if target not in ("p", "w"):
        raise ValueError("target must be 'p' or 'w'")
    if alternative not in _ALTERNATIVES:
        raise ValueError(f"alternative must be one of {_ALTERNATIVES}")


def _asymptotic(est: Estimate, alpha: float, target: str,
                alternative: str) -> InferenceResult:
    stat = _studentized_p(est, 0.5) if target == "p" else _studentized_w(est, 1.0)
    z = normal_quantile(alpha / 2 if alternative == "two-sided" else alpha)
    return _build("asymptotic", target, alternative, est, alpha, z,
                  stat, _normal_p_value(stat, alternative))


def asymptotic_ci(s1: Sample, s2: Sample, alpha: float = 0.05, target: str = "p",
                  alternative: str = "two-sided") -> InferenceResult:
    """Normal-quantile confidence interval (and matching test) at level alpha.

    Two-sided: p_hat -/+ z_{alpha/2} sigma_hat sqrt(n / (n1 n2)), clamped
    to [0, 1]; the win-ratio interval divides the halfwidth by
    (1 - p_hat)^2 and clamps to [0, inf).  One-sided intervals use
    z_alpha and extend to the respective range boundary.
    """
    _check_options(target, alternative)
    return _asymptotic(_observed(pool(s1, s2)), alpha, target, alternative)


def asymptotic_test(s1: Sample, s2: Sample, alpha: float = 0.05, target: str = "p",
                    alternative: str = "greater") -> InferenceResult:
    """Studentized test of p0 = 1/2 (or w0 = 1); same result object as the CI."""
    return asymptotic_ci(s1, s2, alpha=alpha, target=target, alternative=alternative)
