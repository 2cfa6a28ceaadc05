"""The observed estimate, and every interval and test built on it.

The effect p = P(T1 > T2) + P(T1 = T2) / 2 and the two variance terms of
its studentization are the observed row of the statistic engine
(``_engine.py``, whose docstring derives them); :class:`Estimate` holds
that row.

One studentized statistic, sqrt(n1 n2 / n) (p_hat - p0) / sigma_hat, is
calibrated three ways (:data:`METHODS`): by the standard normal law, and
by the replicates of the pooled bootstrap and of studentized permutations
(``resampling.py``).  Each calibration gives a test of p = 1/2 and the
interval for p dual to it, clamped to [0, 1].  The win ratio
w = p / (1 - p) increases with p, so w's test is p's test and w's
interval is the image of p's under that map, with +inf for an endpoint
at 1: it covers w exactly when p's covers p.  Two-sided resampling
intervals and tests use the upper quantile of the absolute replicate
values: the replicate location can sit noticeably below zero when the
pooled survival curve keeps mass at the window end (the pooled centering
value is (1 - S(k)^2) / 2, not 1/2), and the absolute-value quantile
widens both sides accordingly; one-sided ones use the plain upper (or
lower) tail.  :func:`analyze` builds every result, for the command line,
the coverage study and the two interval functions alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from ._engine import RowStatistics, identity_row, studentize
from .resampling import ReplicateSet, ResamplingPlan, _order_statistic, replicate_set
from .survival import PooledSample, Sample, pool

__all__ = [
    "METHODS",
    "Estimate",
    "InferenceResult",
    "mann_whitney_effect",
    "studentized_p",
    "normal_quantile",
    "analyze",
    "asymptotic_ci",
    "resampling_ci",
]

METHODS = ("asymptotic", "bootstrap", "permutation")

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

    ``ci`` is p's interval clamped to [0, 1], or for w its image under
    x -> x / (1 - x) in [0, inf].  ``statistic`` is the studentized
    effect at the null p0 = 1/2 (w0 = 1), ``p_value`` its tail
    probability under ``alternative``; both are the same for either
    target.  ``b`` and ``dropped`` are 0 for the asymptotic method, and
    so is ``rank``, the order statistic ceil((1 - alpha) (b_eff + 1)) of
    a resampling method's critical value.
    """

    method: str
    target: str
    alternative: str
    estimate: Estimate
    statistic: float
    ci: tuple[float, float]
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
    # the engine's identity row on the pool, from which its replicate sets draw
    return Estimate.from_row(identity_row(z), z.n1, z.n2)


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


def _normal_p_value(statistic: float, alternative: str) -> float:
    # P(Z > x) = erfc(x / sqrt 2) / 2, accurate far into either tail
    if alternative == "greater":
        return 0.5 * math.erfc(statistic / math.sqrt(2))
    if alternative == "less":
        return 0.5 * math.erfc(-statistic / math.sqrt(2))
    return math.erfc(abs(statistic) / math.sqrt(2))


def _replicate_test(est: Estimate, reps: ReplicateSet, alpha: float,
                    alternative: str) -> tuple[float, float, float, int]:
    """Observed statistic, critical value, p-value and quantile rank from
    the replicate tail that calibrates the alternative, read as an upper
    tail."""
    t_obs = _studentized_p(est, 0.5)
    stats = reps.statistics
    if alternative == "greater":
        tail, t = stats, t_obs
    elif alternative == "less":
        tail, t = -stats, -t_obs
    else:
        tail, t = np.abs(stats), abs(t_obs)
    critical, rank = _order_statistic(tail, alpha)
    return t_obs, critical, (1 + int((tail >= t).sum())) / (reps.b_eff + 1), rank


def _interval(est: Estimate, target: str, alternative: str,
              critical: float) -> tuple[float, float]:
    """p's interval for the alternative, clamped to [0, 1], or for w its
    image under x -> x / (1 - x), with +inf at 1."""
    halfwidth = critical * (est.sigma / _rate(est.n1, est.n2))
    lo = 0.0 if alternative == "less" else est.p_hat - halfwidth
    hi = 1.0 if alternative == "greater" else est.p_hat + halfwidth
    ci = (min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0))
    if target == "w":
        return tuple(np.inf if x >= 1.0 else x / (1.0 - x) for x in ci)
    return ci


def analyze(z: PooledSample, methods, targets, alpha: float, alternative: str, b: int,
            seed: int, workers: int) -> list[tuple[ReplicateSet | None, list[InferenceResult]]]:
    """Each of ``methods`` (see :data:`METHODS`) as its replicate set (None
    for 'asymptotic') and one result per target, in order.

    One observed estimate and one pool serve every method; a
    resampling method draws ``replicate_set(z, ResamplingPlan(method, b,
    seed, workers))``.  The targets, the alternative and alpha are
    checked, and ``b`` and ``workers`` must be positive whichever methods
    are asked for, before any computation; a degenerate estimate raises
    "degenerate variance" before any replicate is drawn.
    """
    for target in targets:
        if target not in ("p", "w"):
            raise ValueError("target must be 'p' or 'w'")
    if alternative not in _ALTERNATIVES:
        raise ValueError(f"alternative must be one of {_ALTERNATIVES}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if b < 1:
        raise ValueError("need at least one replicate")
    if workers < 1:
        raise ValueError("workers must be positive")
    est = _observed(z)
    out = []
    for method in methods:
        if method == "asymptotic":
            reps, counts = None, {}
            statistic = _studentized_p(est, 0.5)
            critical = normal_quantile(alpha / 2 if alternative == "two-sided" else alpha)
            p_value = _normal_p_value(statistic, alternative)
        else:
            plan = ResamplingPlan(method, b, seed, workers)
            if est.degenerate:  # fail before drawing any replicate
                raise ValueError("degenerate variance")
            reps = replicate_set(z, plan)
            statistic, critical, p_value, rank = _replicate_test(est, reps, alpha, alternative)
            counts = {"b": b, "dropped": reps.dropped, "rank": rank}
        # w = p / (1 - p) increases with p, so the targets share the test
        # and w's interval is the image of p's
        out.append((reps, [InferenceResult(
            method=method, target=target, alternative=alternative, estimate=est,
            statistic=statistic, ci=_interval(est, target, alternative, critical),
            p_value=p_value, critical=critical, alpha=alpha, **counts)
            for target in targets]))
    return out


def asymptotic_ci(s1: Sample, s2: Sample, alpha: float = 0.05, target: str = "p",
                  alternative: str = "two-sided") -> InferenceResult:
    """Normal-quantile confidence interval and the dual test of p = 1/2.

    Two-sided: p_hat -/+ z_{alpha/2} sigma_hat sqrt(n / (n1 n2)), clamped
    to [0, 1]; one-sided intervals use z_alpha and extend to the
    respective boundary.  The win-ratio interval is the image of p's
    under x -> x / (1 - x), and its test is p's.
    """
    # b, seed and workers are unused by the asymptotic method
    [(_, [result])] = analyze(pool(s1, s2), ("asymptotic",), (target,), alpha, alternative,
                              1, 0, 1)
    return result


def resampling_ci(s1: Sample, s2: Sample, plan: ResamplingPlan,
                  alpha: float = 0.05, alternative: str = "two-sided",
                  target: str = "p") -> InferenceResult:
    """Resampling confidence interval and the dual test of p = 1/2.

    Two-sided: p_hat -/+ c se, clamped to [0, 1], with c the upper-alpha
    quantile of the absolute replicates, and the test compares |T| with
    c; one-sided intervals and tests use the one-tailed quantile, and the
    intervals extend to the range boundary.  The p-value is the
    (1 + count) / (b_eff + 1) exceedance rule on the matching tail.  The
    win-ratio interval is the image of p's under x -> x / (1 - x), and
    its test is p's.
    """
    [(_, [result])] = analyze(pool(s1, s2), (plan.scheme,), (target,), alpha, alternative,
                              plan.b, plan.seed, plan.workers)
    return result
