"""The observed estimate, and every interval and test built on it.

The effect p = P(T1 > T2) + P(T1 = T2) / 2 and the two variance terms of
its studentization are the observed row of the statistic engine
(``_engine.py``, whose docstring derives them); :class:`Estimate` holds
that row.

One studentized statistic, sqrt(n1 n2 / n) (p_hat - p0) / sigma_hat, is
calibrated three ways (:data:`METHODS`): by the standard normal law, and
by the pooled-bootstrap and studentized-permutation replicates that
``resampling.py`` draws.  This module is the one place where it becomes
a test of p = 1/2 and the dual interval for p, clamped to [0, 1]; w's
test is p's, and w's interval (``InferenceResult.ci_w``) is the image of
p's under w = p / (1 - p), with +inf at 1, so it covers w exactly when
p's covers p.  The alternative is read once (:func:`_tail`): T, -T or |T|
puts its evidence in the upper tail, for the statistic and the
replicates alike, and :func:`_replicate_test` is the one replicate
calibration.  Two-sided resampling so uses the upper quantile of the
absolute replicates: their location can sit noticeably below zero when
the pooled curve keeps mass at the window end (the pooled centering
value is (1 - S(k)^2) / 2, not 1/2), and the absolute-value quantile
widens both sides accordingly.  :class:`DegenerateError` is the one error
for a statistic with nothing to calibrate.  :func:`analyze` builds one
result per method, for the library, the command line and the coverage
study alike.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import rng as _rng
from ._engine import identity_row, studentize
from .resampling import ReplicateSet, ResamplingPlan, replicate_set
from .survival import PooledSample, Sample, pool

__all__ = [
    "METHODS",
    "ALTERNATIVES",
    "DegenerateError",
    "Estimate",
    "InferenceResult",
    "mann_whitney_effect",
    "normal_quantile",
    "analyze",
]

METHODS = ("asymptotic", "bootstrap", "permutation")

ALTERNATIVES = ("two-sided", "greater", "less")

_STANDARD_NORMAL = NormalDist()


class DegenerateError(ValueError):
    """The studentized statistic has no value to calibrate: a degenerate
    observed variance, or a replicate set with no valid replicate."""


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


@dataclass(frozen=True)
class InferenceResult:
    """One method's test of p = 1/2 and the dual interval.

    ``ci`` is p's interval clamped to [0, 1], and :attr:`ci_w` its image
    under x -> x / (1 - x), w's interval.  ``statistic`` is the studentized
    effect at the null p0 = 1/2 (w0 = 1), and ``p_value`` its tail
    probability under ``alternative``; w's test is p's.  ``replicates`` is a
    resampling method's replicate set (None for the asymptotic method), and
    ``rank`` the order statistic ceil((1 - alpha) (b_eff + 1)) of its
    critical value (0 for the asymptotic method).
    """

    method: str
    alternative: str
    estimate: Estimate
    statistic: float
    ci: tuple[float, float]
    p_value: float
    critical: float
    alpha: float
    replicates: ReplicateSet | None = None
    rank: int = 0

    @property
    def sigma(self) -> float:
        return self.estimate.sigma

    @property
    def b(self) -> int:
        """Replicates drawn, kept and dropped alike; 0 for the asymptotic method."""
        return 0 if self.replicates is None else self.replicates.b_eff + self.dropped

    @property
    def dropped(self) -> int:
        return 0 if self.replicates is None else self.replicates.dropped

    @property
    def ci_w(self) -> tuple[float, float]:
        """w's interval: p's under x -> x / (1 - x), with +inf at 1."""
        return tuple(map(_win_ratio, self.ci))

    @property
    def capped(self) -> bool:
        """True when ``rank`` exceeds b_eff and the largest replicate stands
        in for the quantile, so the level is not guaranteed."""
        return self.rank > self.b - self.dropped

    @property
    def reject(self) -> bool:
        return _tail(self.statistic, self.alternative) > self.critical


def _win_ratio(p: float) -> float:
    """w = p / (1 - p), with +inf at p = 1."""
    return np.inf if p >= 1.0 else p / (1.0 - p)


def _check_alpha(alpha) -> float:
    """The one check of a level: a real number (not a bool) in (0, 1)."""
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) or not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return alpha


def _tail(x, alternative: str):
    """x, -x or |x|: a statistic, or an array of replicates, read so that the
    alternative's evidence lies in the upper tail."""
    if alternative == "greater":
        return x
    if alternative == "less":
        return -x
    return abs(x)


def normal_quantile(alpha: float) -> float:
    """Upper-alpha standard normal quantile z with P(Z > z) = alpha.

    The standard library's inverse normal CDF (Wichura's AS 241 rational
    approximations) is within 2e-15 relative of an independent
    double-precision inverse for alpha from 1e-300 to 1 - 1e-15, a few
    units in the last place.
    """
    return -_STANDARD_NORMAL.inv_cdf(_check_alpha(alpha))


def _observed(z: PooledSample) -> Estimate:
    # the engine's identity row on the pool, from which its replicate sets draw
    row = identity_row(z)
    p = float(row.p[0])
    return Estimate(p_hat=p, w_hat=_win_ratio(p),
                    sigma2=float(row.sigma2[0]), sigma2_12=float(row.sigma2_12[0]),
                    sigma2_21=float(row.sigma2_21[0]), n1=z.n1, n2=z.n2,
                    degenerate=not row.valid[0])


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


def _normal_p_value(statistic: float, alternative: str) -> float:
    # P(Z > x) = erfc(x / sqrt 2) / 2 on the tail, accurate far into it,
    # doubled for two-sided
    sides = 2 if alternative == "two-sided" else 1
    return sides / 2 * math.erfc(_tail(statistic, alternative) / math.sqrt(2))


def _replicate_test(tails: np.ndarray, t: float, alpha: float) -> tuple[float, float, int]:
    """From the replicates' tail values and the observed tail ``t``: the
    order statistic of rank ceil((1 - alpha) (b_eff + 1)), capped at b_eff
    (``InferenceResult.capped``), the p-value (1 + #{tails >= t}) / (b_eff + 1),
    and the rank."""
    if tails.size == 0:
        raise DegenerateError("no valid replicates")
    rank = int(np.ceil((1.0 - alpha) * (tails.size + 1)))
    critical = float(np.sort(tails)[min(rank, tails.size) - 1])
    return critical, (1 + int((tails >= t).sum())) / (tails.size + 1), rank


def _interval(est: Estimate, alternative: str, critical: float) -> tuple[float, float]:
    """p's interval for the alternative, clamped to [0, 1]."""
    halfwidth = critical * (est.sigma / math.sqrt(est.n1 * est.n2 / (est.n1 + est.n2)))
    lo = 0.0 if alternative == "less" else est.p_hat - halfwidth
    hi = 1.0 if alternative == "greater" else est.p_hat + halfwidth
    return (min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0))


def analyze(s1: Sample, s2: Sample, methods=METHODS, alpha: float = 0.05,
            alternative: str = "two-sided", b: int = 1999, seed: int = 0,
            workers: int = 1) -> list[InferenceResult]:
    """One result per method of ``methods`` (see :data:`METHODS`), in order.

    The two samples are pooled once, and one observed estimate and one
    pool serve every method; a resampling method draws
    ``replicate_set(z, ResamplingPlan(method, b, seed, workers))`` from the
    pool.  Two-sided: p_hat -/+ c se, clamped to [0, 1], where c is the
    normal quantile z_{alpha/2} or the upper-alpha quantile of the
    absolute replicates, and the test compares |T| with c; one-sided
    intervals and tests use the one-tailed quantile, and the intervals
    extend to the range boundary.  A resampling p-value is the
    (1 + count) / (b_eff + 1) exceedance rule on the matching tail.

    The methods (distinct names from :data:`METHODS`), the alternative
    and alpha are checked, ``b`` and ``workers`` must be positive integers
    and ``seed`` an integer in [0, 2**64) whichever methods are asked for,
    before any computation.  A degenerate estimate raises
    :class:`DegenerateError` ("degenerate variance") before any replicate
    is drawn, and so does a replicate set with no valid replicate ("no
    valid replicates").
    """
    methods = tuple(methods)
    # no set is built, so an unhashable name meets this error too
    if not methods or any(not isinstance(m, str) or m not in METHODS or methods.count(m) > 1
                          for m in methods):
        raise ValueError(f"methods must be distinct names from {METHODS}")
    if alternative not in ALTERNATIVES:
        raise ValueError(f"alternative must be one of {ALTERNATIVES}")
    _check_alpha(alpha)
    if _rng.check_int("b", b) < 1:
        raise ValueError("need at least one replicate")
    if _rng.check_int("workers", workers) < 1:
        raise ValueError("workers must be positive")
    _rng.check_seed(seed)
    plans = {m: ResamplingPlan(m, b, seed, workers) for m in methods if m != "asymptotic"}
    z = pool(s1, s2)
    est = _observed(z)
    if est.degenerate:
        raise DegenerateError("degenerate variance")
    # the studentized effect at p0 = 1/2 by the replicates' studentization,
    # so the observed row's T is theirs bit for bit
    statistic = float(studentize(est.p_hat, est.sigma2, True, est.n1, est.n2, 0.5))
    out = []
    for method in methods:
        if method == "asymptotic":
            reps, rank = None, 0
            critical = normal_quantile(alpha / 2 if alternative == "two-sided" else alpha)
            p_value = _normal_p_value(statistic, alternative)
        else:
            reps = replicate_set(z, plans[method])
            critical, p_value, rank = _replicate_test(
                _tail(reps.statistics, alternative), _tail(statistic, alternative), alpha)
        out.append(InferenceResult(
            method=method, alternative=alternative, estimate=est, statistic=statistic,
            ci=_interval(est, alternative, critical), p_value=p_value, critical=critical,
            alpha=alpha, replicates=reps, rank=rank))
    return out
