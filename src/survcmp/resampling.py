"""Pooled bootstrap and permutation inference for the effect statistic.

Both schemes erase the group labels, re-form two groups of the original
sizes from the pooled sample (with replacement for the bootstrap, by
shuffling for permutations), and recompute the studentized statistic with
the null value 1/2.  Conditional quantiles of those replicate statistics
calibrate tests and confidence intervals.

Two-sided intervals and tests use the upper quantile of the absolute
replicate values.  The replicate location can sit noticeably below zero
when the pooled survival curve keeps mass at the window end (the pooled
centering value is (1 - S(k)^2) / 2, not 1/2), and the absolute-value
quantile widens both sides accordingly; separate one-sided constructions
use the plain upper (or lower) tail.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import rng as _rng
from ._engine import (BatchContext, Workspace, batch_context, batch_statistics,
                      bootstrap_indices, permutation_indices)
from .survival import Sample
from .effect import EffectEstimate
from .variance import VarianceEstimate
from .inference import InferenceResult, _build, _check_options, _observed, _studentized_p

__all__ = [
    "PooledSample",
    "ResamplingPlan",
    "ReplicateSet",
    "pool",
    "split",
    "bootstrap_replicate",
    "permutation_replicate",
    "replicate_set",
    "replicate_quantile",
    "resampling_test",
    "resampling_ci",
]

_SCHEMES = ("bootstrap", "permutation")


@dataclass(frozen=True)
class PooledSample:
    """Both groups' observations concatenated, labels erased.

    Group 1 occupies the first ``n1`` slots.  ``k`` is the shared window
    end.  ``context`` is the replicate engine's view of the pool, built on
    first use and shared by every replicate set drawn from it.
    """

    times: np.ndarray
    events: np.ndarray
    n1: int
    n2: int
    k: float

    def __post_init__(self):
        if self.times.size != self.n1 + self.n2:
            raise ValueError("pooled size must be n1 + n2")
        self.times.setflags(write=False)
        self.events.setflags(write=False)

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @cached_property
    def context(self) -> BatchContext:
        return batch_context(self.times, self.events, self.n1, self.n2)


@dataclass(frozen=True)
class ResamplingPlan:
    """How to replicate: scheme, replicate count, seed, worker count.

    Results are a function of (scheme, b, seed) and the data alone;
    ``workers`` only changes how blocks of replicates are scheduled.
    """

    scheme: str
    b: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}")
        if self.b < 1:
            raise ValueError("need at least one replicate")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.workers < 1:
            raise ValueError("workers must be positive")


@dataclass(frozen=True)
class ReplicateSet:
    """Retained replicate statistics plus the count of dropped ones."""

    statistics: np.ndarray
    dropped: int

    def __post_init__(self):
        self.statistics.setflags(write=False)

    @property
    def b_eff(self) -> int:
        return int(self.statistics.size)

    def export(self, fh) -> None:
        """Write one replicate value per line (full precision)."""
        for value in self.statistics:
            fh.write(f"{float(value)!r}\n")


def pool(s1: Sample, s2: Sample) -> PooledSample:
    """Concatenate two samples, group 1 first, keeping the shared window."""
    if s1.k != s2.k:
        raise ValueError("incompatible horizons")
    return PooledSample(
        times=np.concatenate([s1.times, s2.times]),
        events=np.concatenate([s1.events, s2.events]),
        n1=s1.n, n2=s2.n, k=s1.k,
    )


def split(z: PooledSample) -> tuple[Sample, Sample]:
    """Undo :func:`pool` without shuffling."""
    return (Sample(z.times[:z.n1].copy(), z.events[:z.n1].copy(), z.k),
            Sample(z.times[z.n1:].copy(), z.events[z.n1:].copy(), z.k))


def _single(z: PooledSample, idx: np.ndarray) -> float:
    stats, valid = batch_statistics(z.context, idx[None, :])
    if not valid[0]:
        raise ValueError("degenerate replicate")
    return float(stats[0])


def bootstrap_replicate(z: PooledSample, rng: np.random.Generator) -> float:
    """One pooled-bootstrap statistic sqrt(n1 n2 / n) (p* - 1/2) / sigma*.

    Draws n observations with replacement from the pooled sample; the
    first n1 form replicate group 1.  Raises "degenerate replicate" when
    the replicate variance vanishes or a replicate group has no events.
    """
    return _single(z, bootstrap_indices(rng, 1, z.n)[0])


def permutation_replicate(z: PooledSample, rng: np.random.Generator) -> float:
    """One permutation statistic: same functional on shuffled labels."""
    return _single(z, permutation_indices(rng, 1, z.n)[0])


def replicate_set(z: PooledSample, plan: ResamplingPlan) -> ReplicateSet:
    """All replicate statistics under the plan, dropped ones counted.

    Replicate i draws from the block-(i // 256) stream regardless of
    ``workers``, so the set is bit-identical for any worker count.
    """
    ctx = z.context
    scheme_id = _rng.SCHEME_IDS[plan.scheme]
    permutation = plan.scheme == "permutation"
    draw = permutation_indices if permutation else bootstrap_indices
    local = threading.local()  # one workspace per thread

    def run_block(block):
        index, size = block
        gen = _rng.stream(plan.seed, scheme_id, index)
        idx = draw(gen, size, z.n)
        if not hasattr(local, "work"):
            local.work = Workspace(ctx, min(plan.b, _rng.BLOCK))
        return batch_statistics(ctx, idx, permutation=permutation, work=local.work)

    todo = _rng.blocks(plan.b)
    if plan.workers > 1 and len(todo) > 1:
        with ThreadPoolExecutor(max_workers=plan.workers) as pool_:
            parts = list(pool_.map(run_block, todo))
    else:
        parts = [run_block(block) for block in todo]

    stats = np.concatenate([s for s, _ in parts])
    valid = np.concatenate([v for _, v in parts])
    return ReplicateSet(statistics=stats[valid], dropped=int((~valid).sum()))


def replicate_quantile(r: ReplicateSet, alpha: float) -> float:
    """Conservative upper-alpha quantile of the retained replicates.

    Returns the ceil((1 - alpha) (b_eff + 1))-th order statistic, capped
    at the largest replicate.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    b_eff = r.b_eff
    if b_eff == 0:
        raise ValueError("no valid replicates")
    ordered = np.sort(r.statistics)
    rank = min(int(np.ceil((1.0 - alpha) * (b_eff + 1))), b_eff)
    return float(ordered[rank - 1])


def _exceedance(count: int, b_eff: int) -> float:
    return (1 + count) / (b_eff + 1)


def _resampling_results(eff: EffectEstimate, var: VarianceEstimate, reps: ReplicateSet,
                        plan: ResamplingPlan, alpha: float, alternative: str,
                        targets) -> list[InferenceResult]:
    """One replicate set read off as an interval and test for each target.

    The replicates studentize the effect, so the critical value and the
    p-value are shared by the targets; only the interval is rescaled.
    """
    t_obs = _studentized_p(eff, var, 0.5)
    stats = reps.statistics
    if reps.b_eff == 0:
        raise ValueError("no valid replicates")

    if alternative == "greater":
        crit = replicate_quantile(reps, alpha)
        p_val = _exceedance(int((stats >= t_obs).sum()), reps.b_eff)
    elif alternative == "less":
        neg = ReplicateSet(statistics=-stats, dropped=reps.dropped)
        crit = replicate_quantile(neg, alpha)
        p_val = _exceedance(int((stats <= t_obs).sum()), reps.b_eff)
    else:
        absr = ReplicateSet(statistics=np.abs(stats), dropped=reps.dropped)
        crit = replicate_quantile(absr, alpha)
        p_val = _exceedance(int((np.abs(stats) >= abs(t_obs)).sum()), reps.b_eff)

    return [_build(plan.scheme, target, alternative, eff, var, alpha,
                   crit, crit, t_obs, min(p_val, 1.0), crit,
                   b=plan.b, dropped=reps.dropped) for target in targets]


def _resample_inference(s1: Sample, s2: Sample, plan: ResamplingPlan,
                        alpha: float, alternative: str, target: str) -> InferenceResult:
    _check_options(target, alternative)
    eff, var = _observed(s1, s2)
    if var.degenerate:  # fail before drawing any replicate
        raise ValueError("degenerate variance")
    reps = replicate_set(pool(s1, s2), plan)
    return _resampling_results(eff, var, reps, plan, alpha, alternative, (target,))[0]


def resampling_test(s1: Sample, s2: Sample, plan: ResamplingPlan,
                    alpha: float = 0.05, alternative: str = "greater",
                    target: str = "p") -> InferenceResult:
    """Resampling test of p = 1/2 (equivalently w = 1).

    One-sided 'greater' rejects when the observed statistic exceeds the
    upper-alpha replicate quantile; 'less' mirrors it; 'two-sided'
    compares |T| with the upper-alpha quantile of the absolute
    replicates.  The p-value is the (1 + count) / (b_eff + 1) exceedance
    rule on the matching tail.
    """
    return _resample_inference(s1, s2, plan, alpha, alternative, target)


def resampling_ci(s1: Sample, s2: Sample, plan: ResamplingPlan,
                  alpha: float = 0.05, alternative: str = "two-sided",
                  target: str = "p") -> InferenceResult:
    """Resampling confidence interval dual to :func:`resampling_test`.

    Two-sided: center -/+ c |se| with c the upper-alpha quantile of the
    absolute replicates; one-sided intervals use the one-tailed quantile
    and extend to the range boundary.  The win-ratio interval rescales
    the halfwidth by 1 / (1 - p_hat)^2.
    """
    return _resample_inference(s1, s2, plan, alpha, alternative, target)
