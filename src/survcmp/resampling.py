"""Pooled bootstrap and permutation inference, and every method from one pool.

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

:func:`analyze` runs the asymptotic, bootstrap and permutation methods on
one pooled sample, for the command line, the coverage study and
:func:`resampling_ci` alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from ._engine import (batch_statistics, bootstrap_indices, chunk_blocks, permutation_indices,
                      studentize)
from .survival import PooledSample, Sample, pool
from .inference import (Estimate, InferenceResult, _asymptotic, _build, _check_options,
                        _observed, _studentized_p)

__all__ = [
    "METHODS",
    "ResamplingPlan",
    "ReplicateSet",
    "replicate_set",
    "replicate_quantile",
    "analyze",
    "resampling_test",
    "resampling_ci",
]

_SCHEMES = ("bootstrap", "permutation")
METHODS = ("asymptotic",) + _SCHEMES

# B x (n + 2) from which worker processes pay for their start-up (fresh
# `analyze` processes, 2-vCPU x86); a smaller replicate set runs inline
POOL_CELLS = 3_000_000


@dataclass(frozen=True)
class ResamplingPlan:
    """How to replicate: scheme, replicate count, seed, worker count.

    Results are a function of (scheme, b, seed) and the data alone;
    ``workers`` caps the processes that take contiguous runs of the
    engine calls, and changes no result.
    """

    scheme: str
    b: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}")
        _check_counts(self.b, self.workers)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


def _check_counts(b: int, workers: int) -> None:
    if b < 1:
        raise ValueError("need at least one replicate")
    if workers < 1:
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


def replicate_set(z: PooledSample, plan: ResamplingPlan) -> ReplicateSet:
    """All replicate statistics under the plan, dropped ones counted.

    Replicate i draws from the block-(i // 256) stream regardless of
    ``workers``, so the set is bit-identical for any worker count.  One
    engine call spans as many whole blocks as the grid allows
    (:func:`~survcmp._engine.chunk_blocks`), while every replicate keeps
    its block's stream; from :data:`POOL_CELLS` on, up to ``workers``
    processes take contiguous runs of those calls (:func:`~survcmp.rng.fan_out`).
    """
    todo = _rng.blocks(plan.b)
    per_call = chunk_blocks(z.context)
    chunks = [todo[i:i + per_call] for i in range(0, len(todo), per_call)]
    workers = plan.workers if plan.b * (z.n + 2) >= POOL_CELLS else 1
    parts = [part for run in _rng.fan_out(_run_chunks, chunks, workers, z, plan)
             for part in run]
    stats = np.concatenate([s for s, _ in parts])
    valid = np.concatenate([v for _, v in parts])
    return ReplicateSet(statistics=stats[valid], dropped=int((~valid).sum()))


def _run_chunks(z: PooledSample, plan: ResamplingPlan, chunks) -> list:
    """(Studentized replicates, validity) per chunk, one engine call each."""
    ctx = z.context
    scheme_id = _rng.SCHEME_IDS[plan.scheme]
    permutation = plan.scheme == "permutation"
    parts = []
    for chunk in chunks:
        idx = np.empty((sum(size for _, size in chunk), z.n), np.int64)
        for (index, size), start in zip(chunk, range(0, len(idx), _rng.BLOCK)):
            rng, block = _rng.stream(plan.seed, scheme_id, index), idx[start:start + size]
            if permutation:  # shuffled in place, in the block's slice
                permutation_indices(rng, size, z.n, out=block)
            else:
                block[...] = bootstrap_indices(rng, size, z.n)
        rows = batch_statistics(ctx, idx, permutation=permutation)
        parts.append((studentize(rows.p, rows.sigma2, rows.valid, z.n1, z.n2, 0.5),
                      rows.valid))
    return parts


def replicate_quantile(r: ReplicateSet, alpha: float) -> float:
    """Conservative upper-alpha quantile of the retained replicates.

    Returns the ceil((1 - alpha) (b_eff + 1))-th order statistic, capped
    at the largest replicate (:attr:`InferenceResult.capped` records the
    cap).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    b_eff = r.b_eff
    if b_eff == 0:
        raise ValueError("no valid replicates")
    ordered = np.sort(r.statistics)
    return float(ordered[min(_rank(alpha, b_eff), b_eff) - 1])


def _rank(alpha: float, b_eff: int) -> int:
    # the conservative quantile's order statistic, before the cap at b_eff
    return int(np.ceil((1.0 - alpha) * (b_eff + 1)))


def _exceedance(count: int, b_eff: int) -> float:
    return (1 + count) / (b_eff + 1)


def _resampling_results(est: Estimate, reps: ReplicateSet, plan: ResamplingPlan,
                        alpha: float, alternative: str, targets) -> list[InferenceResult]:
    """One replicate set read off as an interval and test for each target.

    The replicates studentize the effect, so the critical value and the
    p-value are shared by the targets; only the interval is rescaled.
    """
    t_obs = _studentized_p(est, 0.5)
    stats = reps.statistics
    if reps.b_eff == 0:
        raise ValueError("no valid replicates")

    # the tail that calibrates the alternative, read as an upper tail
    if alternative == "greater":
        tail, t = stats, t_obs
    elif alternative == "less":
        tail, t = -stats, -t_obs
    else:
        tail, t = np.abs(stats), abs(t_obs)
    crit = replicate_quantile(ReplicateSet(statistics=tail, dropped=reps.dropped), alpha)
    p_val = _exceedance(int((tail >= t).sum()), reps.b_eff)
    return [_build(plan.scheme, target, alternative, est, alpha, crit, t_obs,
                   min(p_val, 1.0), b=plan.b, dropped=reps.dropped,
                   rank=_rank(alpha, reps.b_eff)) for target in targets]


def analyze(z: PooledSample, methods, targets, alpha: float, alternative: str, b: int,
            seed: int, workers: int) -> list[tuple[ReplicateSet | None, list[InferenceResult]]]:
    """Each of ``methods`` (see :data:`METHODS`) as its replicate set (None
    for 'asymptotic') and one result per target, in order.

    One observed estimate and one engine context serve every method; a
    resampling method draws ``replicate_set(z, ResamplingPlan(method, b,
    seed, workers))``, unless the estimate is degenerate: that raises
    "degenerate variance" before any replicate is drawn.  ``b`` and
    ``workers`` must be positive whichever methods are asked for.
    """
    for target in targets:
        _check_options(target, alternative)
    _check_counts(b, workers)  # for the asymptotic method too, which uses neither
    est = _observed(z)
    out = []
    for method in methods:
        if method == "asymptotic":
            out.append((None, [_asymptotic(est, alpha, target, alternative)
                               for target in targets]))
            continue
        plan = ResamplingPlan(method, b, seed, workers)
        if est.degenerate:  # fail before drawing any replicate
            raise ValueError("degenerate variance")
        reps = replicate_set(z, plan)
        out.append((reps, _resampling_results(est, reps, plan, alpha, alternative, targets)))
    return out


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
    return resampling_ci(s1, s2, plan, alpha=alpha, alternative=alternative, target=target)


def resampling_ci(s1: Sample, s2: Sample, plan: ResamplingPlan,
                  alpha: float = 0.05, alternative: str = "two-sided",
                  target: str = "p") -> InferenceResult:
    """Resampling confidence interval dual to :func:`resampling_test`.

    Two-sided: center -/+ c |se| with c the upper-alpha quantile of the
    absolute replicates; one-sided intervals use the one-tailed quantile
    and extend to the range boundary.  The win-ratio interval rescales
    the halfwidth by 1 / (1 - p_hat)^2.
    """
    [(_, [result])] = analyze(pool(s1, s2), (plan.scheme,), (target,), alpha, alternative,
                              plan.b, plan.seed, plan.workers)
    return result
