"""Pooled bootstrap and permutation replicate sets.

Both schemes erase the group labels, re-form two groups of the original
sizes from the pooled sample (with replacement for the bootstrap, by
shuffling for permutations), and recompute the studentized statistic with
the null value 1/2.  :func:`replicate_set` draws the replicates of one
plan, and that is all this module does: ``inference.py`` reads their
quantile and exceedance count and turns them into tests and intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from ._engine import (PooledSample, batch_statistics, bootstrap_indices, chunk_blocks,
                      permutation_indices, studentize)

__all__ = [
    "ResamplingPlan",
    "ReplicateSet",
    "replicate_set",
]

_SCHEMES = tuple(_rng.SCHEME_IDS)

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
        if _rng.check_int("b", self.b) < 1:
            raise ValueError("need at least one replicate")
        if _rng.check_int("workers", self.workers) < 1:
            raise ValueError("workers must be positive")
        _rng.check_seed(self.seed)


@dataclass(frozen=True)
class ReplicateSet:
    """Retained replicate statistics plus the count of dropped ones."""

    statistics: np.ndarray
    dropped: int

    def __post_init__(self):
        # a frozen copy, so that the caller's array stays writable
        statistics = np.array(self.statistics, dtype=float)
        statistics.setflags(write=False)
        object.__setattr__(self, "statistics", statistics)

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
    per_call = chunk_blocks(z)
    chunks = [todo[i:i + per_call] for i in range(0, len(todo), per_call)]
    workers = plan.workers if plan.b * (z.n + 2) >= POOL_CELLS else 1
    stats = np.concatenate([part for run in _rng.fan_out(_run_chunks, chunks, workers, z, plan)
                            for part in run])
    kept = stats[~np.isnan(stats)]  # NaN marks exactly the invalid rows
    return ReplicateSet(statistics=kept, dropped=stats.size - kept.size)


def _run_chunks(z: PooledSample, plan: ResamplingPlan, chunks) -> list:
    """Studentized replicates per chunk, NaN where invalid, one engine call each."""
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
        rows = batch_statistics(z, idx, permutation=permutation)
        parts.append(studentize(rows.p, rows.sigma2, rows.valid, z.n1, z.n2, 0.5))
    return parts
