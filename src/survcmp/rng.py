"""Deterministic random-number streams for replicated computations.

Every stochastic routine derives its generators through :func:`stream`, a
pure function of a user seed and a structured path.  Replicates are
processed in fixed blocks of :data:`BLOCK` and each block owns one
generator, so results depend only on (seed, path), never on scheduling or
worker count.  :func:`fan_out`, the one parallel mechanism, maps a
function over contiguous runs of independent units in worker processes.
"""

from __future__ import annotations

import functools
import sys
import threading

import numpy as np

__all__ = ["BLOCK", "SCHEME_IDS", "check_seed", "stream", "blocks", "fan_out", "derive_seed"]

# replicates per generator block; fixed so that worker splits cannot move
# a replicate to a different stream
BLOCK = 256

SCHEME_IDS = {"bootstrap": 1, "permutation": 2}

# path tag for per-replication data generation in simulation studies
DATA_TAG = 101


def check_seed(seed: int) -> int:
    """The seed, once it is checked to fit in 64 unsigned bits."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    return seed


def stream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for the given seed and stream path.

    Parameters
    ----------
    seed : int
        User seed, 0 <= seed < 2**64 (:func:`check_seed`).
    *path : int
        Nonnegative integers naming the stream, e.g. (scheme id, block
        index).  Distinct paths give statistically independent streams.
    """
    ss = np.random.SeedSequence(check_seed(seed), spawn_key=tuple(int(x) for x in path))
    return np.random.Generator(np.random.Philox(ss))


def blocks(b: int) -> list[tuple[int, int]]:
    """Split b replicates into (block index, block size) pairs."""
    if b < 1:
        raise ValueError("need at least one replicate")
    out = []
    full, rest = divmod(b, BLOCK)
    for i in range(full):
        out.append((i, BLOCK))
    if rest:
        out.append((full, rest))
    return out


def fan_out(fn, units, workers: int, *args) -> list:
    """``fn(*args, run)`` for at most ``workers`` contiguous runs of ``units``, in
    order: inline for one run, else one process per run, forked on Linux
    unless another thread runs (it could hold a lock the fork copies)."""
    size = -(-len(units) // workers)
    runs = [units[i:i + size] for i in range(0, len(units), size)]
    if len(runs) == 1:
        return [fn(*args, runs[0])]
    import multiprocessing  # here, so that a one-run call never loads it
    from concurrent.futures import ProcessPoolExecutor
    method = "fork" if sys.platform == "linux" and threading.active_count() == 1 else "spawn"
    with ProcessPoolExecutor(len(runs), mp_context=multiprocessing.get_context(method)) as pool:
        return list(pool.map(functools.partial(fn, *args), runs))


def derive_seed(rng: np.random.Generator) -> int:
    """Draw a child seed, for nesting one seeded stage inside another."""
    return int(rng.integers(0, 2**63, dtype=np.int64))
