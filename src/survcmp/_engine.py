"""The studentized statistic, for the observed data and for every resample.

One row of an index matrix selects a two-group sample from the pooled
sample (:class:`PooledSample`, which carries the event grid below;
:func:`batch_context` builds it once per pool);
:func:`batch_statistics` returns each row's effect p, variance terms
sigma2_12 and sigma2_21 and validity, and :func:`studentize` turns them
into sqrt(n1 n2 / n) (p - p0) / sigma.  The observed data are the
identity row 0..n-1 (:func:`identity_row`), so the observed statistic and
its replicates come from the same arithmetic, bit for bit.

The event grid.  The pooled sample's distinct times form the full grid of
q slots, but a replicate's Kaplan-Meier curve can only step where the pool
has an event.  So the curves are built on the event grid: one column per
pooled event time, a leading column for times before the first event and
a trailing column that no observation reaches.  Each observation sits in
the last event column at or before its time, which keeps every at-risk
count right.  Per replicate and group, event and at-risk counts are
histogrammed onto that grid as int64 (``np.bincount`` without weights) and
stay exact integers; curves, hazard-variance increments and the
effect integral then come out of cumulative products and reversed
cumulative sums along the columns, for both groups in one pass.  This is
exact: on the full grid a slot without an event only multiplies S by 1.0
and adds exact zeros to every cumulative sum.  The leading column is
histogrammed but never processed: it holds no event, so its S is exactly
1.0, the left limit of column 1, and its dH and jump masses are zeros;
every step after the histogram runs on columns 1..w - 1.

The Kaplan-Meier factor 1 - d / max(y, 1) and the hazard-variance
increment dH = min(d, gap) / max(gap, 1), gap = (y - d) y, depend only on
a column's at-risk count y <= max(n1, n2) and death count d <= y.  So two
tables hold them for every code y radix + d, radix = max(n1, n2) + 1, made
by the same formulas (:func:`_km_terms`) from divmod(arange(radix^2),
radix), and a call forms its codes in place in its integer counts and
reads its grid's values from the tables by them.  The tables are used
where they are no larger than the call's grid (radix^2 <= w x 2 x rows),
as for every replicate call; otherwise, as for the identity row, the
formulas run on the counts themselves.  Either way each value comes from
the same elementwise operations on the same two integers, so the bits
agree.  The last radix's tables are cached, read-only (4,096 bytes at
15/15, 646,416 at 200/200); the identity row does not read or evict them.

The variance.  The estimator's asymptotic variance decomposes into two
terms, one per group.  Each term integrates a covariance kernel of that
group's Kaplan-Meier process against the other group's Kaplan-Meier mass,
with the kernel normalized by averaging its four one-sided limits so that
tied jump points are weighted like mid-ranks.

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
zero, as it does when its largest observation is censored.  The result is
the delta-method variance of p_hat with Greenwood covariances, exactly;
the pairwise O(m^2) quadratic form it equals is kept as a test oracle
(``tests/oracles.py``).

The double integral collapses to a single sum via

    sigma2_jk = 1/4 * sum_s dH_j(s) * (A(s) + A_minus(s))^2

with A(s) the tail sum of S_j times the mass of S_k at or after s, and
A_minus the strict-tail analogue with left limits; this is the same
quantity the quadratic-form oracle computes pairwise, reassociated around
the minimum in H_j(u ^ v).  The group-2 term (j, k) = (2, 1) counts the
atom S_1(k) just past the window end by adding S_2(k) S_1(k) to both A
and A_minus at every s.

The bitwise contract.  Every row's p, variance terms and validity flag
equal, bit for bit, the ones the same formulas give on the full grid (the
reference engine in ``tests/oracles.py``).  Every row sum is a recurrence
in column order, one addition per column, and a full-grid slot without an
event adds an exact 0.0 to it, so the event grid sums what the full grid
sums, in the same order.  The effect shares its sum with the tails: with
u = (S + S_left) times the other group's mass, and group 2's atom doubled,
2 S1(k) S2(k), in its trailing column (whose mass is 0), the reverse tail
sums U of u give 2 p at column 1 of group 1, and A + A_minus + 2 atom =
S mass + U one column later.  sigma2_12 and sigma2_21 are one forward
sum of dH (A + A_minus + 2 atom)^2 over both groups, of which only the
last column is read.  Where a slab holds at least :data:`SLAB` values that
sum is one ``np.add.reduce`` along the column axis: numpy reduces an axis
that is not the innermost by adding one slab at a time into the running
result, in column order, so it makes the recurrence's additions; it sums
pairwise only along the contiguous inner axis, which is why narrow slabs,
whose axes numpy may reorder, keep ``ufunc.accumulate``.

Permutation rows hold every pooled observation once, so group 2's death
and at-risk counts are the pooled counts minus group 1's, in exact
integer arithmetic; ``batch_statistics(..., permutation=True)`` takes that
shortcut and histograms group 1 only.

The layout.  A call's arrays are stored in (column, group, row) order, so
one column of every row and both groups is one contiguous slab.  The
column recurrences (the at-risk reverse sum, the Kaplan-Meier product and
the tail sums U) run as one vector ``add`` or ``multiply`` per column
when a slab holds at least :data:`SLAB` values, and as one
``ufunc.accumulate`` along the column axis otherwise (the identity row
takes that path); the variance sums, of which only the last column is
read, run as one ``np.add.reduce`` and one ``ufunc.accumulate`` in those
two cases (see "The bitwise contract").  Each form evaluates out[c] =
out[c - 1] (op) in[c] in column order, the recurrence numpy's row-wise
``cumsum``/``cumprod`` evaluate, so every bit is the same.  On a 2-vCPU
x86 machine (numpy 2.4) the per-column form overtakes ``accumulate`` at
192-384 values per slab, at every width from 17 to 1,888 columns, and at
512 values it is 2-4x faster; a row-major ``cumsum`` pays about 65 ns per
row, which made it half of a 256-row call at 17 columns.  A permutation
call forms its counts on the grids' group halves, which are strided: one
run of r values per column.  numpy copies such an operand through its
ufunc buffer (8,192 values by default) when the buffer spans several runs,
so from :data:`SLAB` values per slab these steps run with the buffer cut
to one run (``np.setbufsize`` within ``np.errstate``, which restores it)
and read the runs in place: on the machine above a half-grid subtraction
at 999 rows took 24-30 us with the default buffer and 7 us with one run's.

Chunks.  :func:`chunk_blocks` sizes one engine call: as many whole 256-row
blocks as keep rows x (n + 2) within :data:`CHUNK_CELLS`, and at least
one.  n + 2 bounds the grid width and the width n of the (rows, n) int64
bin codes (each observation's code, plus r in group 2's columns and the
row, added by broadcasting), so a call's five (column, group, row) grids
stay within 2 x 32,768 8-byte cells each (2.6 MB together) whatever the
pool.  Two are the histogram's int64 counts, totals and deaths, which hold
the at-risk counts and the codes in turn, and then, as float64 views, the
jump masses and the tail sums; the other three (scratch values, dH and S)
are kept by the thread's :class:`_Workspace`.  At 15/15 (17-32 columns) a
B = 999 set is one call, and a 200/200 pool takes one block per call; on
the machine above a ten-replication coverage cell ran 11-16 % faster at
32,768 than at 16,384.  :func:`replicate_statistics` draws a replicate set
in those calls, replicate i from the stream of block i // 256 whatever the
calls' sizes.  From :data:`POOL_CELLS` (B x (n + 2)) on, up to ``workers``
processes of :func:`~survcmp.rng.fan_out` take contiguous runs of the
calls, so no worker count moves a bit; a smaller set runs inline, where
worker start-up costs more than it saves.  A forked worker starts from a
copy of the workspace and a spawned one from none; no result depends on it.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng as _rng

__all__ = ["PooledSample", "RowStatistics", "batch_context", "batch_statistics",
           "identity_row", "replicate_statistics", "studentize"]

# rows x (n + 2) one engine call may span; a budget that keeps a call's
# arrays in a few MB (see "Chunks" above)
CHUNK_CELLS = 32768
# B x (n + 2) from which worker processes pay for their start-up (fresh
# `analyze` processes, 2-vCPU x86); a smaller replicate set runs inline
POOL_CELLS = 3_000_000
# values per column slab from which the column recurrences run one vector
# operation per column instead of ufunc.accumulate (see "The layout")
SLAB = 256


@dataclass(frozen=True)
class PooledSample:
    """Both groups' observations concatenated, group 1 first, labels
    erased, on the shared window [0, k], with the event grid the engine reads.

    The grid has ``width`` columns: column 0 for times before the first
    event, one per distinct pooled event time, and a last column that no
    observation reaches.  ``column`` is each observation's grid column;
    ``pool_deaths`` and ``pool_at_risk`` are the pooled counts on the
    grid, in int64.  Built by :func:`batch_context`.
    """

    times: np.ndarray
    events: np.ndarray
    n1: int
    n2: int
    k: float
    width: int
    column: np.ndarray
    pool_deaths: np.ndarray
    pool_at_risk: np.ndarray

    def __post_init__(self):
        for arr in (self.times, self.events, self.column, self.pool_deaths, self.pool_at_risk):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.n1 + self.n2


def batch_context(times: np.ndarray, events: np.ndarray, n1: int, n2: int,
                  k: float) -> PooledSample:
    """The pool of n1 + n2 >= 1 observations, group 1 first, on window [0, k].

    The inputs are copied, so that freezing them leaves the caller's
    arrays writable.  One sort gives each observation's slot on the full
    grid of distinct times: in sorted order a slot is the count of changes
    between neighbours so far, scattered back through the order
    (``np.unique`` with ``return_inverse`` sorts too, and does more around
    it).  The event slots and pooled deaths are counts weighted by the
    event flags (``bincount`` sums the weights in float64, and the deaths
    are cast to the engine's int64), not counts of a boolean-mask gather
    through them: where events and censorings interleave, such a gather
    costs about as much as the weighted count that replaces it and its
    count together.
    """
    times = np.array(times, dtype=float)
    events = np.array(events, dtype=bool)
    if times.size != n1 + n2:
        raise ValueError("pooled size must be n1 + n2")
    order = np.argsort(times)
    ordered = times[order]
    changed = np.empty(times.size, bool)
    changed[0] = False
    np.not_equal(ordered[1:], ordered[:-1], out=changed[1:])
    rank = np.cumsum(changed)
    pos = np.empty(times.size, np.int64)
    pos[order] = rank
    # a slot is an event column when a pooled event lands on it; each
    # observation's column counts the event slots at or before its own
    hit = np.bincount(pos, events, int(rank[-1]) + 1) > 0
    column = np.cumsum(hit)[pos]
    width = int(np.count_nonzero(hit)) + 2
    deaths = np.bincount(column, events, width).astype(np.int64)
    at_risk = np.cumsum(np.bincount(column, minlength=width)[::-1])[::-1].copy()
    return PooledSample(times=times, events=events, n1=int(n1), n2=int(n2), k=float(k),
                        width=width, column=column, pool_deaths=deaths,
                        pool_at_risk=at_risk)


class RowStatistics(NamedTuple):
    """Per-row pieces of the studentized statistic.

    ``p`` is the effect clipped to [0, 1], ``sigma2_12`` and ``sigma2_21``
    are the two variance terms (the second with group 1's leftover mass
    at the window end), ``sigma2`` = (n1 n2 / n) (sigma2_12 + sigma2_21),
    and ``valid`` is False where sigma2 vanishes or a group has no events.
    """

    p: np.ndarray
    sigma2_12: np.ndarray
    sigma2_21: np.ndarray
    sigma2: np.ndarray
    valid: np.ndarray


def studentize(p, sigma2, valid, n1: int, n2: int, p0: float):
    """sqrt(n1 n2 / n) (p - p0) / sigma where valid, NaN elsewhere."""
    rate = np.sqrt(n1 * n2 / (n1 + n2))
    return np.divide(rate * (p - p0), np.sqrt(sigma2), out=np.full(np.shape(p), np.nan),
                     where=valid)


def bootstrap_indices(rng: np.random.Generator, r: int, n: int) -> np.ndarray:
    """r rows of n i.i.d. uniform draws from 0..n-1, with replacement."""
    return rng.integers(0, n, size=(r, n), dtype=np.int64)


def permutation_indices(rng: np.random.Generator, r: int, n: int, out=None) -> np.ndarray:
    """r uniform permutations of 0..n-1 (row-wise shuffles), into ``out`` if given."""
    out = np.empty((r, n), np.int64) if out is None else out
    out[...] = np.arange(n)
    return rng.permuted(out, axis=1, out=out)


def chunk_blocks(z: PooledSample) -> int:
    """Whole 256-row blocks per engine call: rows x (n + 2) <= CHUNK_CELLS, at least one."""
    return max(1, CHUNK_CELLS // (_rng.BLOCK * (z.n + 2)))


class _Workspace(threading.local):
    """One thread's three grids for engine calls, grown to each call's
    pool and row count; a ``threading.local``, so every thread sees its own.

    The grids outlive the call, and the pool, because fresh ones cost
    more than the arithmetic on them: arrays of this size go back to the
    system when they are freed, so every call would fault their pages in
    again.  On a 2-vCPU x86 machine, an engine that allocated its three
    grids on every call took about 5,700 minor page faults and 26-31 ms
    per ten-replication 15/15 coverage cell (setup 3, strong censoring,
    B = 999) in a standalone process, against 4-6 faults and 19-21 ms
    with kept grids.  :meth:`grids` keeps every grid that is large enough;
    grids laid out beyond :data:`CHUNK_CELLS` (one-block calls on a pool of
    n > 126) are dropped at the thread's first call on another pool.
    """

    def __init__(self):  # once in every thread, at its first call
        # the grids by name, the last call's pool, and the largest
        # rows x (n + 2) the grids were laid out for
        self._memory, self.z, self.cells = {}, None, 0

    def _take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._memory.get(name)
        if buf is None or buf.size < size:
            buf = self._memory[name] = np.empty(size)
        return buf[:size].reshape(shape)

    def grids(self, z: PooledSample, r: int):
        """(Column, group, row) views for a call of r rows on z: scratch
        values and dH on columns 1..w - 1, and S on every column."""
        if z is not self.z and self.cells > CHUNK_CELLS:
            self._memory, self.cells = {}, 0
        self.z, self.cells, w = z, max(self.cells, r * (z.n + 2)), z.width
        return (self._take("tmp", (w - 1, 2, r)), self._take("dh", (w - 1, 2, r)),
                self._take("surv", (w, 2, r)))


_work = _Workspace()


def _km_terms(y, d, factor, dh) -> None:
    """The Kaplan-Meier factor 1 - d / max(y, 1) and the hazard-variance
    increment dH = d / ((y - d) y), or 0 where y = d, elementwise from the
    at-risk and death counts; factor serves as scratch for dH first."""
    # gap = (y - d) y: where y = d, min(d, gap) = 0, and elsewhere gap >= y >= d
    np.subtract(y, d, out=factor)
    np.multiply(factor, y, out=factor)
    np.minimum(d, factor, out=dh)
    np.maximum(factor, 1.0, out=factor)
    np.divide(dh, factor, out=dh)
    np.maximum(y, 1.0, out=factor)
    np.divide(d, factor, out=factor)
    np.subtract(1.0, factor, out=factor)


@functools.lru_cache(maxsize=1)
def _km_tables(radix: int) -> np.ndarray:
    """Rows 0 and 1: the Kaplan-Meier factor and dH of every code
    y radix + d, with y and d below radix (codes with d > y are never read);
    read-only, as every thread shares them."""
    y, d = np.divmod(np.arange(float(radix * radix)), radix)
    tables = np.empty((2, y.size))
    _km_terms(y, d, *tables)
    tables.setflags(write=False)
    return tables


def _accumulate(op, values, out, reverse: bool = False) -> None:
    """out[c] = out[c - 1] op values[c] along axis 0, from out[0] = values[0];
    with ``reverse``, from the last column down."""
    if reverse:
        values, out = values[::-1], out[::-1]
    if values[0].size < SLAB:
        op.accumulate(values, axis=0, out=out)
        return
    out[0] = values[0]
    for prev, value, this in zip(out[:-1], values[1:], out[1:]):
        op(prev, value, this)


def batch_statistics(z: PooledSample, idx: np.ndarray, *,
                     permutation: bool = False) -> RowStatistics:
    """The effect, variance terms and validity of each row of the index matrix.

    Parameters
    ----------
    z : PooledSample
        The pool and its event grid, from :func:`batch_context`.
    idx : ndarray of shape (r, n1 + n2)
        Row-wise selections into the pooled sample; the first n1 columns
        form group 1 of the replicate.
    permutation : bool
        Promise that every row is a permutation of 0..n1+n2-1, so group
        2's counts are the pooled counts minus group 1's.

    Returns
    -------
    RowStatistics
        Arrays of shape (r,), freshly allocated.
    """
    if idx.ndim != 2 or idx.shape[1] != z.n:
        raise ValueError("index matrix must have n1 + n2 columns")
    r, w = idx.shape[0], z.width
    tmp, dh, surv = _work.grids(z, r)
    surv[0] = 1.0  # S before the first event

    # int64 counts on the event grid, [event?][column][group][row] (group
    # 2's stay 0 for permutation rows); column 0 is never read after this.
    # A bin is the observation's code, plus r in group 2's columns and the row
    code = z.events * (w * 2 * r) + z.column * (2 * r)
    bins = np.take(code, idx[:, :z.n1] if permutation else idx)
    np.add(bins[:, z.n1:], r, out=bins[:, z.n1:])
    np.add(bins, np.arange(r)[:, None], out=bins)
    hist = np.bincount(bins.ravel(), minlength=2 * w * 2 * r).reshape(2, w, 2, r)
    # y: the totals, then the at-risk counts; d: the deaths.  Permutation
    # rows form group 1's and take group 2's as the pool's minus group 1's,
    # on the grids' strided halves, with ufunc buffers of one run of r
    # values from SLAB values per slab (see "The layout")
    y, d = hist[0, 1:], hist[1, 1:]
    g = 0 if permutation else slice(None)
    with np.errstate():
        if permutation and 2 * r >= SLAB:
            np.setbufsize(r // 16 * 16)
        np.add(y[:, g], d[:, g], out=y[:, g])
        _accumulate(np.add, y[:, g], y[:, g], reverse=True)
        if permutation:
            np.subtract(z.pool_at_risk[1:, None], y[:, 0], out=y[:, 1])
            np.subtract(z.pool_deaths[1:, None], d[:, 0], out=d[:, 1])

    # Kaplan-Meier factors (into tmp) and hazard-variance increments; the
    # last column holds no event, so its dH and jump masses are exact zeros
    radix = max(z.n1, z.n2) + 1
    if radix * radix > w * 2 * r:  # tables larger than the grid: the formulas
        _km_terms(y, d, tmp, dh)
    else:  # the codes y radix + d take the deaths' place; every code is
        # in range, and "clip" spares np.take the buffered "raise" path
        np.multiply(y, radix, out=y)
        np.add(d, y, out=d)
        tables = _km_tables(radix)
        np.take(tables[0], d, out=tmp, mode="clip")
        np.take(tables[1], d, out=dh, mode="clip")
    s, s_left = surv[1:], surv[:-1]
    _accumulate(np.multiply, tmp, s)

    # the counts are dead: their grids hold, as floats, the jump masses
    # (mass[:, j] those of the other group's curve) and the tail sums A.
    # A one-run ufunc buffer for the reversed write measured 1-3 % slower
    mass, a = hist[:, 1:].view(np.float64)
    np.subtract(s_left, s, out=mass[:, ::-1])

    # u = (S + S_left) mass, with group 2's atom doubled, 2 S1(k) S2(k), in
    # its trailing column (whose mass is 0); a holds its tail sums U, and
    # U at column 1 is twice the effect
    np.add(s, s_left, out=tmp)
    np.multiply(tmp, mass, out=tmp)
    np.multiply(2.0, s[-1, 0] * s[-1, 1], out=tmp[-1, 1])
    _accumulate(np.add, tmp, a, reverse=True)
    p = 0.5 * a[0, 0]
    # A + A_minus + 2 atom = S mass + U one column later (the last
    # column's dH is 0); the variance terms are the column-order sums of
    # dH (A + A_minus + 2 atom)^2, of which only the last is read
    np.multiply(s, mass, out=tmp)
    np.add(tmp[:-1], a[1:], out=tmp[:-1])
    np.square(tmp, out=tmp)
    np.multiply(dh, tmp, out=dh)
    if 2 * r < SLAB:
        sums = np.add.accumulate(dh, axis=0, out=dh)[-1]
    else:  # a reduce along a non-inner axis adds one slab at a time, in order
        sums = np.add.reduce(dh, axis=0)
    sigma2_12, sigma2_21 = 0.25 * sums[0], 0.25 * sums[1]
    sigma2 = (z.n1 * z.n2 / z.n) * (sigma2_12 + sigma2_21)
    # a curve ends below 1.0 exactly when its group has an event
    has_events = (s[-1, 0] < 1.0) & (s[-1, 1] < 1.0)
    # np.clip's values, p being a sum of non-negative terms (never -0.0 or
    # NaN), without its wrapper's microsecond per call
    return RowStatistics(p=np.minimum(np.maximum(p, 0.0), 1.0), sigma2_12=sigma2_12,
                         sigma2_21=sigma2_21, sigma2=sigma2,
                         valid=(sigma2 > 0.0) & has_events)


def identity_row(z: PooledSample) -> RowStatistics:
    """The observed data's row: group 1 is the first n1 pooled observations.

    The identity is a permutation, so group 2's counts are the pooled
    counts minus group 1's.
    """
    idx = np.arange(z.n, dtype=np.int64)[None, :]
    return batch_statistics(z, idx, permutation=True)


def replicate_statistics(z: PooledSample, scheme: str, b: int, seed: int,
                         workers: int = 1) -> np.ndarray:
    """The b studentized replicates at p0 = 1/2 of a scheme of
    :data:`~survcmp.rng.SCHEME_IDS`, NaN where a row is invalid, the same
    bits for any ``workers`` (see "Chunks" above)."""
    todo = _rng.blocks(b)
    per_call = chunk_blocks(z)
    chunks = [todo[i:i + per_call] for i in range(0, len(todo), per_call)]
    workers = workers if b * (z.n + 2) >= POOL_CELLS else 1
    return np.concatenate([part for run in _rng.fan_out(_run_chunks, chunks, workers,
                                                        z, scheme, seed)
                           for part in run])


def _run_chunks(z: PooledSample, scheme: str, seed: int, chunks) -> list:
    """Studentized replicates per chunk, NaN where invalid, one engine call each."""
    scheme_id = _rng.SCHEME_IDS[scheme]
    permutation = scheme == "permutation"
    parts = []
    for chunk in chunks:
        idx = np.empty((sum(size for _, size in chunk), z.n), np.int64)
        for (index, size), start in zip(chunk, range(0, len(idx), _rng.BLOCK)):
            rng, block = _rng.stream(seed, scheme_id, index), idx[start:start + size]
            if permutation:  # shuffled in place, in the block's slice
                permutation_indices(rng, size, z.n, out=block)
            else:
                block[...] = bootstrap_indices(rng, size, z.n)
        rows = batch_statistics(z, idx, permutation=permutation)
        parts.append(studentize(rows.p, rows.sigma2, rows.valid, z.n1, z.n2, 0.5))
    return parts
