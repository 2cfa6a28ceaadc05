"""The studentized statistic, for the observed data and for every resample.

One row of an index matrix selects a two-group sample from the pooled
data; :func:`batch_statistics` returns each row's effect p, variance
terms sigma2_12 and sigma2_21 and validity, and :func:`studentize` turns
them into sqrt(n1 n2 / n) (p - p0) / sigma.  The observed data are the
identity row 0..n-1 (:func:`identity_row`), so the observed statistic and
its replicates come from the same arithmetic, bit for bit.

The event grid.  The pooled sample's distinct times form the full grid of
q slots, but a replicate's Kaplan-Meier curve can only step where the pool
has an event.  So the curves are built on the event grid: one column per
pooled event time, a leading column for times before the first event and
a trailing column that no observation reaches.  Each observation sits in
the last event column at or before its time, which keeps every at-risk
count right.  Per replicate and group, event and at-risk counts are
histogrammed onto that grid; curves, hazard-variance increments and the
effect integral then come out of row-wise cumulative products and
reversed cumulative sums, for both groups in one pass.  This is exact: on
the full grid a slot without an event only multiplies S by 1.0 and adds
exact zeros to every cumulative sum.

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
reference engine in ``tests/oracles.py``).  The row sums are the one
place where the grid width shows: numpy's pairwise summation groups
terms by position, so the per-slot terms of p, sigma2_12 and sigma2_21
go back to their full-grid slots, between exact zeros, before they are
summed.

Permutation rows hold every pooled observation once, so group 2's death
and at-risk counts are the pooled counts minus group 1's, in exact
integer arithmetic; ``batch_statistics(..., permutation=True)`` takes that
shortcut and histograms group 1 only.  Block arrays live in a
:class:`Workspace` that one worker reuses across its blocks; workspaces
are never shared between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import BLOCK

__all__ = ["BatchContext", "RowStatistics", "Workspace", "batch_context",
           "batch_statistics", "bootstrap_indices", "identity_row",
           "permutation_indices", "studentize"]


@dataclass(frozen=True)
class BatchContext:
    """Pooled data prepared for batched resampling.

    ``pos`` maps each pooled observation to its slot on the full grid of
    q distinct times and ``events`` is the pooled indicator vector.  The
    event grid has ``width`` columns: column 0 for times before the first
    event, column c = 1..E for the full-grid slot ``event_slots[c - 1]``,
    and a last column that no observation reaches.  ``column`` is each
    pooled observation's event-grid column; ``pool_deaths`` and
    ``pool_at_risk`` are the pooled counts on the event grid.
    """

    pos: np.ndarray
    events: np.ndarray
    q: int
    n1: int
    n2: int
    event_slots: np.ndarray
    column: np.ndarray
    pool_deaths: np.ndarray
    pool_at_risk: np.ndarray

    @property
    def width(self) -> int:
        return self.event_slots.size + 2

    def __post_init__(self):
        for arr in (self.pos, self.events, self.event_slots, self.column,
                    self.pool_deaths, self.pool_at_risk):
            arr.setflags(write=False)


def batch_context(times: np.ndarray, events: np.ndarray, n1: int, n2: int) -> BatchContext:
    grid, pos = np.unique(np.asarray(times, dtype=float), return_inverse=True)
    pos = pos.astype(np.int64)
    events = np.asarray(events, bool).copy()
    # a slot is an event column when a pooled event lands on it; each
    # observation's column counts the event slots at or before its own
    hit = np.bincount(pos[events], minlength=grid.size) > 0
    slots = np.flatnonzero(hit)
    column = np.cumsum(hit)[pos]
    width = slots.size + 2
    deaths = np.bincount(column[events], minlength=width).astype(float)
    at_risk = np.cumsum(np.bincount(column, minlength=width)[::-1])[::-1].astype(float)
    return BatchContext(pos=pos, events=events, q=int(grid.size), n1=int(n1), n2=int(n2),
                        event_slots=slots, column=column,
                        pool_deaths=deaths, pool_at_risk=at_risk)


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


def permutation_indices(rng: np.random.Generator, r: int, n: int) -> np.ndarray:
    """r independent uniform permutations of 0..n-1 (row-wise shuffles)."""
    base = np.tile(np.arange(n, dtype=np.int64), (r, 1))
    return rng.permuted(base, axis=1)


class Workspace:
    """Block arrays for one context, reused across the blocks of one worker.

    Holds up to ``rows`` replicate rows.  Not thread-safe: give every
    thread its own.
    """

    def __init__(self, ctx: BatchContext, rows: int = BLOCK):
        n, w = ctx.n1 + ctx.n2, ctx.width
        self.ctx, self.rows = ctx, rows
        # histogram bin of (group, event?, row, column) = the observation's
        # code + the offset of its (row, index column)
        self.code = ctx.column + rows * w * ctx.events
        self.offsets = (np.arange(rows)[:, None] * w
                        + np.where(np.arange(n) < ctx.n1, 0, 2 * rows * w))
        self.bins = np.empty((rows, n), np.int64)
        self.ones = np.ones(rows * n)
        # flat (group, row, column) buffers
        size = 2 * rows * w
        self.at_risk, self.deaths, self.tmp = np.empty(size), np.empty(size), np.empty(size)
        self.dh, self.mass, self.tail = np.empty(size), np.empty(size), np.empty(size)
        # one element longer: read one place later, strict is the strict
        # tail; read one place earlier, surv (led by 1.0) is the left limit
        self.strict = np.zeros(size + 1)
        self.surv = np.ones(size + 1)
        self.terms = np.empty((3, rows, w))
        # slots without a pooled event stay exact zeros
        self.full_terms = np.zeros((3, rows, ctx.q))


def _reverse_cumsum(values, out):
    np.cumsum(values[..., ::-1], axis=-1, out=out[..., ::-1])


def batch_statistics(ctx: BatchContext, idx: np.ndarray, *, permutation: bool = False,
                     work: Workspace | None = None) -> RowStatistics:
    """The effect, variance terms and validity of each row of the index matrix.

    Parameters
    ----------
    ctx : BatchContext
        Prepared pooled data.
    idx : ndarray of shape (r, n1 + n2)
        Row-wise selections into the pooled sample; the first n1 columns
        form group 1 of the replicate.
    permutation : bool
        Promise that every row is a permutation of 0..n1+n2-1, so group
        2's counts are the pooled counts minus group 1's.
    work : Workspace, optional
        Arrays to reuse, made for ``ctx`` with at least r rows; a fresh
        one is made when omitted.

    Returns
    -------
    RowStatistics
        Arrays of shape (r,), freshly allocated.
    """
    n1, n2 = ctx.n1, ctx.n2
    n = n1 + n2
    if idx.ndim != 2 or idx.shape[1] != n:
        raise ValueError("index matrix must have n1 + n2 columns")
    r, w = idx.shape[0], ctx.width
    if work is None:
        work = Workspace(ctx, r)
    elif work.ctx is not ctx or work.rows < r:
        raise ValueError("workspace does not fit this context and block")

    def grid(buf, shift=0):
        # (group, row, column) view of a flat buffer, starting at `shift`
        return buf[shift:shift + 2 * r * w].reshape(2, r, w)

    # counts on the event grid, [group][event?][row][column]
    groups, m = (1, n1) if permutation else (2, n)
    bins = np.add(work.code[idx[:, :m]], work.offsets[:r, :m], out=work.bins[:r, :m])
    hist = np.bincount(bins.ravel(), weights=work.ones[:bins.size],
                       minlength=groups * 2 * work.rows * w
                       ).reshape(groups, 2, work.rows, w)[:, :, :r]
    y, tmp = grid(work.at_risk), grid(work.tmp)
    if permutation:
        d = grid(work.deaths)
        d[0] = hist[0, 1]
        np.add(hist[0, 0], d[0], out=tmp[0])
        _reverse_cumsum(tmp[0], y[0])
        np.subtract(ctx.pool_at_risk, y[0], out=y[1])
        np.subtract(ctx.pool_deaths, d[0], out=d[1])
    else:
        d = hist[:, 1]
        np.add(hist[:, 0], d, out=tmp)
        _reverse_cumsum(tmp, y)

    # Kaplan-Meier curves and hazard-variance increments.  s_left at column
    # 0 reads the previous row's last value; columns 0 and w - 1 hold no
    # event, and their terms are never summed.
    s, s_left, dh = grid(work.surv, 1), grid(work.surv), grid(work.dh)
    np.maximum(y, 1.0, out=tmp)
    np.divide(d, tmp, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    np.cumprod(tmp, axis=2, out=s)
    # dH = dN / ((Y - dN) Y), or 0 where Y = dN: there min(dN, gap) = 0,
    # and elsewhere gap >= Y >= dN
    np.subtract(y, d, out=tmp)
    np.multiply(tmp, y, out=tmp)
    np.minimum(d, tmp, out=dh)
    np.maximum(tmp, 1.0, out=tmp)
    np.divide(dh, tmp, out=dh)

    # mass[j] = jump masses of the other group's curve
    mass = grid(work.mass)
    np.subtract(s_left[::-1], s[::-1], out=mass)

    terms = work.terms[:, :r]
    np.add(s[0], s_left[0], out=tmp[0])
    np.multiply(0.5, tmp[0], out=tmp[0])
    np.multiply(tmp[0], mass[0], out=terms[0])
    # sigma2_12 and sigma2_21 terms dH_j (A + A_minus + 2 atom)^2
    a, a_minus = grid(work.tail), grid(work.strict, 1)
    np.multiply(s, mass, out=tmp)
    _reverse_cumsum(tmp, a)
    np.multiply(s_left, mass, out=tmp)
    _reverse_cumsum(tmp, grid(work.strict))
    np.add(a, a_minus, out=a)
    leftover = s[1, :, -1:] * s[0, :, -1:]
    np.add(a[1], 2.0 * leftover, out=a[1])
    np.square(a, out=a)
    np.multiply(dh, a, out=terms[1:])

    full = work.full_terms[:, :r]
    full[:, :, ctx.event_slots] = terms[:, :, 1:-1]
    sums = full.sum(axis=2)
    sigma2_12, sigma2_21 = 0.25 * sums[1], 0.25 * sums[2]
    sigma2 = (n1 * n2 / n) * (sigma2_12 + sigma2_21)
    # a curve ends below 1.0 exactly when its group has an event
    has_events = (s[0, :, -1] < 1.0) & (s[1, :, -1] < 1.0)
    return RowStatistics(p=np.clip(sums[0], 0.0, 1.0), sigma2_12=sigma2_12,
                         sigma2_21=sigma2_21, sigma2=sigma2,
                         valid=(sigma2 > 0.0) & has_events)


def identity_row(ctx: BatchContext) -> RowStatistics:
    """The observed data's row: group 1 is the first n1 pooled observations.

    The identity is a permutation, so group 2's counts are the pooled
    counts minus group 1's.
    """
    idx = np.arange(ctx.n1 + ctx.n2, dtype=np.int64)[None, :]
    return batch_statistics(ctx, idx, permutation=True)
