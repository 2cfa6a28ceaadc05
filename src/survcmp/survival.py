"""Censored samples, their pooled form, risk sets and product-limit curves.

All survival times are analysed on a window [0, k] chosen by the caller.
A recorded time beyond the window becomes a time at k, and one policy of
:data:`HORIZON_POLICIES` sets its status there: censored (the CLI's and
``ingest_csv``'s default) or an event (:func:`truncate` and the
simulator).  Ties are first-class: tied event times aggregate into a
single jump, and a censoring tied with an event leaves the censored
subject in the risk set at that time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._engine import BatchContext, batch_context
from .stepfun import StepFunction

__all__ = [
    "HORIZON_POLICIES",
    "Sample",
    "PooledSample",
    "CountingProcesses",
    "KaplanMeierFit",
    "truncate",
    "pool",
    "split",
    "counting_processes",
    "kaplan_meier",
    "nelson_aalen",
]

# what to do with recorded times beyond the analysis window [0, k]:
#   censor: administratively censored at k (the subject was under
#           observation and alive at the window end)
#   event:  an event at k (survival past the window counts as reaching
#           the truncated endpoint)
HORIZON_POLICIES = ("censor", "event")


def _beyond_horizon(times: np.ndarray, events: np.ndarray, k: float,
                    policy: str) -> tuple[np.ndarray, np.ndarray]:
    """Move finite times past k to k, with the policy's status there."""
    # non-finite times are left for Sample to reject
    over = np.isfinite(times) & (times > k)
    return np.where(over, k, times), np.where(over, policy == "event", events)


class Sample:
    """One group's observations, truncated to the window [0, k].

    Stores times and event indicators as parallel numpy arrays.  Instances
    are immutable; build them with :func:`truncate`.
    """

    __slots__ = ("times", "events", "k")

    def __init__(self, times, events, k):
        times = np.asarray(times, dtype=float)
        events = np.asarray(events, dtype=bool)
        if times.ndim != 1 or events.shape != times.shape:
            raise ValueError("times and events must be 1-d arrays of equal length")
        if times.size == 0:
            raise ValueError("empty sample")
        k = float(k)
        if not np.isfinite(k) or k <= 0:
            raise ValueError("invalid horizon")
        # NaN fails both comparisons, so non-finite times are caught here too
        if not np.all((times > 0) & (times <= k)):
            raise ValueError("times must be positive, finite and lie in (0, k]")
        self.times = times
        self.events = events
        self.k = k
        times.setflags(write=False)
        events.setflags(write=False)

    @property
    def n(self) -> int:
        return self.times.size

    def __repr__(self):
        return f"Sample(n={self.n}, events={int(self.events.sum())}, k={self.k})"


@dataclass(frozen=True)
class PooledSample:
    """Both groups' observations concatenated, labels erased.

    Group 1 occupies the first ``n1`` slots.  ``k`` is the shared window
    end.  ``context`` is the statistic engine's view of the pool, built on
    first use and shared by the observed statistic and every replicate set
    drawn from the pool.
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


@dataclass(frozen=True)
class CountingProcesses:
    """Aggregated event counts and risk-set sizes at the distinct event times.

    ``event_times`` holds the strictly increasing times with at least one
    event, ``dn`` the number of events at each, and ``y`` the number of
    subjects with recorded time >= that time.  Censored-only times do not
    appear in ``event_times`` but do shrink ``y`` at later times.
    """

    event_times: np.ndarray
    dn: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for a in (self.event_times, self.dn, self.y):
            a.setflags(write=False)


@dataclass(frozen=True)
class KaplanMeierFit:
    """Product-limit fit of one sample.

    ``survival`` is the Kaplan-Meier step function S-hat, ``normalized``
    evaluates the mid-point version (S-hat(t) + S-hat(t-)) / 2 used for
    tie-aware comparisons, ``counting`` carries the underlying counts, and
    ``n`` is the sample size.
    """

    survival: StepFunction
    counting: CountingProcesses
    n: int

    def normalized(self, t):
        """Mid-point survival (S(t) + S(t-)) / 2 at t (scalar or array)."""
        s = self.survival
        return 0.5 * (s(t) + s.left_limit(t))


def truncate(raw, k) -> Sample:
    """Truncate raw observations to the window [0, k] and build a Sample.

    Times greater than k are replaced by an event at k; a time exactly at k
    keeps its recorded status.  ``raw`` is a pair of arrays (times, events).

    Raises
    ------
    ValueError
        If there are no observations ("empty sample"), k is not a positive
        finite number ("invalid horizon"), or a time is not positive and
        finite (raised by :class:`Sample`).
    """
    kf = float(k)
    if not np.isfinite(kf) or kf <= 0:
        raise ValueError("invalid horizon")
    if len(raw) == 0:
        raise ValueError("empty sample")
    times = np.asarray(raw[0], dtype=float)
    events = np.asarray(raw[1], dtype=bool)
    return Sample(*_beyond_horizon(times, events, kf, "event"), kf)


def counting_processes(sample: Sample) -> CountingProcesses:
    """Aggregate a sample into event counts and risk-set sizes.

    Examples
    --------
    >>> s = truncate(([1.0, 1.0, 2.0, 3.0], [True, True, False, True]), 10.0)
    >>> cp = counting_processes(s)
    >>> cp.event_times.tolist(), cp.dn.tolist(), cp.y.tolist()
    ([1.0, 3.0], [2, 1], [4, 1])
    """
    order = np.argsort(sample.times, kind="stable")
    t = sample.times[order]
    e = sample.events[order]
    # first position of each distinct time in the sorted order
    start = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
    distinct = t[start]
    # y at a distinct time = subjects at or after its first occurrence
    y_all = sample.n - start
    dn_all = np.add.reduceat(e.astype(np.int64), start)
    has_event = dn_all > 0
    return CountingProcesses(
        event_times=distinct[has_event],
        dn=dn_all[has_event],
        y=y_all[has_event],
    )


def kaplan_meier(sample: Sample) -> KaplanMeierFit:
    """Kaplan-Meier product-limit estimate of the survival function.

    Tied events at a time u contribute a single factor (1 - dN(u)/Y(u)).
    Beyond the last event time the estimate stays constant through k; no
    tail redistribution is applied.

    Examples
    --------
    >>> s = truncate(([1.0, 2.0, 3.0], [True, False, True]), 10.0)
    >>> fit = kaplan_meier(s)
    >>> float(fit.survival(1.0)), float(fit.survival(3.0))
    (0.6666666666666667, 0.0)
    """
    cp = counting_processes(sample)
    factors = 1.0 - cp.dn / cp.y
    surv = np.cumprod(factors)
    step = StepFunction(cp.event_times, surv, 1.0, sample.k)
    return KaplanMeierFit(survival=step, counting=cp, n=sample.n)


def nelson_aalen(sample: Sample) -> StepFunction:
    """Nelson-Aalen cumulative-hazard estimate, jumps dN(u)/Y(u).

    Examples
    --------
    >>> s = truncate(([1.0, 2.0], [True, True]), 10.0)
    >>> na = nelson_aalen(s)
    >>> float(na(1.0)), float(na(2.0))
    (0.5, 1.5)
    """
    cp = counting_processes(sample)
    return StepFunction(cp.event_times, np.cumsum(cp.dn / cp.y), 0.0, sample.k)
