"""Censored samples, their pooling and the product-limit curve.

All survival times are analysed on a window [0, k] chosen by the caller.
A recorded time beyond the window becomes a time at k, and one policy of
:data:`HORIZON_POLICIES` sets its status there: censored (the CLI's and
``ingest_csv``'s default) or an event (:func:`truncate` and the
simulator).  Ties are first-class: tied event times aggregate into a
single jump, and a censoring tied with an event leaves the censored
subject in the risk set at that time.
"""

from __future__ import annotations

import numpy as np

from ._engine import PooledSample, batch_context

__all__ = [
    "HORIZON_POLICIES",
    "Sample",
    "PooledSample",  # the type pool returns, defined with the engine that reads it
    "truncate",
    "pool",
    "km_curve",
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


def _event_flags(events) -> np.ndarray:
    """Event indicators as a bool array: bools as given, numbers only if each is 0 or 1."""
    events = np.asarray(events)
    if events.dtype != bool:
        if events.dtype.kind not in "iuf" or not np.all((events == 0) | (events == 1)):
            raise ValueError("events must be booleans or 0/1")
        events = events == 1
    return events


class Sample:
    """One group's observations, truncated to the window [0, k].

    Stores times and event indicators as parallel numpy arrays.  Instances
    are immutable; build them with :func:`truncate`.
    """

    __slots__ = ("times", "events", "k")

    def __init__(self, times, events, k):
        # copies, so that freezing them below leaves the caller's arrays writable
        times = np.array(times, dtype=float)
        events = np.array(_event_flags(events))
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


def pool(s1: Sample, s2: Sample) -> PooledSample:
    """Concatenate two samples, group 1 first, keeping the shared window;
    the result carries the statistic engine's event grid."""
    if s1.k != s2.k:
        raise ValueError("incompatible horizons")
    return batch_context(np.concatenate([s1.times, s2.times]),
                         np.concatenate([s1.events, s2.events]), s1.n, s2.n, s1.k)


def truncate(raw, k) -> Sample:
    """Truncate raw observations to the window [0, k] and build a Sample.

    Times greater than k are replaced by an event at k; a time exactly at k
    keeps its recorded status.  ``raw`` is a pair of arrays (times, events).

    Raises
    ------
    ValueError
        If there are no observations ("empty sample"), k is not a positive
        finite number ("invalid horizon"), an event flag is neither a
        boolean nor 0/1, or a time is not positive and finite (raised by
        :class:`Sample`).
    """
    kf = float(k)
    if not np.isfinite(kf) or kf <= 0:
        raise ValueError("invalid horizon")
    if len(raw) == 0:
        raise ValueError("empty sample")
    times = np.asarray(raw[0], dtype=float)
    events = _event_flags(raw[1])
    return Sample(*_beyond_horizon(times, events, kf, "event"), kf)


def km_curve(sample: Sample) -> tuple[np.ndarray, np.ndarray]:
    """Kaplan-Meier curve of one sample: (event times, S-hat at each), from
    the statistic engine's counts on the sample alone.

    The event times are the distinct times with at least one event, in
    increasing order.  Tied events at a time u contribute a single factor
    1 - dN(u)/Y(u), where Y(u) counts every recorded time >= u, so a
    censoring tied with an event is still at risk.  S-hat is 1 before the
    first event time and constant from the last one through k; no tail
    redistribution is applied.  With ``np.searchsorted`` on the event
    times, side "right" gives S-hat(t) and side "left" its left limit.

    Examples
    --------
    >>> s = truncate(([1.0, 1.0, 2.0, 3.0, 12.0], [True, True, False, True, False]), 10.0)
    >>> times, surv = km_curve(s)
    >>> times.tolist(), surv.tolist()
    ([1.0, 3.0, 10.0], [0.6, 0.3, 0.0])
    >>> km_curve(Sample([4.0, 5.0], [False, False], 10.0))[0].size
    0
    """
    z = batch_context(sample.times, sample.events, sample.n, 0, sample.k)
    # the grid's first and last columns hold no event
    return (np.unique(sample.times[sample.events]),
            np.cumprod(1.0 - z.pool_deaths[1:-1] / z.pool_at_risk[1:-1]))
