"""Slow but exact reference forms, kept for the tests only.

The mid-rank pairwise count gives the effect on uncensored data from all
n1 x n2 pairs.  ``wilcoxon_integral`` and ``integration_by_parts_value``
give the effect and its by-parts companion as exact jump sums over
Kaplan-Meier step functions (``StepFunction``, ``kaplan_meier``, built on
the ``np.unique`` form of the counting processes,
``reference_counting_processes``); the package's ``km_curve`` must match
``kaplan_meier`` bit for bit.  ``reference_batch_statistics`` is the
statistic engine on the full grid of pooled times (its slots from
``np.unique``, not the engine's sort), ``reference_batch_context``
builds the pool's event grid with two ``np.unique`` calls and a
``searchsorted``, ``reference_ingest_csv`` reads a CSV one row at a time,
and ``reference_calibrate_censoring`` rebuilds the censoring times from
the uniforms at every bisection step, and
``reference_truncation_proportions`` counts each group's recorded times
beyond the window from its own draws.  The plug-in
variance in ``survcmp._engine`` is a reassociated single sum over one
group's event times; the forms here evaluate the same quantity the direct
way: a covariance kernel per group, its four-limit average at any pair of
points, and the O(m^2) quadratic form of that kernel against the other
group's jump masses.  They share no code with the package's tail sums,
which is what makes them useful as oracles.  ``bootstrap_replicate`` and
``permutation_replicate`` draw and evaluate one replicate on its own.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from survcmp import rng as _rng
from survcmp._engine import (PooledSample, batch_statistics, bootstrap_indices,
                             permutation_indices, studentize)
from survcmp.datasets import _label_key
from survcmp.simulate import (_CAL_TAG, _PROP_TAG, CENSORING_BANDS, SETUPS,
                              CensoringCalibration, ScenarioConfig, calibrate_censoring)
from survcmp.survival import HORIZON_POLICIES, Sample


class StepFunction:
    """Right-continuous piecewise-constant function on [0, k].

    The function equals ``initial_value`` on [0, t_1) and ``values[i]`` on
    [t_i, t_{i+1}), where t_1 < t_2 < ... are the jump times.  Evaluation
    uses binary search with exact time comparison, so times that are equal
    as floats hit the same piece.

    Parameters
    ----------
    jump_times : array_like
        Strictly increasing jump locations, all in (0, k].
    values : array_like
        Function value on and after each jump time.  Same length as
        ``jump_times``.
    initial_value : float
        Value on [0, t_1).
    k : float
        Right end of the time window.
    """

    __slots__ = ("jump_times", "values", "initial_value", "k", "_padded")

    def __init__(self, jump_times, values, initial_value, k):
        jump_times = np.asarray(jump_times, dtype=float)
        values = np.asarray(values, dtype=float)
        if jump_times.ndim != 1 or values.shape != jump_times.shape:
            raise ValueError("jump_times and values must be 1-d arrays of equal length")
        if jump_times.size and np.any(np.diff(jump_times) <= 0):
            raise ValueError("jump times must be strictly increasing")
        if jump_times.size and (jump_times[0] <= 0 or jump_times[-1] > k):
            raise ValueError("jump times must lie in (0, k]")
        self.jump_times = jump_times
        self.values = values
        self.initial_value = float(initial_value)
        self.k = float(k)
        # value on each piece: the initial value, then one per jump
        self._padded = np.concatenate(([self.initial_value], values))
        for arr in (jump_times, values, self._padded):
            arr.setflags(write=False)

    def __call__(self, t):
        """Evaluate at t (scalar or array), right-continuously."""
        out = self._padded[np.searchsorted(self.jump_times, t, side="right")]
        return float(out) if np.isscalar(t) else out

    def left_limit(self, t):
        """Value just before t, i.e. lim_{s -> t-} f(s)."""
        out = self._padded[np.searchsorted(self.jump_times, t, side="left")]
        return float(out) if np.isscalar(t) else out

    @property
    def deltas(self):
        """Jump sizes f(t_i) - f(t_i-), one per jump time."""
        return np.diff(self._padded)


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


def reference_counting_processes(sample: Sample) -> CountingProcesses:
    """Event counts and risk sets at the distinct event times, with
    ``np.unique`` finding the distinct times and their first positions."""
    order = np.argsort(sample.times, kind="stable")
    t = sample.times[order]
    e = sample.events[order]
    distinct, start = np.unique(t, return_index=True)
    y_all = sample.n - start
    dn_all = np.add.reduceat(e.astype(np.int64), start)
    has_event = dn_all > 0
    return CountingProcesses(event_times=distinct[has_event], dn=dn_all[has_event],
                             y=y_all[has_event])


def kaplan_meier(sample: Sample) -> KaplanMeierFit:
    """Kaplan-Meier step function of one sample: one factor
    (1 - dN(u)/Y(u)) per distinct event time, constant after the last."""
    cp = reference_counting_processes(sample)
    surv = np.cumprod(1.0 - cp.dn / cp.y)
    return KaplanMeierFit(survival=StepFunction(cp.event_times, surv, 1.0, sample.k),
                          counting=cp, n=sample.n)


def split(z: PooledSample) -> tuple[Sample, Sample]:
    """Undo ``survcmp.survival.pool`` without shuffling."""
    return (Sample(z.times[:z.n1], z.events[:z.n1], z.k),
            Sample(z.times[z.n1:], z.events[z.n1:], z.k))


def wilcoxon_integral(f_normalized, g: StepFunction) -> float:
    """Integrate a normalized curve against the mass of a step function.

    Computes sum over the jump times u of ``g`` of f_normalized(u) times
    the downward mass -(g(u) - g(u-)).  Exact jump summation, no grid.

    Parameters
    ----------
    f_normalized : callable
        Vectorized evaluator of the mid-point-normalized curve, e.g.
        ``KaplanMeierFit.normalized``.
    g : StepFunction
        Non-increasing step function whose jumps carry the mass.
    """
    u = g.jump_times
    if u.size == 0:
        return 0.0
    return float(np.sum(f_normalized(u) * -g.deltas))


def integration_by_parts_value(s1: Sample, s2: Sample) -> float:
    """Companion value 1/2 - int_[0,k) S1 dS2 / 2 + int_[0,k) S2 dS1 / 2.

    The half-open domain excludes jumps exactly at k.  The product rule on
    [0, k) relates it to the effect estimate p = -int_[0,k] S1+- dS2 (S1+-
    the mid-point curve) exactly:

        value - p = S1(k-) S2(k-) / 2 + S1+-(k) dS2(k),

    where dS2(k) = S2(k) - S2(k-) <= 0 is group 2's jump at k.  Without that
    jump the difference is S1(k-) S2(k-) / 2, and the two agree when either
    curve has no mass left just before k.
    """
    if s1.k != s2.k:
        raise ValueError("incompatible horizons")
    f1 = kaplan_meier(s1).survival
    f2 = kaplan_meier(s2).survival

    def _below_k(f: StepFunction, g: StepFunction) -> float:
        # int_[0,k) f dg, exact jump sum over g's jumps strictly below k
        u = g.jump_times
        keep = u < g.k
        if not keep.any():
            return 0.0
        return float(np.sum(f(u[keep]) * g.deltas[keep]))

    return 0.5 - 0.5 * _below_k(f1, f2) + 0.5 * _below_k(f2, f1)


@dataclass(frozen=True)
class CovKernel:
    """Covariance kernel of one group's Kaplan-Meier process.

    The kernel is Gamma(u, v) = S(u) S(v) H(min(u, v)) where H cumulates
    dN(u) / ((1 - dN(u)/Y(u)) Y(u)^2) over the event times.  An event time
    with dN == Y (the curve drops to zero) contributes nothing to H; its
    variance contribution is carried entirely by the vanishing S factors.

    ``h_values`` holds the running sums of H at ``fit.counting.event_times``.
    """

    fit: KaplanMeierFit
    h_values: np.ndarray

    def __post_init__(self):
        self.h_values.setflags(write=False)

    def h(self, t):
        """H(t), right-continuous."""
        idx = np.searchsorted(self.fit.counting.event_times, t, side="right")
        padded = np.concatenate(([0.0], self.h_values))
        out = padded[idx]
        return float(out) if np.isscalar(t) else out

    def h_left(self, t):
        """H(t-)."""
        idx = np.searchsorted(self.fit.counting.event_times, t, side="left")
        padded = np.concatenate(([0.0], self.h_values))
        out = padded[idx]
        return float(out) if np.isscalar(t) else out


def cov_kernel(sample_or_fit) -> CovKernel:
    """Build the covariance kernel table for one sample.

    Accepts a :class:`Sample` or an existing :class:`KaplanMeierFit`.
    """
    fit = sample_or_fit if isinstance(sample_or_fit, KaplanMeierFit) else kaplan_meier(sample_or_fit)
    cp = fit.counting
    denom = (cp.y - cp.dn) * cp.y
    with np.errstate(divide="ignore", invalid="ignore"):
        increments = np.where(denom > 0, cp.dn / np.where(denom > 0, denom, 1), 0.0)
    return CovKernel(fit=fit, h_values=np.cumsum(increments))


def normalized_kernel_value(kernel: CovKernel, u: float, v: float) -> float:
    """Four-limit average of the kernel at (u, v).

    Returns (Gamma(u,v) + Gamma(u-,v) + Gamma(u,v-) + Gamma(u-,v-)) / 4,
    where the left limits apply jointly to the survival factors and to the
    H argument: the limit of H(min(u', v)) as u' -> u- is H(u-) when
    u <= v and H(v) when u > v.
    """
    s = kernel.fit.survival
    su, su_l = s(u), s.left_limit(u)
    sv, sv_l = s(v), s.left_limit(v)

    def h_min(u_open: bool, v_open: bool) -> float:
        if u < v:
            return kernel.h_left(u) if u_open else kernel.h(u)
        if v < u:
            return kernel.h_left(v) if v_open else kernel.h(v)
        return kernel.h_left(u) if (u_open or v_open) else kernel.h(u)

    return 0.25 * (
        su * sv * h_min(False, False)
        + su_l * sv * h_min(True, False)
        + su * sv_l * h_min(False, True)
        + su_l * sv_l * h_min(True, True)
    )


def sigma2_jk(kernel_j: CovKernel, fit_k: KaplanMeierFit, boundary: bool = False) -> float:
    """Double integral of the normalized kernel against fit_k's mass.

    Exact O(m^2) summation over all pairs of jump times of fit_k's
    survival curve; the two negative jump masses multiply to a positive
    weight.  With ``boundary`` the mass fit_k keeps at the window end,
    S_k(k), is added as one more atom just past k, where the kernel's
    left and right limits both equal its value at k.  Always nonnegative.
    """
    g = fit_k.survival
    u = g.jump_times
    w = g.deltas  # negative; sign cancels in the outer product
    s = kernel_j.fit.survival
    su = s(u)
    su_l = s.left_limit(u)
    h = kernel_j.h(u)
    h_l = kernel_j.h_left(u)
    if boundary:
        s_k, h_k = s(g.k), kernel_j.h(g.k)
        w = np.append(w, -g(g.k))
        su, su_l = np.append(su, s_k), np.append(su_l, s_k)
        h, h_l = np.append(h, h_k), np.append(h_l, h_k)
    m = w.size
    if m == 0:
        return 0.0

    idx = np.arange(m)
    lo = np.minimum.outer(idx, idx)
    # H at min(u, v) with the left limit taken on the open side(s)
    h_min_cc = h[lo]
    h_min_oo = h_l[lo]
    le = idx[:, None] <= idx[None, :]
    h_min_oc = np.where(le, h_l[:, None], h[None, :])  # u side open
    h_min_co = np.where(le.T, h_l[None, :], h[:, None])  # v side open

    kern = 0.25 * (
        np.outer(su, su) * h_min_cc
        + np.outer(su_l, su) * h_min_oc
        + np.outer(su, su_l) * h_min_co
        + np.outer(su_l, su_l) * h_min_oo
    )
    total = float(np.outer(w, w).ravel() @ kern.ravel())
    return max(total, 0.0)


def uncensored_pairwise_oracle(s1: Sample, s2: Sample) -> float:
    """Mid-rank double sum over all pairs; requires fully uncensored data.

    Returns (1 / (n1 n2)) * sum_{i,j} [ 1{t1_i > t2_j} + 1{t1_i = t2_j}/2 ].
    Used as an independent reference for the integral estimator.
    """
    if not (s1.events.all() and s2.events.all()):
        raise ValueError("oracle requires uncensored data")
    t1 = s1.times[:, None]
    t2 = s2.times[None, :]
    wins = (t1 > t2).sum() + 0.5 * (t1 == t2).sum()
    return float(wins / (s1.n * s2.n))


def _group_curves(pos, ev, q):
    """Counts on the grid -> (S, S left limit, dH) per row."""
    r, _ = pos.shape
    offsets = (np.arange(r, dtype=np.int64) * q)[:, None]
    flat = (pos + offsets).ravel()
    total = np.bincount(flat, minlength=r * q).reshape(r, q).astype(float)
    deaths = np.bincount(flat, weights=ev.ravel(), minlength=r * q).reshape(r, q)
    # at-risk: subjects with recorded time at or after each grid slot
    y = np.cumsum(total[:, ::-1], axis=1)[:, ::-1]
    safe_y = np.where(y > 0, y, 1.0)
    s = np.cumprod(1.0 - deaths / safe_y, axis=1)
    s_left = np.concatenate([np.ones((r, 1)), s[:, :-1]], axis=1)
    gap = (y - deaths) * y
    dh = np.where(gap > 0, deaths / np.where(gap > 0, gap, 1.0), 0.0)
    return s, s_left, dh


def _row_sums(values):
    # values[:, 0] + values[:, 1] + ..., summed in that order
    return np.cumsum(values, axis=1)[:, -1]


def _terms(sj, sj_left, mass_k, trail):
    # U = tail sums of (S_j + S_j left) mass_k, led by one trailing slot
    # (twice group 2's atom, or 0); the variance term's summands
    # dH_j (A + A_minus + 2 atom)^2 need A + A_minus + 2 atom = S_j mass_k
    # + U one slot later
    u = np.concatenate([(sj + sj_left) * mass_k, trail[:, None]], axis=1)
    tail = np.cumsum(u[:, ::-1], axis=1)[:, ::-1]  # summed from the last slot down
    return tail[:, 0], sj * mass_k + tail[:, 1:]


def reference_batch_context(times, events, n1: int, n2: int, k: float) -> PooledSample:
    """``survcmp._engine.batch_context`` by ``np.unique``'s inverse for the
    slots, a second ``np.unique`` for the event slots, ``searchsorted`` for
    each observation's column and boolean-mask gathers for the counts."""
    times = np.array(times, dtype=float)
    events = np.array(events, dtype=bool)
    _, pos = np.unique(times, return_inverse=True)
    slots = np.unique(pos[events])
    column = np.searchsorted(slots, pos, side="right")
    width = slots.size + 2
    deaths = np.bincount(column[events], minlength=width)
    at_risk = np.cumsum(np.bincount(column, minlength=width)[::-1])[::-1]
    return PooledSample(times=times, events=events, n1=int(n1), n2=int(n2), k=float(k),
                        width=width, column=column, pool_deaths=deaths,
                        pool_at_risk=at_risk)


def assert_same_context(got: PooledSample, want: PooledSample) -> None:
    """Two pools hold the same sizes, window, grid width and arrays, dtypes
    and bytes alike."""
    for name in ("n1", "n2", "k", "width"):
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b) and a == b, name
    for name in ("times", "events", "column", "pool_deaths", "pool_at_risk"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _single(z: PooledSample, idx: np.ndarray) -> float:
    rows = batch_statistics(z, idx[None, :])
    if not rows.valid[0]:
        raise ValueError("degenerate replicate")
    return float(studentize(rows.p, rows.sigma2, rows.valid, z.n1, z.n2, 0.5)[0])


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


def reference_batch_statistics(z: PooledSample, idx: np.ndarray):
    """The statistic engine on the full grid of pooled distinct times.

    Row-major (row, slot) arrays from bincounts of their own, with every
    row sum a ``np.cumsum`` in slot order: p is half the tail sum of
    (S1 + S1 left) dS2, and each variance term a forward sum of dH_j
    (S_j mass_k + U_j one slot later)^2, U_j the tail sums of (S_j +
    S_j left) mass_k led by twice group 2's atom (see
    ``survcmp._engine``).  Slots without an event add exact zeros to every
    sum, so ``survcmp._engine.batch_statistics`` on the event grid must
    reproduce every component bit for bit.

    Parameters
    ----------
    z : survcmp._engine.PooledSample
        The pool; only ``times``, ``events``, ``n1`` and ``n2`` are read,
        and the full grid is ``np.unique`` of the times.
    idx : ndarray of shape (r, n1 + n2)
        Row-wise selections into the pooled sample; the first n1 columns
        form group 1 of the replicate.

    Returns
    -------
    tuple of ndarrays of shape (r,)
        p, sigma2_12, sigma2_21, sigma2 and valid, as in
        ``survcmp._engine.RowStatistics``.
    """
    n1, n2 = z.n1, z.n2
    n = n1 + n2
    if idx.ndim != 2 or idx.shape[1] != n:
        raise ValueError("index matrix must have n1 + n2 columns")
    grid, slot = np.unique(z.times, return_inverse=True)
    pos = slot[idx]
    ev = z.events[idx].astype(float)
    s1, s1_left, dh1 = _group_curves(pos[:, :n1], ev[:, :n1], grid.size)
    s2, s2_left, dh2 = _group_curves(pos[:, n1:], ev[:, n1:], grid.size)

    mass2 = s2_left - s2
    mass1 = s1_left - s1
    # the atom S1(k) S2(k): the mass group 1's curve keeps past the window
    # end, times S2(k)
    atom = s1[:, -1] * s2[:, -1]
    u1_total, a1 = _terms(s1, s1_left, mass2, np.zeros(idx.shape[0]))
    _, a2 = _terms(s2, s2_left, mass1, atom + atom)
    p = np.clip(0.5 * u1_total, 0.0, 1.0)
    sigma2_12 = 0.25 * _row_sums(dh1 * a1 ** 2)
    sigma2_21 = 0.25 * _row_sums(dh2 * a2 ** 2)
    sigma2 = (n1 * n2 / n) * (sigma2_12 + sigma2_21)
    has_events = ev[:, :n1].any(axis=1) & ev[:, n1:].any(axis=1)
    return p, sigma2_12, sigma2_21, sigma2, (sigma2 > 0.0) & has_events


def _apply_policy(time: float, event: bool, k: float, policy: str) -> tuple[float, bool]:
    if time > k:
        return k, policy == "event"
    return time, event


def reference_ingest_csv(path, k: float, time_col: str = "time", status_col: str = "delta",
                         group_col: str = "type", event_value: str = "1",
                         censored_value: str = "0", beyond_horizon: str = "censor",
                         ) -> tuple[Sample, Sample]:
    """``survcmp.datasets.ingest_csv`` as a row-by-row ``csv.reader`` loop;
    errors name the file line on which the row ends."""
    if event_value == censored_value:
        raise ValueError("event_value and censored_value must differ")
    if beyond_horizon not in HORIZON_POLICIES:
        raise ValueError(f"beyond_horizon must be one of {HORIZON_POLICIES}")
    k = float(k)
    if not np.isfinite(k) or k <= 0:
        raise ValueError("invalid horizon")

    by_group: dict[str, list[tuple[float, bool]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for col in (time_col, status_col, group_col):
            if col not in header:
                raise ValueError(f"missing column {col!r}")
        where = {name: i for i, name in enumerate(header)}
        need = [where[time_col], where[status_col], where[group_col]]
        last = max(need)
        for row in reader:
            if not row:
                continue
            row_no = reader.line_num
            if len(row) <= last:
                raise ValueError(f"row {row_no}: {len(row)} fields, "
                                 f"too few for column {header[last]!r}")
            raw_time, status, group = (row[i].strip() for i in need)
            try:
                time = float(raw_time)
            except ValueError:
                raise ValueError(f"row {row_no}: non-numeric time {raw_time!r}") from None
            if not np.isfinite(time) or time <= 0:
                raise ValueError(f"row {row_no}: time must be positive, got {raw_time!r}")
            if status == event_value:
                event = True
            elif status == censored_value:
                event = False
            else:
                raise ValueError(f"row {row_no}: invalid status code {status!r}")
            by_group.setdefault(group, []).append(_apply_policy(time, event, k, beyond_horizon))

    if len(by_group) != 2:
        raise ValueError(f"expected exactly 2 groups, found {len(by_group)}")
    labels = sorted(by_group, key=_label_key)
    samples = []
    for label in labels:
        rows = by_group[label]
        times = np.array([t for t, _ in rows])
        events = np.array([e for _, e in rows])
        samples.append(Sample(times, events, k))
    return samples[0], samples[1]


def _censored_fraction(times, unit, rate, k):
    # censored <=> C < min(T, K), with C = Exp(rate) built from fixed uniforms
    if rate <= 0:
        return 0.0
    c = -np.log1p(-unit) / rate
    return float(np.mean(c < np.minimum(times, k)))


def reference_calibrate_censoring(setup: int, level: str,
                                  draws: int = 100_000) -> CensoringCalibration:
    """``survcmp.simulate.calibrate_censoring`` transforming the uniforms
    and truncating the survival times again at every bisection step."""
    if level == "none":
        return CensoringCalibration(0.0, 0.0, 0.0, 0.0)
    lo_band, hi_band = CENSORING_BANDS[level]
    target = 0.5 * (lo_band + hi_band) / 100.0
    k = SETUPS[setup][2]
    level_id = 1 if level == "strong" else 2

    def solve(group):
        gen = _rng.stream(0, _CAL_TAG, setup, level_id, group)
        times = SETUPS[setup][group - 1].draw(gen, draws)
        unit = gen.random(draws)
        lo, hi = 1e-6, 1e3
        assert _censored_fraction(times, unit, lo, k) < target < _censored_fraction(times, unit, hi, k)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _censored_fraction(times, unit, mid, k) < target:
                lo = mid
            else:
                hi = mid
        rate = 0.5 * (lo + hi)
        return rate, 100.0 * _censored_fraction(times, unit, rate, k)

    rate1, achieved1 = solve(1)
    if setup == 3:
        rate2, achieved2 = rate1, achieved1
    else:
        rate2, achieved2 = solve(2)
    return CensoringCalibration(rate1, rate2, achieved1, achieved2)


def reference_truncation_proportions(setup: int, level: str, pre_censoring: bool = False,
                                     draws: int = 10_000) -> tuple[float, float]:
    """``survcmp.simulate.truncation_proportions`` as its own loop over the
    groups: the law's draws, then (unless ``pre_censoring`` or the level is
    'none') exponential censoring at the calibrated rate, then the share of
    recorded times beyond k, in percent."""
    cal = calibrate_censoring(setup, level)
    k = SETUPS[setup][2]
    level_id = {"strong": 1, "moderate": 2, "none": 0}[level]
    out = []
    for group, rate in ((1, cal.rate1), (2, cal.rate2)):
        gen = _rng.stream(0, _PROP_TAG, setup, level_id, group)
        recorded = SETUPS[setup][group - 1].draw(gen, draws)
        if not pre_censoring and rate > 0:
            recorded = np.minimum(recorded, -np.log1p(-gen.random(draws)) / rate)
        out.append(100.0 * (np.count_nonzero(recorded > k) / draws))
    return out[0], out[1]


def reference_generate(config: ScenarioConfig, cal: CensoringCalibration, rep: int):
    """``survcmp.simulate._generate`` truncating the latent times at k
    before censoring them, inline: a recorded time at k is an event, also
    when the censoring time equals k."""
    k = SETUPS[config.setup][2]
    gen = _rng.stream(config.seed, _rng.DATA_TAG, rep)
    samples = []
    for group, size, rate in ((1, config.n1, cal.rate1), (2, config.n2, cal.rate2)):
        latent = SETUPS[config.setup][group - 1].draw(gen, size)
        truncated = np.minimum(latent, k)
        if rate > 0:
            c = -np.log1p(-gen.random(size)) / rate
            observed = np.minimum(truncated, c)
            events = truncated <= c
        else:
            observed = truncated
            events = np.ones(size, dtype=bool)
        samples.append(Sample(observed, events, k))
    return samples[0], samples[1], _rng.derive_seed(gen)
