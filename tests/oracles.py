"""Slow but exact reference forms, kept for the tests only.

The mid-rank pairwise count gives the effect on uncensored data from all
n1 x n2 pairs.  ``reference_batch_statistics`` is the replicate engine on
the full grid of pooled times, ``reference_ingest_csv`` reads a CSV one
row at a time, ``reference_counting_processes`` finds the distinct times
with ``np.unique``, and ``reference_calibrate_censoring`` rebuilds the
censoring times from the uniforms at every bisection step.  The plug-in
variance in ``survcmp.variance`` is a reassociated single sum over one
group's event times; the forms here evaluate the same quantity the direct
way: a covariance kernel per group, its four-limit average at any pair of
points, and the O(m^2) quadratic form of that kernel against the other
group's jump masses.  They share no code with the package's tail sums,
which is what makes them useful as oracles.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from survcmp import rng as _rng
from survcmp.datasets import HORIZON_POLICIES, _label_key
from survcmp.simulate import (_CAL_TAG, CENSORING_BANDS, CensoringCalibration,
                              draw_survival, horizon)
from survcmp.survival import CountingProcesses, KaplanMeierFit, Sample, kaplan_meier


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


def _tail_sums(values):
    # tail[i] = sum over slots >= i; strict[i] = sum over slots > i
    tail = np.cumsum(values[:, ::-1], axis=1)[:, ::-1]
    strict = np.concatenate([tail[:, 1:], np.zeros((values.shape[0], 1))], axis=1)
    return tail, strict


def _sigma2_jk(sj, sj_left, dhj, mass_k, atom=0.0):
    # atom: per row, S_j(k) times the mass S_k keeps past the window end
    a_tail, _ = _tail_sums(sj * mass_k)
    prod_left = sj_left * mass_k
    _, a_strict = _tail_sums(prod_left)
    return 0.25 * np.sum(dhj * (a_tail + a_strict + 2.0 * atom) ** 2, axis=1)


def reference_batch_statistics(ctx, idx: np.ndarray):
    """The replicate engine on the full grid of pooled distinct times.

    This is the package's block evaluation as it was before it moved to
    the event grid; ``survcmp._engine.batch_statistics`` must reproduce
    its statistics and flags bit for bit.

    Parameters
    ----------
    ctx : survcmp._engine.BatchContext
        Prepared pooled data; only ``pos``, ``events``, ``q``, ``n1`` and
        ``n2`` are read.
    idx : ndarray of shape (r, n1 + n2)
        Row-wise selections into the pooled sample; the first n1 columns
        form group 1 of the replicate.

    Returns
    -------
    stats : ndarray of shape (r,)
        sqrt(n1 n2 / n) (p - 1/2) / sigma per row; NaN on degenerate rows.
    valid : ndarray of bool
        False where the replicate variance vanished or a replicate group
        has no events.
    """
    n1, n2 = ctx.n1, ctx.n2
    n = n1 + n2
    if idx.ndim != 2 or idx.shape[1] != n:
        raise ValueError("index matrix must have n1 + n2 columns")
    pos = ctx.pos[idx]
    ev = ctx.events[idx].astype(float)
    s1, s1_left, dh1 = _group_curves(pos[:, :n1], ev[:, :n1], ctx.q)
    s2, s2_left, dh2 = _group_curves(pos[:, n1:], ev[:, n1:], ctx.q)

    mass2 = s2_left - s2
    mass1 = s1_left - s1
    p = np.clip(np.sum(0.5 * (s1 + s1_left) * mass2, axis=1), 0.0, 1.0)

    leftover = s2[:, -1:] * s1[:, -1:]
    sigma2 = (n1 * n2 / n) * (_sigma2_jk(s1, s1_left, dh1, mass2)
                              + _sigma2_jk(s2, s2_left, dh2, mass1, leftover))
    has_events = ev[:, :n1].any(axis=1) & ev[:, n1:].any(axis=1)
    valid = (sigma2 > 0.0) & has_events
    rate = np.sqrt(n1 * n2 / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        stats = rate * (p - 0.5) / np.sqrt(sigma2)
    stats = np.where(valid, stats, np.nan)
    return stats, valid


def _apply_policy(time: float, event: bool, k: float, policy: str) -> tuple[float, bool]:
    if time > k:
        return k, policy == "event"
    return time, event


def reference_ingest_csv(path, k: float, time_col: str = "time", status_col: str = "delta",
                         group_col: str = "type", event_value: str = "1",
                         censored_value: str = "0", beyond_horizon: str = "censor",
                         ) -> tuple[Sample, Sample]:
    """``survcmp.datasets.ingest_csv`` as a row-by-row ``csv.DictReader`` loop."""
    if beyond_horizon not in HORIZON_POLICIES:
        raise ValueError(f"beyond_horizon must be one of {HORIZON_POLICIES}")
    k = float(k)
    if not np.isfinite(k) or k <= 0:
        raise ValueError("invalid horizon")

    by_group: dict[str, list[tuple[float, bool]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in (time_col, status_col, group_col):
            if col not in header:
                raise ValueError(f"missing column {col!r}")
        for row_no, row in enumerate(reader, start=2):
            raw_time = (row[time_col] or "").strip()
            try:
                time = float(raw_time)
            except ValueError:
                raise ValueError(f"row {row_no}: non-numeric time {raw_time!r}") from None
            if not np.isfinite(time) or time <= 0:
                raise ValueError(f"row {row_no}: time must be positive, got {raw_time!r}")
            status = (row[status_col] or "").strip()
            if status == event_value:
                event = True
            elif status == censored_value:
                event = False
            else:
                raise ValueError(f"row {row_no}: invalid status code {status!r}")
            group = (row[group_col] or "").strip()
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


def reference_counting_processes(sample: Sample) -> CountingProcesses:
    """``survcmp.survival.counting_processes`` with ``np.unique`` finding
    the distinct times and their first positions."""
    order = np.argsort(sample.times, kind="stable")
    t = sample.times[order]
    e = sample.events[order]
    distinct, start = np.unique(t, return_index=True)
    y_all = sample.n - start
    dn_all = np.add.reduceat(e.astype(np.int64), start)
    has_event = dn_all > 0
    return CountingProcesses(event_times=distinct[has_event], dn=dn_all[has_event],
                             y=y_all[has_event])


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
    k = horizon(setup)
    level_id = 1 if level == "strong" else 2

    def solve(group):
        gen = _rng.stream(0, _CAL_TAG, setup, level_id, group)
        times = draw_survival(setup, group, gen, draws)
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
