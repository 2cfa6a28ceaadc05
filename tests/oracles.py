"""Slow but exact reference forms, kept for the tests only.

The mid-rank pairwise count gives the effect on uncensored data from all
n1 x n2 pairs.  The plug-in variance in ``survcmp.variance`` is a
reassociated single sum over one group's event times; the forms here
evaluate the same quantity the direct way: a covariance kernel per group,
its four-limit average at any pair of points, and the O(m^2) quadratic
form of that kernel against the other group's jump masses.  They share no
code with the package's tail sums, which is what makes them useful as
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from survcmp.survival import KaplanMeierFit, Sample, kaplan_meier


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
