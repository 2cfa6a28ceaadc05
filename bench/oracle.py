"""Reference computations written from the definitions, apart from survcmp.

Nothing here imports the package under test.  The benchmark compares the
program's outputs with these values:

- the Kaplan-Meier curve as the product over event times of
  (1 - d(u) / y(u));
- the effect p = sum over group 2's jumps u of the mid-point curve of
  group 1, (S1(u) + S1(u-)) / 2, times group 2's mass S2(u-) - S2(u);
- the delta-method variance of p: the gradient of p in each curve's
  values at its jump times, against the Greenwood covariance
  Cov(S(s), S(t)) = S(s) S(t) G(min(s, t)), G(t) = sum_{u <= t} d / (y (y - d)).

The quadratic form is summed in O(m) as sum_k dG_k (sum_{i >= k} g_i S_i)^2,
which holds because min(t_i, t_l) >= t_k exactly when i, l >= k.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Curve:
    """Product-limit curve: values after each jump, and the Greenwood steps."""

    jumps: np.ndarray  # strictly increasing event times
    surv: np.ndarray   # S at and after each jump
    dg: np.ndarray     # Greenwood increment d / (y (y - d)) at each jump, 0 where y == d

    def at(self, t, left=False):
        side = "left" if left else "right"
        idx = np.searchsorted(self.jumps, t, side=side)
        return np.concatenate(([1.0], self.surv))[idx]

    @property
    def at_k(self) -> float:
        """S(k): no recorded time lies past k, so the last value holds at k."""
        return float(self.surv[-1]) if self.surv.size else 1.0

    @property
    def mass(self) -> np.ndarray:
        return np.concatenate(([1.0], self.surv[:-1])) - self.surv


def product_limit(times, events, k) -> Curve:
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    if np.any(times > k):
        raise ValueError("times past the window end")
    ordered = np.sort(times)
    jumps = np.unique(times[events])
    d = np.array([np.count_nonzero(times[events] == u) for u in jumps], dtype=float)
    y = times.size - np.searchsorted(ordered, jumps, side="left").astype(float)
    surv = np.cumprod(1.0 - d / y)
    gap = y * (y - d)
    dg = np.divide(d, gap, out=np.zeros_like(d), where=gap > 0)
    return Curve(jumps, surv, dg)


def effect(c1: Curve, c2: Curve) -> float:
    mid = 0.5 * (c1.at(c2.jumps) + c1.at(c2.jumps, left=True))
    return float(np.sum(mid * c2.mass))


def _gradients(c1: Curve, c2: Curve, boundary: bool = True):
    # p = sum_j mid1(s_j) (b_{j-1} - b_j); a_i, b_j are the curves' values at their jumps
    mass2 = c2.mass
    g1 = np.zeros(c1.jumps.size)
    right = np.searchsorted(c1.jumps, c2.jumps, side="right") - 1  # S1(s_j) = a_right
    left = np.searchsorted(c1.jumps, c2.jumps, side="left") - 1    # S1(s_j-) = a_left
    np.add.at(g1, right[right >= 0], 0.5 * mass2[right >= 0])
    np.add.at(g1, left[left >= 0], 0.5 * mass2[left >= 0])
    mid1 = 0.5 * (c1.at(c2.jumps) + c1.at(c2.jumps, left=True))
    g2 = np.append(mid1[1:], 0.0) - mid1
    if not boundary and g2.size:
        # without the term -S1(k) d2(k) of the linearization in curve 2
        g2[-1] += c1.at_k
    return g1, g2


def _greenwood_form(curve: Curve, grad: np.ndarray) -> float:
    tail = np.cumsum((grad * curve.surv)[::-1])[::-1]
    return float(np.sum(curve.dg * tail**2))


def delta_variance(c1: Curve, c2: Curve, boundary: bool = True) -> float:
    """Delta-method variance of the effect estimate (not scaled by n)."""
    g1, g2 = _gradients(c1, c2, boundary)
    return _greenwood_form(c1, g1) + _greenwood_form(c2, g2)


def dense_delta_variance(c1: Curve, c2: Curve) -> float:
    """The same quadratic form with explicit m x m covariance matrices."""
    total = 0.0
    for curve, grad in zip((c1, c2), _gradients(c1, c2)):
        g_cum = np.cumsum(curve.dg)
        cov = np.outer(curve.surv, curve.surv) * g_cum[np.minimum.outer(
            np.arange(curve.jumps.size), np.arange(curve.jumps.size))]
        total += float(grad @ cov @ grad)
    return total


def read_two_groups(path, k, time_col="time", status_col="delta", group_col="type"):
    """Two groups from a CSV, times past k censored at k, labels in numeric order."""
    groups: dict[str, tuple[list, list]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            t = float(row[time_col])
            e = row[status_col].strip() == "1"
            if t > k:
                t, e = k, False
            times, events = groups.setdefault(row[group_col].strip(), ([], []))
            times.append(t)
            events.append(e)
    labels = sorted(groups, key=float)
    if len(labels) != 2:
        raise ValueError(f"{path}: expected two groups, found {len(labels)}")
    return [(np.array(groups[g][0]), np.array(groups[g][1])) for g in labels]


def self_test() -> list[str]:
    """Check the oracle on samples small enough to do by hand."""
    problems = []
    # the package README's 4-vs-3 example on [0, 10]:
    #   S1 = 3/4 after t=2, 1/2 after t=4;  S2 = 2/3 after t=3, 1/3 after t=5
    #   p12 = 3/4 * 1/3 + 1/2 * 1/3 = 5/12, p21 = 1 * 1/4 + 2/3 * 1/4 = 5/12,
    #   p12 + p21 = 5/6 = 1 - S1(k) S2(k)
    #   Greenwood steps 1/12, 1/6 (group 1) and 1/6, 1/2 (group 2);
    #   gradients g1 = (1/3, 1/3), g2 = (-1/4, -1/2) give
    #   Var = 25/1728 + 8/1728 + 32/1728 + 24/1728 = 89/1728
    c1 = product_limit([2.0, 4.0, 4.0, 7.0], [True, True, False, False], 10.0)
    c2 = product_limit([3.0, 5.0, 6.0], [True, True, False], 10.0)
    expect = {"p12": (effect(c1, c2), 5 / 12), "p21": (effect(c2, c1), 5 / 12),
              "S1(k)S2(k)": (c1.at_k * c2.at_k, 1 / 6),
              "variance": (delta_variance(c1, c2), 89 / 1728),
              "dense variance": (dense_delta_variance(c1, c2), 89 / 1728)}
    for name, (got, want) in expect.items():
        if abs(got - want) > 1e-15:
            problems.append(f"oracle self-test: {name} {got!r} != {want!r}")
    # uncensored ties: the effect is the mid-rank pair count, 4 wins of 12 pairs
    t1, t2 = np.array([1.0, 2.0, 2.0, 3.0]), np.array([2.0, 2.0, 4.0])
    pairs = ((t1[:, None] > t2).sum() + 0.5 * (t1[:, None] == t2).sum()) / t1.size / t2.size
    got = effect(product_limit(t1, np.ones(4, bool), 10.0),
                 product_limit(t2, np.ones(3, bool), 10.0))
    if abs(got - pairs) > 1e-15 or abs(pairs - 1 / 3) > 1e-15:
        problems.append(f"oracle self-test: tied effect {got!r}, pair count {pairs!r}, want 1/3")
    return problems
