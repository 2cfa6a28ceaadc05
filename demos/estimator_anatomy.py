"""Every intermediate of the estimator on a dataset small enough to check
by hand."""

import numpy as np

from survcmp import Sample, mann_whitney_effect
from survcmp.survival import km_curve

K = 10.0
s1 = Sample(np.array([2.0, 4.0, 4.0, 7.0]), np.array([True, True, False, False]), K)
s2 = Sample(np.array([3.0, 5.0, 6.0]), np.array([True, True, False]), K)

t1, surv1 = km_curve(s1)
t2, surv2 = km_curve(s2)


def at(times, surv, t, side="right"):
    # S(t) for side "right", the left limit S(t-) for side "left"
    return np.concatenate(([1.0], surv))[np.searchsorted(times, t, side=side)]


def mid(times, surv, t):
    # the tie-handling curve averages the curve with its left limits
    return 0.5 * (at(times, surv, t) + at(times, surv, t, "left"))


print("survival curves (right continuous step functions)")
for t in (2.0, 3.0, 4.0, 5.0, 6.0, 7.0):
    print(f"  S1({t:.0f}) = {at(t1, surv1, t):.4f}   S2({t:.0f}) = {at(t2, surv2, t):.4f}")

print("\nnormalized curve at its own jumps")
for t in t1:
    print(f"  S1+-({t:.0f}) = {mid(t1, surv1, t):.4f} "
          f"= ({at(t1, surv1, t):.4f} + {at(t1, surv1, t, 'left'):.4f}) / 2")

eff = mann_whitney_effect(s1, s2)
print(f"\np_hat = {eff.p_hat:.6f}  (integral of S1+- against the drops of S2)")


def below_k(f, g):
    # int_[0, K) f dg: f at g's jumps strictly below K times the jump sizes,
    # each curve given as (event times, S)
    g_times, g_surv = g
    keep = g_times < K
    jumps = np.diff(np.concatenate(([1.0], g_surv)))
    return float(np.sum(at(*f, g_times[keep]) * jumps[keep]))


# the by-parts companion 1/2 - int_[0,K) S1 dS2 / 2 + int_[0,K) S2 dS1 / 2
curve1, curve2 = (t1, surv1), (t2, surv2)
by_parts = 0.5 - 0.5 * below_k(curve1, curve2) + 0.5 * below_k(curve2, curve1)
print(f"by-parts form = {by_parts:.6f}")
# the product rule on [0, K): half the mass product just before K, plus
# S1+-(K) times group 2's jump at K (none here)
left = at(t1, surv1, K, "left") * at(t2, surv2, K, "left")
jump2 = at(t2, surv2, K) - at(t2, surv2, K, "left")
print(f"difference = S1(K-) S2(K-) / 2 + S1+-(K) dS2(K) "
      f"= {left / 2 + mid(t1, surv1, K) * jump2:.6f}")

print(f"\nvariance pieces: sigma2_12 = {eff.sigma2_12:.6f}  "
      f"sigma2_21 = {eff.sigma2_21:.6f}")
print(f"combined sigma2 = (n1 n2 / n)(sum) = {eff.sigma2:.6f}")
