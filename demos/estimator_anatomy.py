"""Every intermediate of the estimator on a dataset small enough to check
by hand."""

import numpy as np

from survcmp import (
    Sample,
    counting_processes,
    kaplan_meier,
    mann_whitney_effect,
    nelson_aalen,
)

K = 10.0
s1 = Sample(np.array([2.0, 4.0, 4.0, 7.0]), np.array([True, True, False, False]), K)
s2 = Sample(np.array([3.0, 5.0, 6.0]), np.array([True, True, False]), K)

cp = counting_processes(s1)
print("group 1 counting processes")
print("  event times", cp.event_times)
print("  events dn  ", cp.dn)
print("  at risk y  ", cp.y)

fit1 = kaplan_meier(s1)
fit2 = kaplan_meier(s2)
print("\nsurvival curves (right continuous step functions)")
for t in (2.0, 3.0, 4.0, 5.0, 6.0, 7.0):
    print(f"  S1({t:.0f}) = {fit1.survival(t):.4f}   S2({t:.0f}) = {fit2.survival(t):.4f}")

# the tie-handling curve averages the curve with its left limits
print("\nnormalized curve at its own jumps")
for t in fit1.survival.jump_times:
    print(f"  S1+-({t:.0f}) = {fit1.normalized(t):.4f} "
          f"= ({fit1.survival(t):.4f} + {fit1.survival.left_limit(t):.4f}) / 2")

haz = nelson_aalen(s1)
print("\ncumulative hazard at event times:",
      np.round(np.cumsum(haz.deltas) + haz.initial_value, 4))

eff = mann_whitney_effect(s1, s2)
print(f"\np_hat = {eff.p_hat:.6f}  (integral of S1+- against the drops of S2)")


def below_k(f, g):
    # int_[0, K) f dg: f at g's jumps strictly below K times the jump sizes
    keep = g.jump_times < K
    return float(np.sum(f(g.jump_times[keep]) * g.deltas[keep]))


# the by-parts companion 1/2 - int_[0,K) S1 dS2 / 2 + int_[0,K) S2 dS1 / 2
by_parts = (0.5 - 0.5 * below_k(fit1.survival, fit2.survival)
            + 0.5 * below_k(fit2.survival, fit1.survival))
print(f"by-parts form = {by_parts:.6f}")
left = fit1.survival.left_limit(K) * fit2.survival.left_limit(K)
print(f"difference = half the leftover mass product = {left / 2:.6f}")

print(f"\nvariance pieces: sigma2_12 = {eff.sigma2_12:.6f}  "
      f"sigma2_21 = {eff.sigma2_21:.6f}")
print(f"combined sigma2 = (n1 n2 / n)(sum) = {eff.sigma2:.6f}")
