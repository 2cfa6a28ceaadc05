"""Walk through the bundled tongue-cancer comparison end to end."""

import numpy as np

from survcmp import (
    ResamplingPlan,
    asymptotic_ci,
    load_tongue,
    mann_whitney_effect,
    resampling_ci,
)

# 80 patients, split by tumor DNA profile, followed up to week 200
s1, s2 = load_tongue()
print(f"aneuploid n={s1.n}  diploid n={s2.n}  window [0, {s1.k:g}] weeks")
print(f"events: {int(s1.events.sum())} vs {int(s2.events.sum())}")

eff = mann_whitney_effect(s1, s2)
print(f"\nP(aneuploid outlives diploid, ties half) = {eff.p_hat:.4f}")
print(f"win ratio = {eff.w_hat:.4f}")
print(f"sigma_hat = {np.sqrt(eff.sigma2):.4f}")

# three routes to a 95% interval for the same quantity
print("\n95% two-sided intervals for p")
res = asymptotic_ci(s1, s2)
print(f"  asymptotic   [{res.ci[0]:.4f}, {res.ci[1]:.4f}]  p-value {res.p_value:.4f}")
for scheme in ("bootstrap", "permutation"):
    res = resampling_ci(s1, s2, ResamplingPlan(scheme, 9999, 1))
    print(f"  {scheme:<12} [{res.ci[0]:.4f}, {res.ci[1]:.4f}]  p-value {res.p_value:.4f}"
          f"  (B={res.b}, dropped {res.dropped})")

# the one-sided question: is survival longer in the aneuploid group?
one = asymptotic_ci(s1, s2, alternative="greater")
print(f"\none-sided test of p > 1/2: statistic {one.statistic:.4f}, "
      f"p-value {one.p_value:.4f}, reject at 5%: {one.reject}")

# same estimate on the win-ratio scale
w = asymptotic_ci(s1, s2, target="w")
print(f"win ratio interval [{w.ci[0]:.4f}, {w.ci[1]:.4f}]")

# patients alive past week 200: censor there, or count reaching the
# window end as the event of interest
for policy in ("censor", "event"):
    a, b = load_tongue(beyond_horizon=policy)
    print(f"policy {policy:<6} -> p_hat {mann_whitney_effect(a, b).p_hat:.4f}")
