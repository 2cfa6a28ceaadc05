"""Walk through the bundled tongue-cancer comparison end to end."""

import numpy as np

from survcmp import analyze, load_tongue, mann_whitney_effect

# 80 patients, split by tumor DNA profile, followed up to week 200
s1, s2 = load_tongue()
print(f"aneuploid n={s1.n}  diploid n={s2.n}  window [0, {s1.k:g}] weeks")
print(f"events: {int(s1.events.sum())} vs {int(s2.events.sum())}")

eff = mann_whitney_effect(s1, s2)
print(f"\nP(aneuploid outlives diploid, ties half) = {eff.p_hat:.4f}")
print(f"win ratio = {eff.w_hat:.4f}")
print(f"sigma_hat = {np.sqrt(eff.sigma2):.4f}")

# three routes to a 95% interval for the same quantity, from one call:
# asymptotic, bootstrap and permutation, in that order
results = analyze(s1, s2, b=9999, seed=1)
print("\n95% two-sided intervals for p")
for res in results:
    line = f"  {res.method:<12} [{res.ci[0]:.4f}, {res.ci[1]:.4f}]  p-value {res.p_value:.4f}"
    if res.replicates is not None:
        line += f"  (B={res.b}, dropped {res.dropped})"
    print(line)

# the one-sided question: is survival longer in the aneuploid group?
[one] = analyze(s1, s2, methods=("asymptotic",), alternative="greater")
print(f"\none-sided test of p > 1/2: statistic {one.statistic:.4f}, "
      f"p-value {one.p_value:.4f}, reject at 5%: {one.reject}")

# same estimate on the win-ratio scale: the image of p's asymptotic interval
w = results[0].ci_w
print(f"win ratio interval [{w[0]:.4f}, {w[1]:.4f}]")

# patients alive past week 200: censor there, or count reaching the
# window end as the event of interest
for policy in ("censor", "event"):
    a, b = load_tongue(beyond_horizon=policy)
    print(f"policy {policy:<6} -> p_hat {mann_whitney_effect(a, b).p_hat:.4f}")
