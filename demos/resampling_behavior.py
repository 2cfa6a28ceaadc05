"""What the replicate distributions look like and why the seed contract
matters."""

import io

import numpy as np

from survcmp import ReplicateSet, analyze, load_tongue

s1, s2 = load_tongue()
# the one-sided results carry their replicate sets and upper critical values
results = analyze(s1, s2, methods=("bootstrap", "permutation"), alternative="greater",
                  b=9999, seed=1)
t_obs = results[0].statistic
print(f"observed statistic T = {t_obs:.4f}")

for res in results:
    r = res.replicates
    stats = r.statistics
    print(f"\n{res.method}: {r.b_eff} retained, {r.dropped} dropped")
    print(f"  mean {stats.mean():+.4f}  sd {stats.std(ddof=1):.4f}")
    print("  quantiles 2.5/50/97.5%:",
          np.round(np.percentile(stats, [2.5, 50, 97.5]), 4))
    print(f"  upper 5% critical value c = {res.critical:.4f}"
          "   (normal reference 1.6449)")
    exceed = int((stats >= t_obs).sum())
    print(f"  one-sided p-value = (1 + {exceed}) / {r.b_eff + 1} "
          f"= {(1 + exceed) / (r.b_eff + 1):.4f}")

# worker counts schedule the same replicate blocks, so results never move;
# B = 40,000 is large enough on these 80 patients that workers=4 starts
# worker processes (a small set runs inline whatever workers says)
a, b = (analyze(s1, s2, methods=("permutation",), b=40_000, seed=7,
                workers=workers)[0].replicates.statistics for workers in (1, 4))
print(f"\nworkers 1 vs 4 identical: {np.array_equal(a, b)}")

# a replicate set exports as one plain number per line
buf = io.StringIO()
ReplicateSet(a[:5].copy(), 0).export(buf)
print("export preview:")
print(buf.getvalue())
