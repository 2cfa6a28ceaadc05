"""Acceptance gate: one test per shipped guarantee, each printing a
single PASS/FAIL line with the measured numbers before asserting."""

import json
import time

import numpy as np

from survcmp.cli import main as cli_main
from survcmp.datasets import load_tongue
from survcmp.inference import DegenerateError, analyze, mann_whitney_effect
from survcmp import resampling
from survcmp.rng import stream
from survcmp.simulate import (
    SETUPS,
    ScenarioConfig,
    coverage_study,
    truncation_proportions,
)
from survcmp.survival import Sample, truncate

from oracles import integration_by_parts_value, uncensored_pairwise_oracle


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_01_point_estimate():
    t0 = time.perf_counter()
    s1, s2 = load_tongue()
    p_hat = mann_whitney_effect(s1, s2).p_hat
    elapsed = time.perf_counter() - t0
    again = mann_whitney_effect(*load_tongue()).p_hat
    ok = abs(p_hat - 0.6148) <= 0.0005 and p_hat == again and elapsed < 1.0
    _report(1, ok, f"p_hat {p_hat:.6f} (want 0.6148+-0.0005), {elapsed * 1000:.0f} ms")


def test_criterion_02_asymptotic_interval():
    s1, s2 = load_tongue()
    [two] = analyze(s1, s2, methods=("asymptotic",))
    lower = analyze(s1, s2, methods=("asymptotic",), alternative="greater")[0].ci[0]
    d_lo = abs(two.ci[0] - 0.475)
    d_hi = abs(two.ci[1] - 0.755)
    d_one = abs(lower - 0.497)
    ok = d_lo <= 0.001 and d_hi <= 0.001 and d_one <= 0.001
    _report(2, ok,
            f"two-sided [{two.ci[0]:.4f}, {two.ci[1]:.4f}] vs [0.475, 0.755]+-0.001, "
            f"one-sided lower {lower:.4f} vs 0.497+-0.001")


def test_criterion_03_resampling_intervals():
    s1, s2 = load_tongue()
    t0 = time.perf_counter()
    boot, perm = (res.ci for res in analyze(s1, s2, methods=("bootstrap", "permutation"),
                                            b=9999, seed=1))
    elapsed = time.perf_counter() - t0
    ok = (abs(boot[0] - 0.457) <= 0.015 and abs(boot[1] - 0.772) <= 0.015
          and abs(perm[0] - 0.464) <= 0.015 and abs(perm[1] - 0.766) <= 0.015
          and elapsed < 60.0)
    _report(3, ok,
            f"bootstrap [{boot[0]:.4f}, {boot[1]:.4f}] vs [0.457, 0.772]+-0.015, "
            f"permutation [{perm[0]:.4f}, {perm[1]:.4f}] vs [0.464, 0.766]+-0.015, "
            f"{elapsed:.1f} s")


def test_criterion_04_uncensored_oracle():
    rng = np.random.default_rng(40)
    worst = 0.0
    pairs = 250
    for _ in range(pairs):
        n1, n2 = rng.integers(1, 13, 2)
        s1 = Sample(rng.integers(1, 6, n1).astype(float), np.ones(n1, bool), 10.0)
        s2 = Sample(rng.integers(1, 6, n2).astype(float), np.ones(n2, bool), 10.0)
        est = mann_whitney_effect(s1, s2).p_hat
        worst = max(worst, abs(est - uncensored_pairwise_oracle(s1, s2)))
    ok = worst <= 1e-12
    _report(4, ok, f"max |p_hat - mid-rank oracle| = {worst:.2e} over {pairs} pairs")


def test_criterion_05_integration_by_parts():
    rng = np.random.default_rng(50)
    worst = 0.0
    pairs = 250
    for _ in range(pairs):
        n1, n2 = rng.integers(2, 15, 2)
        t1 = np.round(rng.uniform(0.5, 8.5, n1), 2)
        e1 = rng.random(n1) < 0.6
        t2 = np.round(rng.uniform(0.5, 8.5, n2), 2)
        e2 = rng.random(n2) < 0.6
        # group-2 curve must spend its mass inside the window for the
        # boundary term to vanish: make its maximum an event below K
        top = np.argmax(t2)
        t2[top], e2[top] = 9.5, True
        s1, s2 = Sample(t1, e1, 10.0), Sample(t2, e2, 10.0)
        direct = mann_whitney_effect(s1, s2).p_hat
        worst = max(worst, abs(direct - integration_by_parts_value(s1, s2)))
    ok = worst <= 1e-10
    _report(5, ok, f"max |integral - by-parts form| = {worst:.2e} over {pairs} pairs")


def test_criterion_06_permutation_exactness():
    t0 = time.perf_counter()
    reject = valid = 0
    for rep in range(2000):
        gen = stream(600, 7, rep)
        latent = np.minimum(gen.geometric(0.3, 16), 5).astype(float)
        cens = gen.exponential(1.0 / 0.2, 16)
        t = np.minimum(latent, cens)
        ev = latent <= cens
        s1 = truncate((t[:8], ev[:8]), 5.0)
        s2 = truncate((t[8:], ev[8:]), 5.0)
        try:
            [res] = analyze(s1, s2, methods=("permutation",), alpha=0.05,
                            alternative="greater", b=999, seed=rep)
        except DegenerateError:
            continue
        valid += 1
        reject += res.reject
    rate = 100.0 * reject / valid
    elapsed = time.perf_counter() - t0
    ok = 3.7 <= rate <= 6.3 and elapsed < 300.0
    _report(6, ok, f"rejection rate {rate:.2f}% (want 3.7..6.3) on {valid} valid "
                   f"of 2000 reps, {elapsed:.0f} s")


def test_criterion_07_coverage_cells():
    t0 = time.perf_counter()
    cell_a = coverage_study(ScenarioConfig(setup=1, censoring="strong", n1=10, n2=10,
                                           reps=2000, b=999, seed=42))
    cell_b = coverage_study(ScenarioConfig(setup=3, censoring="none", n1=30, n2=30,
                                           reps=2000, b=999, seed=42))
    elapsed = time.perf_counter() - t0
    a_asym = abs(cell_a.cov_asymptotic - 90.63) <= 1.8
    a_perm = abs(cell_a.cov_permutation - 94.95) <= 1.5
    b_asym = abs(cell_b.cov_asymptotic - 94.95) <= 1.5
    b_boot = abs(cell_b.cov_bootstrap - 94.05) <= 1.5
    b_perm = abs(cell_b.cov_permutation - 94.64) <= 1.5
    ok = a_asym and a_perm and b_asym and b_boot and b_perm and elapsed < 1200.0
    _report(7, ok,
            f"cellA asym {cell_a.cov_asymptotic:.2f} vs 90.63+-1.8 "
            f"[{'ok' if a_asym else 'off'}], "
            f"cellA perm {cell_a.cov_permutation:.2f} vs 94.95+-1.5 "
            f"[{'ok' if a_perm else 'off'}]; "
            f"cellB {cell_b.cov_asymptotic:.2f}/{cell_b.cov_bootstrap:.2f}/"
            f"{cell_b.cov_permutation:.2f} vs 94.95/94.05/94.64+-1.5 "
            f"[{'ok' if (b_asym and b_boot and b_perm) else 'off'}]; "
            f"{elapsed:.0f} s")


def test_criterion_08_beyond_window_proportions():
    p1, p2 = truncation_proportions(2, "strong")
    ok = abs(p1 - 12.16) <= 1.0 and abs(p2 - 10.44) <= 1.0
    _report(8, ok, f"recorded beyond-window {p1:.2f}/{p2:.2f}% "
                   f"vs 12.16/10.44 +-1.0")


def test_criterion_09_variance_consistency():
    sig2, vn = [], []
    for rep in range(5000):
        gen = stream(900, 7, rep)
        t1 = SETUPS[3][0].draw(gen, 200)
        t2 = SETUPS[3][1].draw(gen, 200)
        s1 = truncate((t1, np.ones(200, bool)), 2.0)
        s2 = truncate((t2, np.ones(200, bool)), 2.0)
        sig2.append(mann_whitney_effect(s1, s2).sigma2)
        p = mann_whitney_effect(s1, s2).p_hat
        vn.append(np.sqrt(100.0) * (p - 0.5))
    ratio = float(np.median(sig2)) / float(np.var(vn, ddof=1))
    ok = 0.85 <= ratio <= 1.15
    _report(9, ok, f"median sigma2 / empirical var = {ratio:.3f} (want 0.85..1.15)")


def test_criterion_11_censored_variance_consistency():
    # criterion 09 on censored data: Exp(1) against Exp(mean 1.3), window
    # k = 1, Uniform(0, 3) censoring, times past k censored at k, so group
    # 1's curve keeps mass S1(k) ~ 0.37 at the window end
    sig2, vn = [], []
    for rep in range(2000):
        gen = stream(910, 7, rep)
        groups = []
        for scale in (1.0, 1.3):
            latent = gen.exponential(scale, 200)
            cens = np.minimum(gen.uniform(0.0, 3.0, 200), 1.0)
            groups.append(Sample(np.minimum(latent, cens), latent <= cens, 1.0))
        s1, s2 = groups
        sig2.append(mann_whitney_effect(s1, s2).sigma2)
        p = mann_whitney_effect(s1, s2).p_hat
        vn.append(np.sqrt(100.0) * (p - 0.5))
    ratio = float(np.median(sig2)) / float(np.var(vn, ddof=1))
    ok = 0.85 <= ratio <= 1.15
    _report(11, ok, f"censored: median sigma2 / empirical var = {ratio:.3f} "
                    f"(want 0.85..1.15)")


def test_criterion_10_worker_determinism(capsys, monkeypatch):
    monkeypatch.setattr(resampling, "POOL_CELLS", 0)  # workers fork even for small sets
    argv = ["analyze", "--json", "--b", "600", "--seed", "3"]
    assert cli_main(argv + ["--workers", "1"]) == 0
    out1 = capsys.readouterr().out
    assert cli_main(argv + ["--workers", "4"]) == 0
    out4 = capsys.readouterr().out
    json.loads(out1)
    ok = out1 == out4
    _report(10, ok, f"JSON identical across workers 1 vs 4 ({len(out1)} bytes)")
