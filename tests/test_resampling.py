"""Pooled bootstrap and permutation inference: quantile rule, determinism,
distributional checks, frozen data values."""

import concurrent.futures
import io

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from survcmp import _engine, survival
from survcmp._engine import batch_context, replicate_statistics
from survcmp.datasets import load_tongue
from survcmp.inference import (DegenerateError, ReplicateSet, _replicate_test, analyze,
                               mann_whitney_effect)
from survcmp.rng import stream
from survcmp.simulate import SETUPS
from survcmp.survival import Sample, pool, truncate

from oracles import bootstrap_replicate, permutation_replicate, split

K = 10.0


def _random_censored(rng, n, k=K, force_max_event=False):
    times = np.round(rng.uniform(0.5, k - 0.5, n), 2)
    events = rng.random(n) < 0.7
    events[0] = True
    if force_max_event:
        events[np.argmax(times)] = True
    return Sample(times, events, k)


class TestPool:
    def test_sizes_and_round_trip(self):
        rng = np.random.default_rng(1)
        s1 = _random_censored(rng, 5)
        s2 = _random_censored(rng, 3)
        z = pool(s1, s2)
        assert (z.n1, z.n2, z.n) == (5, 3, 8)
        r1, r2 = split(z)
        assert_array_equal(r1.times, s1.times)
        assert_array_equal(r1.events, s1.events)
        assert_array_equal(r2.times, s2.times)
        assert_array_equal(r2.events, s2.events)

    def test_mismatched_horizons_rejected(self):
        s1 = Sample([1.0], [True], 5.0)
        s2 = Sample([1.0], [True], 6.0)
        with pytest.raises(ValueError, match="incompatible horizons"):
            pool(s1, s2)

    def test_size_field_consistency_enforced(self):
        for times, n1, n2 in ((np.array([1.0, 2.0]), 2, 1), (np.arange(1, 9.0), 5, 5)):
            with pytest.raises(ValueError, match="pooled size must be n1 [+] n2"):
                batch_context(times, np.ones(times.size, bool), n1, n2, K)

    def test_centering_identity(self):
        # pooled curve against itself integrates to 1/2 once the largest
        # pooled observation is an event
        rng = np.random.default_rng(2)
        for _ in range(50):
            s1 = _random_censored(rng, int(rng.integers(2, 12)))
            s2 = _random_censored(rng, int(rng.integers(2, 12)), force_max_event=True)
            z = pool(s1, s2)
            if not z.events[np.argmax(z.times)]:
                continue
            pooled = Sample(z.times.copy(), z.events.copy(), z.k)
            assert_allclose(mann_whitney_effect(pooled, pooled).p_hat, 0.5, atol=1e-12)


def _quantile(r: ReplicateSet, alpha: float) -> float:
    # the conservative upper-alpha quantile that calibrates a test
    return _replicate_test(r.statistics, 0.0, alpha)[0]


def _kept(stats: np.ndarray) -> ReplicateSet:
    # what analyze keeps of an engine set: the valid replicates, the rest dropped
    return ReplicateSet(stats[~np.isnan(stats)], int(np.isnan(stats).sum()))


class TestReplicateQuantile:
    def test_small_set_takes_maximum(self):
        r = ReplicateSet(np.arange(1.0, 20.0), 0)
        assert _quantile(r, 0.05) == 19.0

    def test_symmetric_three_values(self):
        r = ReplicateSet(np.array([-1.0, 0.0, 1.0]), 0)
        assert _quantile(r, 0.5) == 0.0

    def test_rank_9500_of_9999(self):
        rng = np.random.default_rng(3)
        values = rng.permutation(np.arange(1.0, 10000.0))
        r = ReplicateSet(values, 0)
        assert _quantile(r, 0.05) == 9500.0

    def test_capped_at_largest(self):
        r = ReplicateSet(np.array([0.0, 1.0, 2.0]), 0)
        assert _quantile(r, 1e-9) == 2.0
        # rank ceil((1 - alpha) (b_eff + 1)) = 4 is past b_eff = 3: capped;
        # all three replicates reach the observed 0, so p = (1 + 3) / 4
        assert _replicate_test(r.statistics, 0.0, 1e-9) == (2.0, 1.0, 4)

    def test_empty_set_rejected(self):
        r = ReplicateSet(np.array([]), 7)
        with pytest.raises(DegenerateError, match="no valid replicates"):
            _quantile(r, 0.05)


class TestReplicateSets:
    def test_worker_count_never_changes_results(self, monkeypatch):
        monkeypatch.setattr(_engine, "POOL_CELLS", 0)  # workers fork even for small sets
        rng = np.random.default_rng(4)
        s1 = _random_censored(rng, 15)
        s2 = _random_censored(rng, 12)
        z = pool(s1, s2)
        for scheme in ("bootstrap", "permutation"):
            base = replicate_statistics(z, scheme, 600, 42, workers=1)
            for workers in (2, 4):
                other = replicate_statistics(z, scheme, 600, 42, workers=workers)
                assert base.tobytes() == other.tobytes()  # NaN marks a dropped replicate

    def test_small_set_starts_no_process(self, monkeypatch):
        # the bundled data at the default B: 1999 x (80 + 2) cells, far
        # below the size from which worker processes pay
        z = pool(*load_tongue())
        assert 1999 * (z.n + 2) < _engine.POOL_CELLS
        want = replicate_statistics(z, "permutation", 1999, 8, workers=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        got = replicate_statistics(z, "permutation", 1999, 8, workers=2)
        assert got.tobytes() == want.tobytes()
        monkeypatch.setattr(_engine, "POOL_CELLS", 0)  # the same set pools
        with pytest.raises(AssertionError, match="worker process"):
            replicate_statistics(z, "permutation", 1999, 8, workers=2)

    def test_large_set_starts_processes_through_analyze(self, monkeypatch):
        # the bundled data at B = 40,000: 40,000 x (80 + 2) cells pass the
        # real threshold, so two workers start a process pool
        s1, s2 = load_tongue()
        assert 40_000 * (s1.n + s2.n + 2) >= _engine.POOL_CELLS

        class Started(Exception):
            pass

        def no_pool(*args, **kwargs):
            raise Started

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(Started):
            analyze(s1, s2, methods=("permutation",), b=40_000, seed=8, workers=2)

    def test_replicates_deterministic_in_seed(self):
        rng = np.random.default_rng(5)
        z = pool(_random_censored(rng, 8), _random_censored(rng, 8))
        a = replicate_statistics(z, "bootstrap", 300, 9)
        b = replicate_statistics(z, "bootstrap", 300, 9)
        assert_array_equal(a, b)
        c = replicate_statistics(z, "bootstrap", 300, 10)
        assert not np.array_equal(a, c)

    def test_label_free_canonical_pool(self):
        # permutation replicates depend on the pooled multiset only; after
        # canonical sorting the group order cannot matter when n1 = n2
        rng = np.random.default_rng(6)
        s1 = _random_censored(rng, 10)
        s2 = _random_censored(rng, 10)

        def canonical(za):
            order = np.lexsort((za.events, za.times))
            return batch_context(za.times[order], za.events[order], za.n1, za.n2, za.k)

        a = replicate_statistics(canonical(pool(s1, s2)), "permutation", 400, 13)
        b = replicate_statistics(canonical(pool(s2, s1)), "permutation", 400, 13)
        assert_array_equal(a, b)

    def test_one_context_per_pool_same_bytes_as_fresh_pools(self, monkeypatch):
        rng = np.random.default_rng(23)
        s1, s2 = _random_censored(rng, 12), _random_censored(rng, 9)
        schemes = ("bootstrap", "permutation")
        fresh = [replicate_statistics(pool(s1, s2), scheme, 600, 5) for scheme in schemes]
        built = []
        original = survival.batch_context
        monkeypatch.setattr(survival, "batch_context",
                            lambda *args: built.append(1) or original(*args))
        z = pool(s1, s2)
        shared = [replicate_statistics(z, scheme, 600, 5) for scheme in schemes]
        assert len(built) == 1
        for got, want in zip(shared, fresh):
            assert got.tobytes() == want.tobytes()

    def test_all_censored_pool_drops_everything(self):
        times = np.linspace(1.0, 4.0, 8)
        z = batch_context(times, np.zeros(8, bool), 4, 4, K)
        r = _kept(replicate_statistics(z, "permutation", 50, 0))
        assert r.b_eff == 0
        assert r.dropped == 50
        with pytest.raises(DegenerateError, match="no valid replicates"):
            _quantile(r, 0.05)

    def test_single_replicate_helpers_finite(self):
        rng = np.random.default_rng(7)
        z = pool(_random_censored(rng, 12), _random_censored(rng, 12))
        bv = bootstrap_replicate(z, stream(1, 1, 0))
        pv = permutation_replicate(z, stream(1, 2, 0))
        assert np.isfinite(bv) and np.isfinite(pv)
        assert bootstrap_replicate(z, stream(1, 1, 0)) == bv

    def test_dropped_fraction_small_at_n10(self):
        # heavy-censoring scenario at the smallest supported group size
        gen = stream(99, 8, 0)
        lat1 = SETUPS[1][0].draw(gen, 10)
        lat2 = SETUPS[1][1].draw(gen, 10)
        cens = gen.exponential(1.0 / 1.4646785916807836, 20)
        t = np.minimum(np.concatenate([lat1, lat2]), cens)
        ev = np.concatenate([lat1, lat2]) <= cens
        s1 = truncate((t[:10], ev[:10]), 1.6024)
        s2 = truncate((t[10:], ev[10:]), 1.6024)
        z = pool(s1, s2)
        for scheme in ("bootstrap", "permutation"):
            r = _kept(replicate_statistics(z, scheme, 2000, 3))
            assert r.dropped / 2000 < 0.05

    def test_export_one_value_per_line(self):
        r = ReplicateSet(np.array([0.5, -1.25, 3.0]), 1)
        buf = io.StringIO()
        r.export(buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3
        assert [float(x) for x in lines] == [0.5, -1.25, 3.0]


class TestDistribution:
    def test_bootstrap_upper_quantile_near_normal(self):
        # same continuous law in both groups, large n: the conditional
        # 97.5% point of the replicate law sits near 1.96
        gen = stream(55, 8, 1)
        t1 = SETUPS[3][0].draw(gen, 100)
        t2 = SETUPS[3][1].draw(gen, 100)
        s1 = truncate((t1, np.ones(100, bool)), 2.0)
        s2 = truncate((t2, np.ones(100, bool)), 2.0)
        r = _kept(replicate_statistics(pool(s1, s2), "bootstrap", 10_000, 17))
        q = _quantile(r, 0.025)
        assert abs(q - 1.96) <= 0.15

    def test_minimum_p_value_when_observed_tops_replicates(self):
        s1 = Sample(np.arange(8.0, 18.0), np.ones(10, bool), 30.0)
        s2 = Sample(np.arange(1.0, 11.0), np.ones(10, bool), 30.0)
        [res] = analyze(s1, s2, methods=("permutation",), alternative="greater", b=99,
                        seed=0)
        r = res.replicates
        assert r.statistics.tobytes() == _kept(replicate_statistics(
            pool(s1, s2), "permutation", 99, 0)).statistics.tobytes()
        assert res.statistic > float(r.statistics.max())
        assert res.p_value == 1.0 / (r.b_eff + 1)

    def test_decisions_track_asymptotic_at_large_n(self):
        agree_boot = agree_perm = runs = 500
        boot_hits = perm_hits = 0
        for rep in range(runs):
            gen = stream(77, 9, rep)
            t1 = SETUPS[3][0].draw(gen, 200)
            t2 = SETUPS[3][1].draw(gen, 200)
            s1 = truncate((t1, np.ones(200, bool)), 2.0)
            s2 = truncate((t2, np.ones(200, bool)), 2.0)
            asym, boot = analyze(s1, s2, methods=("asymptotic", "bootstrap"), b=499,
                                 seed=1000 + rep)
            [perm] = analyze(s1, s2, methods=("permutation",), b=499, seed=2000 + rep)
            boot_hits += asym.reject == boot.reject
            perm_hits += asym.reject == perm.reject
        assert boot_hits / runs >= 0.95
        assert perm_hits / runs >= 0.95


class TestFrozenTongue:
    def test_bootstrap_two_sided(self):
        s1, s2 = load_tongue()
        [res] = analyze(s1, s2, methods=("bootstrap",), b=9999, seed=1)
        assert_allclose(res.critical, 2.1503758550154273, atol=1e-12)
        assert_allclose(res.ci[0], 0.46303085793503324, atol=1e-12)
        assert_allclose(res.ci[1], 0.7666410907477235, atol=1e-12)
        assert_allclose(res.p_value, 0.1311, atol=1e-12)
        assert res.dropped == 0
        # published-scale check: within +-0.015 of [0.457, 0.772]
        assert abs(res.ci[0] - 0.457) <= 0.015
        assert abs(res.ci[1] - 0.772) <= 0.015

    def test_permutation_two_sided(self):
        s1, s2 = load_tongue()
        [res] = analyze(s1, s2, methods=("permutation",), b=9999, seed=1)
        assert_allclose(res.critical, 2.1248881906605797, atol=1e-12)
        assert_allclose(res.ci[0], 0.4648301516935124, atol=1e-12)
        assert_allclose(res.ci[1], 0.7648417969892444, atol=1e-12)
        assert_allclose(res.p_value, 0.124, atol=1e-12)
        assert abs(res.ci[0] - 0.464) <= 0.015
        assert abs(res.ci[1] - 0.766) <= 0.015

    def test_permutation_one_sided_lower_bound(self):
        s1, s2 = load_tongue()
        [res] = analyze(s1, s2, methods=("permutation",), alternative="greater", b=9999,
                        seed=1)
        assert_allclose(res.critical, 1.5789901774367752, atol=1e-12)
        assert_allclose(res.ci[0], 0.5033676525913904, atol=1e-12)
        assert res.ci[1] == 1.0
        assert_allclose(res.p_value, 0.046, atol=1e-12)
        assert abs(res.ci[0] - 0.506) <= 0.01
        assert res.reject


class TestPlanValidation:
    # the settings a replicate set is drawn with are checked by analyze
    # (tests/test_inference.py); what is left here is the set's record
    def test_b_eff_property(self):
        r = ReplicateSet(np.array([1.0, 2.0]), 3)
        assert r.b_eff == 2

    def test_freezes_a_copy(self):
        a = np.array([1.0, 2.0])
        r = ReplicateSet(a, 0)
        a[0] = 3.0  # the caller's array stays writable
        assert r.statistics.tolist() == [1.0, 2.0]
        assert not r.statistics.flags.writeable
