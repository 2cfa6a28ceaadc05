"""Batched statistic evaluation: rows against re-formed samples, the
observed statistic as the identity row, the pool's event grid and the
reference engine."""

import hashlib
import multiprocessing
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from survcmp._engine import (
    SLAB,
    batch_context,
    batch_statistics,
    bootstrap_indices,
    chunk_blocks,
    identity_row,
    permutation_indices,
    studentize,
)
from survcmp import _engine
from survcmp.datasets import load_tongue
from survcmp.inference import mann_whitney_effect, studentized_p
from survcmp import resampling
from survcmp.resampling import ResamplingPlan, replicate_set
from survcmp.rng import BLOCK, SCHEME_IDS, blocks, stream
from survcmp.survival import Sample, pool, truncate

from oracles import (assert_same_context, cov_kernel, kaplan_meier, reference_batch_context,
                     reference_batch_statistics, sigma2_jk, split, uncensored_pairwise_oracle)

K = 10.0


def _studentized(z, idx, **kwargs):
    # rows studentized at p0 = 1/2, as the replicate sets do
    rows = batch_statistics(z, idx, **kwargs)
    return studentize(rows.p, rows.sigma2, rows.valid, z.n1, z.n2, 0.5), rows.valid


def _pooled(rng, n1, n2):
    times = np.round(rng.uniform(0.5, 9.5, n1 + n2), 2)
    events = rng.random(n1 + n2) < 0.7
    events[0] = True
    s1 = Sample(times[:n1], events[:n1], K)
    s2 = Sample(times[n1:], events[n1:], K)
    return pool(s1, s2)


def _wide(n1, n2, seed):
    # uncensored, no ties: the event grid is n1 + n2 + 2 columns wide
    times = (np.random.default_rng(seed).permutation(n1 + n2) + 1) * (K / (n1 + n2 + 1))
    events = np.ones(n1 + n2, bool)
    return pool(Sample(times[:n1], events[:n1], K), Sample(times[n1:], events[n1:], K))


def _reference_set(z, scheme, b, seed):
    # each block's stream through the full-grid reference engine
    draw = bootstrap_indices if scheme == "bootstrap" else permutation_indices
    parts = [reference_batch_statistics(
                 z, draw(stream(seed, SCHEME_IDS[scheme], index), size, z.n1 + z.n2))
             for index, size in blocks(b)]
    p, _, _, sigma2, valid = (np.concatenate(c) for c in zip(*parts))
    return studentize(p, sigma2, valid, z.n1, z.n2, 0.5)[valid], int((~valid).sum())


def _assert_same_rows(got, want):
    # every component, also the signs of zeros
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def _row_statistic(z, row):
    s1 = Sample(z.times[row[: z.n1]], z.events[row[: z.n1]], z.k)
    s2 = Sample(z.times[row[z.n1 :]], z.events[row[z.n1 :]], z.k)
    try:
        return studentized_p(s1, s2), True
    except ValueError:
        return np.nan, False


class TestAgreement:
    def _check_matrix(self, z, idx):
        stats, valid = _studentized(z, idx)
        for r, row in enumerate(idx):
            expected, ok = _row_statistic(z, row)
            assert valid[r] == ok
            if ok:
                assert abs(stats[r] - expected) <= 1e-12
            else:
                assert np.isnan(stats[r])

    def test_bootstrap_rows_match_module(self):
        rng = np.random.default_rng(9001)
        for _ in range(4):
            z = _pooled(rng, int(rng.integers(4, 12)), int(rng.integers(4, 12)))
            n = z.n1 + z.n2
            idx = bootstrap_indices(stream(5, 1, 0), 40, n)
            self._check_matrix(z, idx)

    def test_permutation_rows_match_module(self):
        rng = np.random.default_rng(9002)
        for _ in range(4):
            z = _pooled(rng, int(rng.integers(4, 12)), int(rng.integers(4, 12)))
            n = z.n1 + z.n2
            idx = permutation_indices(stream(6, 2, 0), 40, n)
            self._check_matrix(z, idx)

    def test_leftover_mass_rows_match_module(self):
        # the largest pooled time is censored, so rows whose group 1 draws
        # it keep mass at the window end and exercise the boundary term
        rng = np.random.default_rng(9005)
        for _ in range(4):
            z = _pooled(rng, int(rng.integers(4, 12)), int(rng.integers(4, 12)))
            top = np.argmax(z.times)
            times, events = z.times.copy(), z.events.copy()
            events[top] = False
            z = pool(Sample(times[:z.n1], events[:z.n1], K),
                     Sample(times[z.n1:], events[z.n1:], K))
            idx = bootstrap_indices(stream(7, 1, 0), 40, z.n1 + z.n2)
            assert (idx[:, : z.n1] == top).any(axis=1).sum() >= 5
            self._check_matrix(z, idx)

    def test_group_without_events_flagged_invalid(self):
        # group 1 all censored, group 2 keeps mass at k: the boundary term
        # makes the variance positive, yet the row must still be dropped
        times = np.array([1.0, 2.0, 1.5, 2.5, 3.0])
        events = np.array([False, False, True, True, False])
        z = pool(Sample(times[:2], events[:2], K), Sample(times[2:], events[2:], K))
        idx = np.arange(5, dtype=np.int64)[None, :]
        assert not batch_statistics(z, idx).valid[0]
        self._check_matrix(z, idx)

    def test_degenerate_row_flagged_invalid(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.array([True, False, True, True])
        z = pool(Sample(times[:2], events[:2], K), Sample(times[2:], events[2:], K))
        censored_slot = int(np.flatnonzero(~z.events)[0])
        idx = np.full((1, 4), censored_slot, dtype=np.int64)
        self._check_matrix(z, idx)


class TestStructure:
    def test_identity_row_reproduces_observed_statistic(self):
        rng = np.random.default_rng(9003)
        z = _pooled(rng, 9, 7)
        # second case: group 1's largest time censored, so S1(k) > 0
        times, events = z.times.copy(), z.events.copy()
        events[np.argmax(times[: z.n1])] = False
        leftover = pool(Sample(times[: z.n1], events[: z.n1], K),
                        Sample(times[z.n1 :], events[z.n1 :], K))
        for case in (z, leftover):
            idx = np.arange(case.n1 + case.n2, dtype=np.int64)[None, :]
            expected = studentized_p(*split(case))
            for permutation in (False, True):
                stats, valid = _studentized(case, idx, permutation=permutation)
                assert valid[0]
                assert stats[0].tobytes() == np.float64(expected).tobytes()

    def test_observed_statistic_is_identity_row_on_criterion_06_data(self):
        # criterion 06's datasets: ties, censoring, 8 per group; the observed
        # statistic must be the identity row's, bit for bit, so a test at
        # T == c is decided by the replicates and not by rounding
        valid = 0
        for rep in range(2000):
            gen = stream(600, 7, rep)
            latent = np.minimum(gen.geometric(0.3, 16), 5).astype(float)
            cens = gen.exponential(1.0 / 0.2, 16)
            t, ev = np.minimum(latent, cens), latent <= cens
            s1, s2 = truncate((t[:8], ev[:8]), 5.0), truncate((t[8:], ev[8:]), 5.0)
            stats, ok = _studentized(pool(s1, s2), np.arange(16, dtype=np.int64)[None, :])
            if not ok[0]:
                continue
            valid += 1
            assert np.float64(studentized_p(s1, s2)).tobytes() == stats[0].tobytes(), rep
        assert valid == 1989

    def test_context_equals_two_unique_form(self):
        # the sort-free event columns against np.unique + searchsorted, on a
        # 2 x 2000 pool with ties, the bundled data and a 15/15 pool
        rng = np.random.default_rng(9008)
        big = np.ceil(rng.exponential(1.2, 4000) * 1000) / 1000
        s1, s2 = load_tongue()
        tongue = pool(s1, s2)
        cases = [(big, rng.random(4000) < 0.8, 2000, 2000, big.max()),
                 (tongue.times, tongue.events, tongue.n1, tongue.n2, tongue.k),
                 (np.round(rng.uniform(0.1, 2.0, 30), 2), rng.random(30) < 0.6, 15, 15, 2.0)]
        for case in cases:
            assert_same_context(batch_context(*case), reference_batch_context(*case))

    @staticmethod
    def _large_n_pool(rng):
        # the benchmark's large-n input: 2 x 2000 exponential times and
        # censorings on a 0.001 grid, censored at K = 1.6
        groups = []
        for mean, rate in ((1.2, 0.2), (1.4, 0.35)):
            t = np.maximum(np.ceil(rng.exponential(mean, 2000) * 1000), 1) / 1000
            c = np.maximum(np.ceil(rng.exponential(1.0 / rate, 2000) * 1000), 1) / 1000
            x = np.minimum(t, c)
            groups.append((np.minimum(x, 1.6), (t <= c) & (x <= 1.6)))
        return (np.concatenate([g[0] for g in groups]),
                np.concatenate([g[1] for g in groups]), 2000, 2000)

    @pytest.mark.parametrize("case", [
        "one per group", "all times equal", "events in group 2 only", "all events", "large n"])
    def test_context_edge_cases_equal_reference(self, case):
        rng = np.random.default_rng(9020)
        times, events, n1, n2 = {
            "one per group": lambda: (np.array([2.0, 1.0]), np.array([True, False]), 1, 1),
            "all times equal": lambda: (np.full(12, 3.5), rng.random(12) < 0.5, 5, 7),
            "events in group 2 only": lambda: (
                np.round(rng.uniform(0.1, 2.0, 30), 1), np.arange(30) >= 18, 18, 12),
            "all events": lambda: (np.round(rng.uniform(0.1, 2.0, 40), 1), np.ones(40, bool),
                                   20, 20),
            "large n": lambda: self._large_n_pool(rng),
        }[case]()
        got = batch_context(times, events, n1, n2, K)
        assert_same_context(got, reference_batch_context(times, events, n1, n2, K))
        assert got.width == np.unique(times[events]).size + 2
        if case == "all times equal":
            assert got.width == 3 and (got.column == 1).all()

    def test_swap_antisymmetry_equal_groups(self):
        rng = np.random.default_rng(9004)
        n1 = n2 = 8
        times = np.round(rng.uniform(0.5, 9.5, n1 + n2), 2)
        events = np.ones(n1 + n2, bool)
        z = pool(Sample(times[:n1], events[:n1], K), Sample(times[n1:], events[n1:], K))
        ident = np.arange(n1 + n2, dtype=np.int64)
        swapped = np.concatenate([ident[n1:], ident[:n1]])
        stats, valid = _studentized(z, np.stack([ident, swapped]))
        assert valid.all()
        assert_allclose(stats[0], -stats[1], atol=1e-12)

    @pytest.mark.parametrize("scheme", ["bootstrap", "permutation"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_replicate_set_equals_reference_engine(self, scheme, workers, monkeypatch):
        # 600 replicates make two full blocks and a partial one, all in one
        # engine call on this narrow pool; two workers fork even for this
        # small a set
        monkeypatch.setattr(resampling, "POOL_CELLS", 0)
        z = _pooled(np.random.default_rng(9006), 12, 9)
        assert chunk_blocks(z) >= 3
        reps = replicate_set(z, ResamplingPlan(scheme=scheme, b=600, seed=17, workers=workers))
        want, dropped = _reference_set(z, scheme, 600, 17)
        assert_array_equal(reps.statistics, want)
        assert reps.dropped == dropped

    @pytest.mark.parametrize("scheme", ["bootstrap", "permutation"])
    def test_wide_pool_processes_over_chunks(self, scheme, monkeypatch):
        # 200/200 uncensored is 402 columns wide: one block per engine call,
        # so B = 600 spans three calls; one worker runs them inline, two and
        # three take runs of (2, 1) and (1, 1, 1) calls in processes, even
        # for this small a set
        monkeypatch.setattr(resampling, "POOL_CELLS", 0)
        z = _wide(200, 200, 9009)
        assert chunk_blocks(z) == 1
        sets = [replicate_set(z, ResamplingPlan(scheme, 600, 23, workers))
                for workers in (1, 2, 3)]
        assert multiprocessing.active_children() == []
        want, dropped = _reference_set(z, scheme, 600, 23)
        for reps in sets:
            assert reps.statistics.tobytes() == want.tobytes()
            assert reps.dropped == dropped

    def test_concurrent_sets_never_share_a_workspace(self, monkeypatch):
        # sets on two pools from more threads than cores, the wide ones on
        # three threads of their own, with the interpreter switching threads
        # often; a workspace lent twice at once would mix two calls' arrays
        monkeypatch.setattr(resampling, "POOL_CELLS", 0)  # wide sets spawn workers
        jobs = [(_wide(200, 200, 9013), ResamplingPlan("permutation", 600, 5, workers=3)),
                (_pooled(np.random.default_rng(9014), 15, 15),
                 ResamplingPlan("bootstrap", 999, 6))]
        want = [replicate_set(z, plan).statistics.tobytes() for z, plan in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool_:
                futures = [pool_.submit(replicate_set, z, plan) for z, plan in jobs * 3]
                got = [f.result(timeout=120).statistics.tobytes() for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == want * 3

    def test_workspace_beyond_budget_dropped_at_next_context(self):
        # a 200/200 set lays out one 256-row block per call, beyond the
        # budget; the thread's first call on a 15/15 pool drops those arrays
        work = _engine._work
        replicate_set(_wide(200, 200, 9015), ResamplingPlan("bootstrap", 600, 7))
        wide = min(buf.size for buf in work._memory.values())
        narrow = _pooled(np.random.default_rng(9016), 15, 15)
        replicate_set(narrow, ResamplingPlan("permutation", 999, 8))
        assert max(buf.size for buf in work._memory.values()) < wide
        # a set in another thread fits that thread's workspace, not this one
        before, memory = dict(vars(work)), dict(work._memory)

        def elsewhere():
            replicate_set(narrow, ResamplingPlan("bootstrap", 999, 9))
            return _engine._work._memory

        with ThreadPoolExecutor(max_workers=1) as pool_:
            theirs = pool_.submit(elsewhere).result(timeout=60)
        assert theirs.keys() == memory.keys()
        assert not any(theirs[name] is buf for name, buf in memory.items())
        assert vars(work).keys() == before.keys()
        assert all(vars(work)[key] is value for key, value in before.items())
        assert all(work._memory[name] is buf for name, buf in memory.items())

    def test_sets_on_two_pools_reuse_the_same_three_grids(self):
        # within the budget a thread keeps its three grids across calls and
        # pools; fresh grids on every call would fault their pages in again
        work = _engine._work
        pools = sorted((_pooled(np.random.default_rng(seed), 15, 15) for seed in (9027, 9028)),
                       key=lambda z: -z.width)
        assert pools[0].width > pools[1].width
        replicate_set(pools[0], ResamplingPlan("bootstrap", 999, 16))
        grids = dict(work._memory)
        assert len(grids) == 3
        for z in pools[::-1]:
            for scheme in ("permutation", "bootstrap"):
                replicate_set(z, ResamplingPlan(scheme, 999, 17))
                assert work._memory.keys() == grids.keys()
                assert all(work._memory[name] is buf for name, buf in grids.items())

    @pytest.mark.parametrize("permutation", [False, True])
    def test_identity_row_between_calls_changes_no_row(self, permutation):
        # the identity row lays the grids out for one row between two 999-row calls
        z = _pooled(np.random.default_rng(9019), 15, 15)
        draw = permutation_indices if permutation else bootstrap_indices
        idx = draw(stream(13, 1, 0), 999, 30)
        first = batch_statistics(z, idx, permutation=permutation)
        identity_row(z)
        _assert_same_rows(batch_statistics(z, idx, permutation=permutation), first)
        _assert_same_rows(first, reference_batch_statistics(z, idx))

    @pytest.mark.parametrize("permutation", [False, True])
    def test_both_recurrence_forms_equal_reference(self, permutation):
        # a many-row narrow call runs the column recurrences one vector
        # operation per column, a few-row wide call runs ufunc.accumulate
        draw = permutation_indices if permutation else bootstrap_indices
        narrow, wide = _pooled(np.random.default_rng(9010), 15, 15), _wide(200, 200, 9011)
        for z, rows in ((narrow, 999), (wide, 7)):
            assert (rows >= SLAB) == (z is narrow)
            idx = draw(stream(31, 1, rows), rows, z.n1 + z.n2)
            _assert_same_rows(batch_statistics(z, idx, permutation=permutation),
                              reference_batch_statistics(z, idx))

    def test_identity_row_of_a_wide_pool_equals_reference(self):
        z = _wide(600, 550, 9012)
        assert z.width > 1000
        idx = np.arange(z.n1 + z.n2, dtype=np.int64)[None, :]
        _assert_same_rows(identity_row(z), reference_batch_statistics(z, idx))

    def test_wrong_column_count_rejected(self):
        z = batch_context(np.array([1.0, 2.0]), np.array([True, True]), 1, 1, K)
        with pytest.raises(ValueError, match="n1 [+] n2 columns"):
            batch_statistics(z, np.zeros((3, 5), dtype=np.int64))


class TestCodeTables:
    # the Kaplan-Meier factor and dH by code y radix + d, where the tables
    # are no larger than the call's grid, and the formulas elsewhere

    def test_tables_equal_the_formulas_for_every_count_pair(self):
        radix = 61
        y, d = (v.astype(float) for v in np.tril_indices(radix))  # 0 <= d <= y <= 60
        tables = _engine._km_tables(radix)
        assert tables.shape == (2, radix * radix)
        codes = (y * radix + d).astype(np.int64)
        gap = (y - d) * y
        factor = 1.0 - d / np.maximum(y, 1.0)
        dh = np.minimum(d, gap) / np.maximum(gap, 1.0)
        assert tables[0][codes].tobytes() == factor.tobytes()
        assert tables[1][codes].tobytes() == dh.tobytes()
        # no one at risk, and everyone at risk dying
        assert tables[0][0] == 1.0 and tables[1][0] == 0.0
        everyone = np.arange(1, radix) * (radix + 1)
        assert (tables[0][everyone] == 0.0).all() and (tables[1][everyone] == 0.0).all()

    def test_calls_on_both_sides_of_the_size_rule_equal_reference(self):
        # a call reads the tables only where they are no larger than its grid
        narrow, wide = _pooled(np.random.default_rng(9022), 15, 15), _wide(600, 550, 9023)
        idx = bootstrap_indices(stream(32, 1, 0), 999, 30)
        cases = [(narrow, idx, True),
                 (narrow, np.arange(30, dtype=np.int64)[None, :], False),
                 (wide, np.arange(1150, dtype=np.int64)[None, :], False)]
        for z, rows, table in cases:
            radix = max(z.n1, z.n2) + 1
            assert (radix ** 2 <= z.width * 2 * rows.shape[0]) == table
            before = _engine._km_tables.cache_info()
            got = batch_statistics(z, rows, permutation=rows.shape[0] == 1)
            after = _engine._km_tables.cache_info()
            assert after.hits + after.misses == before.hits + before.misses + table
            _assert_same_rows(got, reference_batch_statistics(z, rows))

    def test_tables_kept_for_current_group_sizes_only(self):
        # one radix at a time, kept across the identity row's formula call
        narrow = _pooled(np.random.default_rng(9024), 15, 15)
        replicate_set(narrow, ResamplingPlan("bootstrap", 999, 14))
        identity_row(narrow)
        info = _engine._km_tables.cache_info()
        assert info.currsize == 1
        tables = _engine._km_tables(16)
        assert _engine._km_tables.cache_info().hits == info.hits + 1
        assert tables.shape == (2, 16 * 16) and not tables.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tables[1, 0] = 1.0
        replicate_set(_pooled(np.random.default_rng(9025), 12, 20),
                      ResamplingPlan("permutation", 300, 15))
        info = _engine._km_tables.cache_info()
        tables = _engine._km_tables(21)
        assert _engine._km_tables.cache_info().hits == info.hits + 1
        assert not tables.flags.writeable
        assert tables.tobytes() == _engine._km_tables.__wrapped__(21).tobytes()


class TestLeadingColumn:
    # column 0 holds the times before the first event: histogrammed, never
    # processed, since its S is 1.0 and its dH and jump masses are zeros

    @staticmethod
    def _pool(censored_first):
        rng = np.random.default_rng(9026)
        times = np.round(rng.uniform(1.0, 9.5, 30), 2)
        events = rng.random(30) < 0.7
        # the two smallest times, one per group: censored, or events
        times[[0, 15]], events[[0, 15]] = (0.25, 0.5), not censored_first
        return pool(Sample(times[:15], events[:15], K), Sample(times[15:], events[15:], K))

    @pytest.mark.parametrize("censored_first", [True, False])
    @pytest.mark.parametrize("permutation", [False, True])
    @pytest.mark.parametrize("rows", [999, 7])
    def test_rows_equal_reference(self, censored_first, permutation, rows):
        z = self._pool(censored_first)
        assert (z.column == 0).any() == censored_first
        draw = permutation_indices if permutation else bootstrap_indices
        idx = draw(stream(33, 1, rows), rows, 30)
        _assert_same_rows(batch_statistics(z, idx, permutation=permutation),
                          reference_batch_statistics(z, idx))


class TestWideGridPrecision:
    # every row sum runs in column order, one addition per column; on grids
    # thousands of columns wide its rounding stays far inside these bounds

    def test_effect_on_3000_per_group_tied_uncensored(self):
        # times on a 0.005 lattice: about 2,000 distinct values, each tied
        # three times on average, within and across the groups
        rng = np.random.default_rng(9020)
        times = rng.integers(1, 2000, 6000) * 0.005
        events = np.ones(3000, bool)
        s1, s2 = Sample(times[:3000], events, K), Sample(times[3000:], events, K)
        assert pool(s1, s2).width >= 1900
        p_hat = mann_whitney_effect(s1, s2).p_hat
        assert abs(p_hat - uncensored_pairwise_oracle(s1, s2)) <= 1e-13

    def test_variance_on_censored_500_per_group(self):
        # group 1's largest time censored, so the boundary atom S1(k) > 0
        rng = np.random.default_rng(9021)
        times, events = np.round(rng.uniform(0.5, 9.5, 1000), 3), rng.random(1000) < 0.6
        events[np.argmax(times[:500])] = False
        s1, s2 = Sample(times[:500], events[:500], K), Sample(times[500:], events[500:], K)
        est = mann_whitney_effect(s1, s2)
        f1, f2 = kaplan_meier(s1), kaplan_meier(s2)
        assert f1.survival(K) > 0
        for fast, slow in ((est.sigma2_12, sigma2_jk(cov_kernel(f1), f2)),
                           (est.sigma2_21, sigma2_jk(cov_kernel(f2), f1, boundary=True))):
            assert abs(fast - slow) <= 1e-12 * slow


class TestIndexGenerators:
    def test_bootstrap_shape_and_range(self):
        idx = bootstrap_indices(stream(0, 1, 0), 25, 13)
        assert idx.shape == (25, 13)
        assert idx.min() >= 0 and idx.max() < 13

    def test_permutation_rows_are_permutations(self):
        idx = permutation_indices(stream(0, 2, 0), 25, 13)
        assert idx.shape == (25, 13)
        expected = np.arange(13)
        for row in idx:
            assert_array_equal(np.sort(row), expected)

    # regression anchors: one 256 x 30 block of each generator on a fixed
    # stream, its first row and the SHA-256 of its little-endian bytes
    ANCHORS = {
        "bootstrap": (
            bootstrap_indices, 1,
            [5, 17, 17, 15, 23, 21, 2, 14, 1, 3, 29, 29, 28, 12, 14,
             25, 28, 6, 25, 27, 23, 16, 22, 8, 6, 0, 5, 26, 20, 9],
            "40e20fc194b16e007cf4a49728f38b7963f2e168e2da7106629e97c1ceb065c2"),
        "permutation": (
            permutation_indices, 2,
            [14, 15, 0, 13, 23, 26, 25, 9, 8, 7, 4, 28, 11, 29, 3,
             6, 2, 1, 27, 22, 17, 5, 24, 10, 19, 21, 20, 16, 12, 18],
            "16c55e69efd15d995c12c957df0d10c81fc2fd2018b7b0d206518f8a971de4fb"),
    }

    @pytest.mark.parametrize("scheme", ["bootstrap", "permutation"])
    def test_draws_pinned(self, scheme):
        draw, scheme_id, first, digest = self.ANCHORS[scheme]
        idx = draw(stream(16, scheme_id, 0), BLOCK, 30)
        assert idx.dtype == np.int64 and idx.shape == (BLOCK, 30)
        assert idx[0].tolist() == first
        assert hashlib.sha256(idx.astype("<i8").tobytes()).hexdigest() == digest

    def test_permutation_into_strided_view_equals_allocating_form(self):
        want = permutation_indices(stream(16, 2, 3), 40, 13)
        big = np.full((90, 20), -1, np.int64)
        view = big[1::2][:40, 3:16]
        assert not view.flags.c_contiguous
        assert permutation_indices(stream(16, 2, 3), 40, 13, out=view) is view
        assert_array_equal(view, want)
        # nothing outside the view is written
        big[1::2][:40, 3:16] = -1
        assert (big == -1).all()

    def test_generators_deterministic(self):
        a = bootstrap_indices(stream(4, 1, 2), 10, 9)
        b = bootstrap_indices(stream(4, 1, 2), 10, 9)
        assert_array_equal(a, b)
        c = permutation_indices(stream(4, 2, 2), 10, 9)
        d = permutation_indices(stream(4, 2, 2), 10, 9)
        assert_array_equal(c, d)
