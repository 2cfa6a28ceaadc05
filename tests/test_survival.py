"""Sample construction, truncation, counting processes, product-limit curves."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from survcmp.survival import (
    Sample,
    counting_processes,
    kaplan_meier,
    nelson_aalen,
    truncate,
)


def _random_censored(rng, n, k=10.0):
    times = rng.uniform(0.5, k - 0.5, n)
    events = rng.random(n) < 0.7
    return Sample(times, events, k)


class TestTruncate:
    def test_times_beyond_window_become_events_at_k(self):
        s = truncate(([1.0, 5.0, 12.0], [True, False, False]), 10.0)
        assert_allclose(s.times, [1.0, 5.0, 10.0])
        assert s.events.tolist() == [True, False, True]

    def test_time_exactly_at_k_keeps_status(self):
        s = truncate(([10.0, 10.0], [False, True]), 10.0)
        assert s.events.tolist() == [False, True]

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            truncate([], 5.0)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError, match="invalid horizon"):
            truncate(([1.0], [True]), 0.0)
        with pytest.raises(ValueError, match="invalid horizon"):
            truncate(([1.0], [True]), np.inf)

    def test_nonpositive_times_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            truncate(([0.0, 1.0], [True, True]), 5.0)


class TestSample:
    def test_out_of_window_times_rejected(self):
        with pytest.raises(ValueError, match="lie in"):
            Sample([1.0, 11.0], [True, True], 10.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            Sample([], [], 10.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_times_rejected(self, bad):
        # NaN used to slip past the window check and give p_hat = 0.25
        with pytest.raises(ValueError, match="finite"):
            Sample([bad, 1.0], [True, True], 5.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_truncate_does_not_rewrite_non_finite_times(self, bad):
        # an infinite time is not "beyond the window": it is rejected, not
        # turned into an event at k
        with pytest.raises(ValueError, match="finite"):
            truncate(([bad, 1.0], [True, True]), 5.0)

    def test_arrays_read_only(self):
        s = Sample([1.0, 2.0], [True, False], 5.0)
        with pytest.raises(ValueError):
            s.times[0] = 3.0


class TestCountingProcesses:
    def test_hand_example_with_ties(self):
        s = truncate(([1.0, 1.0, 2.0, 3.0], [True, True, False, True]), 10.0)
        cp = counting_processes(s)
        assert cp.event_times.tolist() == [1.0, 3.0]
        assert cp.dn.tolist() == [2, 1]
        assert cp.y.tolist() == [4, 1]

    def test_censored_only_times_shrink_risk_set(self):
        s = truncate(([1.0, 2.0, 3.0], [True, False, True]), 10.0)
        cp = counting_processes(s)
        assert cp.event_times.tolist() == [1.0, 3.0]
        assert cp.y.tolist() == [3, 1]

    def test_censoring_tied_with_event_stays_at_risk(self):
        # the censored subject at 2.0 still counts in y(2.0)
        s = truncate(([2.0, 2.0, 4.0], [True, False, True]), 10.0)
        cp = counting_processes(s)
        assert cp.y.tolist() == [3, 1]
        assert cp.dn.tolist() == [1, 1]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        s = _random_censored(rng, 25)
        perm = rng.permutation(25)
        sp = Sample(s.times[perm], s.events[perm], s.k)
        a, b = counting_processes(s), counting_processes(sp)
        assert_allclose(a.event_times, b.event_times)
        assert_allclose(a.dn, b.dn)
        assert_allclose(a.y, b.y)


class TestKaplanMeier:
    def test_hand_example(self):
        s = truncate(([1.0, 2.0, 3.0], [True, False, True]), 10.0)
        fit = kaplan_meier(s)
        assert_allclose(fit.survival(1.0), 2.0 / 3.0)
        assert_allclose(fit.survival(2.5), 2.0 / 3.0)
        assert_allclose(fit.survival(3.0), 0.0)

    def test_tied_events_single_factor(self):
        s = truncate(([1.0, 1.0, 2.0], [True, True, True]), 10.0)
        fit = kaplan_meier(s)
        assert_allclose(fit.survival(1.0), 1.0 / 3.0)
        assert_allclose(fit.survival(2.0), 0.0)

    def test_starts_at_one_monotone_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = _random_censored(rng, int(rng.integers(1, 30)))
            fit = kaplan_meier(s)
            grid = np.linspace(0.0, s.k, 101)
            vals = fit.survival(grid)
            assert vals[0] == 1.0
            assert np.all(np.diff(vals) <= 1e-15)
            assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_uncensored_equals_empirical_survival(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            times = np.round(rng.uniform(0.5, 9.0, n), 1)
            s = Sample(times, np.ones(n, bool), 10.0)
            fit = kaplan_meier(s)
            grid = np.unique(times)
            emp = (times[None, :] > grid[:, None]).mean(axis=1)
            assert_allclose(fit.survival(grid), emp, atol=1e-12)

    def test_censored_maximum_leaves_mass(self):
        s = truncate(([1.0, 2.0], [True, False]), 10.0)
        fit = kaplan_meier(s)
        assert_allclose(fit.survival(10.0), 0.5)

    def test_normalized_is_midpoint_everywhere(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            s = _random_censored(rng, int(rng.integers(2, 25)))
            fit = kaplan_meier(s)
            pts = np.concatenate([fit.survival.jump_times, rng.uniform(0, s.k, 5)])
            mid = 0.5 * (fit.survival(pts) + fit.survival.left_limit(pts))
            assert_allclose(fit.normalized(pts), mid, atol=0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        s = _random_censored(rng, 20)
        perm = rng.permutation(20)
        sp = Sample(s.times[perm], s.events[perm], s.k)
        grid = np.linspace(0, s.k, 50)
        assert_allclose(kaplan_meier(s).survival(grid), kaplan_meier(sp).survival(grid))


class TestNelsonAalen:
    def test_hand_example(self):
        s = truncate(([1.0, 2.0], [True, True]), 10.0)
        na = nelson_aalen(s)
        assert_allclose(na(1.0), 0.5)
        assert_allclose(na(2.0), 1.5)

    def test_increments_in_unit_interval(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            s = _random_censored(rng, int(rng.integers(2, 30)))
            cp = counting_processes(s)
            if cp.event_times.size == 0:
                continue
            inc = cp.dn / cp.y
            assert np.all(inc > 0.0)
            assert np.all(inc <= 1.0)
