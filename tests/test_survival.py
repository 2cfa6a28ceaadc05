"""Sample construction, truncation and the product-limit curve."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from survcmp.survival import Sample, km_curve, truncate


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

    def test_caller_arrays_stay_writable_and_apart(self):
        # float64 and bool inputs are the dtypes a no-copy conversion would keep
        t = np.array([1.0, 2.0, 3.0])
        e = np.array([True, False, True])
        s = Sample(t, e, 5.0)
        t[0] = 1.5
        e[1] = True
        assert t.flags.writeable and e.flags.writeable
        assert_array_equal(s.times, [1.0, 2.0, 3.0])
        assert_array_equal(s.events, [True, False, True])

    @pytest.mark.parametrize("build", [lambda t, e: Sample(t, e, 5.0),
                                       lambda t, e: truncate((t, e), 5.0)])
    @pytest.mark.parametrize("bad", [["0", "1", "0"], [0.0, np.nan, 1.0], [0.0, 0.5, 1.0],
                                     [0, 2, 1], [None, True, False]])
    def test_event_flags_are_booleans_or_0_1(self, build, bad):
        # a string, NaN, 0.5 or 2 used to read as an event
        with pytest.raises(ValueError, match="events must be booleans or 0/1"):
            build([1.0, 2.0, 3.0], bad)
        for flags in ([0, 1, 0], [0.0, 1.0, 0.0], np.array([0, 1, 0], np.uint8)):
            assert build([1.0, 2.0, 3.0], flags).events.tolist() == [False, True, False]


class TestKaplanMeier:
    def test_hand_example_with_ties(self):
        # tied events at 1.0 are one factor 1 - 2/4
        s = truncate(([1.0, 1.0, 2.0, 3.0], [True, True, False, True]), 10.0)
        times, surv = km_curve(s)
        assert times.tolist() == [1.0, 3.0]
        assert surv.tolist() == [0.5, 0.0]

    def test_censored_only_times_shrink_risk_set(self):
        s = truncate(([1.0, 2.0, 3.0], [True, False, True]), 10.0)
        times, surv = km_curve(s)
        assert times.tolist() == [1.0, 3.0]
        assert_allclose(surv, [2.0 / 3.0, 0.0])

    def test_censoring_tied_with_event_stays_at_risk(self):
        # the censored subject at 2.0 still counts in y(2.0) = 3
        s = truncate(([2.0, 2.0, 4.0], [True, False, True]), 10.0)
        times, surv = km_curve(s)
        assert times.tolist() == [2.0, 4.0]
        assert_allclose(surv, [2.0 / 3.0, 0.0])

    def test_tied_events_single_factor(self):
        s = truncate(([1.0, 1.0, 2.0], [True, True, True]), 10.0)
        assert_allclose(km_curve(s)[1], [1.0 / 3.0, 0.0])

    def test_censored_maximum_leaves_mass(self):
        s = truncate(([1.0, 2.0], [True, False]), 10.0)
        times, surv = km_curve(s)
        assert times.tolist() == [1.0]
        assert_allclose(surv[-1], 0.5)

    def test_no_events_gives_empty_curve(self):
        times, surv = km_curve(Sample([1.0, 2.0], [False, False], 10.0))
        assert times.size == 0 and surv.size == 0

    def test_nonincreasing_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = _random_censored(rng, int(rng.integers(1, 30)))
            times, surv = km_curve(s)
            assert np.all(np.diff(times) > 0)
            assert np.all(np.diff(surv) <= 1e-15)
            assert np.all((surv >= 0.0) & (surv < 1.0))

    def test_uncensored_equals_empirical_survival(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            times = np.round(rng.uniform(0.5, 9.0, n), 1)
            s = Sample(times, np.ones(n, bool), 10.0)
            grid, surv = km_curve(s)
            assert_array_equal(grid, np.unique(times))
            emp = (times[None, :] > grid[:, None]).mean(axis=1)
            assert_allclose(surv, emp, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        s = _random_censored(rng, 20)
        perm = rng.permutation(20)
        sp = Sample(s.times[perm], s.events[perm], s.k)
        for a, b in zip(km_curve(s), km_curve(sp)):
            assert a.tobytes() == b.tobytes()
