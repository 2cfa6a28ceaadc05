"""Asymptotic studentized statistics, intervals, and tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from survcmp import inference
from survcmp.datasets import load_tongue
from survcmp.inference import (
    METHODS,
    _normal_p_value,
    analyze,
    asymptotic_ci,
    mann_whitney_effect,
    normal_quantile,
    resampling_ci,
    studentized_p,
)
from survcmp.resampling import ResamplingPlan
from survcmp.simulate import horizon, survival_function
from survcmp.survival import Sample, pool

K = 10.0


def _random_censored(rng, n, k=K):
    times = np.round(rng.uniform(0.5, k - 0.5, n), 2)
    events = rng.random(n) < 0.7
    if not events.any():
        events[0] = True
    return Sample(times, events, k)


def _random_pair(rng, lo=8, hi=30):
    s1 = _random_censored(rng, int(rng.integers(lo, hi)))
    s2 = _random_censored(rng, int(rng.integers(lo, hi)))
    return s1, s2


class TestNormalQuantile:
    def test_frozen_values(self):
        assert_allclose(normal_quantile(0.025), 1.9599639845400545, atol=1e-15)
        assert_allclose(normal_quantile(0.05), 1.6448536269514722, atol=1e-15)

    def test_median_is_zero(self):
        assert_allclose(normal_quantile(0.5), 0.0, atol=1e-15)

    def test_rejects_boundary(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestAgainstScipy:
    """The standard-library normal quantile and tails against scipy.special."""

    def test_quantile_matches_ndtri(self):
        alphas = np.concatenate([np.logspace(-300, np.log10(0.5), 3001),
                                 np.linspace(0.4, 0.6, 2001),
                                 1.0 - np.logspace(-15, np.log10(0.5), 1001)])
        got = np.array([normal_quantile(a) for a in alphas])
        assert_allclose(got, -special.ndtri(alphas), rtol=2e-15, atol=0.0)

    @pytest.mark.parametrize("lo, hi, rtol", [(-8.0, 40.0, 2e-14), (-37.5, -8.0, 1e-12)])
    def test_tails_match_ndtr(self, lo, hi, rtol):
        x = np.linspace(lo, hi, 20001)
        lower = special.ndtr(x)  # P(Z <= x)
        assert_allclose([_normal_p_value(v, "less") for v in x], lower, rtol=rtol, atol=0.0)
        assert_allclose([_normal_p_value(-v, "greater") for v in x], lower,
                        rtol=rtol, atol=0.0)
        x = x[x <= 0.0]
        assert_allclose([_normal_p_value(v, "two-sided") for v in x], 2.0 * special.ndtr(x),
                        rtol=rtol, atol=0.0)

    def test_lognormal_survival_matches_ndtr(self):
        t = np.concatenate([np.logspace(-300, 0, 1000), np.linspace(0.0, horizon(2), 10001)[1:]])
        assert_allclose(survival_function(2, 2)(t), special.ndtr(-np.log(t)),
                        rtol=1e-15, atol=0.0)


class TestStatistics:
    def test_null_statistic_sign(self):
        s1 = Sample([2.0, 4.0, 6.0, 8.0], [True] * 4, K)
        s2 = Sample([1.0, 3.0, 5.0, 7.0], [True] * 4, K)
        assert studentized_p(s1, s2) > 0.0
        assert studentized_p(s2, s1) < 0.0

    def test_degenerate_variance_rejected(self):
        s1 = Sample([1.0, 2.0], [False, False], K)
        s2 = Sample([1.5, 2.5], [False, False], K)
        with pytest.raises(ValueError, match="degenerate variance"):
            studentized_p(s1, s2)

    def test_group_without_events_rejected(self):
        # the variance is positive here (group 1's leftover mass weights
        # group 2's term), but a group without events leaves the statistic
        # undefined
        s1 = Sample([1.0, 2.0], [False, False], K)
        s2 = Sample([1.5, 2.5, 3.0], [True, True, False], K)
        assert mann_whitney_effect(s1, s2).sigma2 > 0.0
        with pytest.raises(ValueError, match="degenerate variance"):
            studentized_p(s1, s2)
        with pytest.raises(ValueError, match="degenerate variance"):
            asymptotic_ci(s1, s2)


def _no_replicates(z, plan):
    raise AssertionError("replicates drawn before the options were checked")


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("scheme", ["bootstrap", "permutation"])
def test_alpha_checked_before_replicates(monkeypatch, scheme, alpha):
    monkeypatch.setattr(inference, "replicate_set", _no_replicates)
    s1, s2 = load_tongue()
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
        resampling_ci(s1, s2, ResamplingPlan(scheme, 200_000, 1), alpha=alpha)


class TestErrorPrecedence:
    # complete separation: p_hat = 1 with zero variance; the other case has
    # a group without events
    CASES = {"separated": (([5.0, 6.0], [True, True]), ([1.0, 2.0], [True, True])),
             "no events": (([1.0, 2.0], [False, False]), ([1.5, 2.5, 3.0], [True, True, False]))}

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("target", ["p", "w"])
    @pytest.mark.parametrize("method", ["asymptotic", "bootstrap", "permutation"])
    def test_message(self, method, target, case):
        s1, s2 = (Sample(t, e, K) for t, e in self.CASES[case])
        with pytest.raises(ValueError, match="degenerate variance"):
            if method == "asymptotic":
                asymptotic_ci(s1, s2, target=target)
            else:
                resampling_ci(s1, s2, ResamplingPlan(method, 99, 1), target=target)


class TestIntervals:
    def test_two_sided_raw_width(self):
        rng = np.random.default_rng(707)
        unclamped = 0
        for _ in range(40):
            s1, s2 = _random_pair(rng)
            try:
                res = asymptotic_ci(s1, s2)
            except ValueError:
                continue
            est = mann_whitney_effect(s1, s2)
            n = est.n1 + est.n2
            se = np.sqrt(est.sigma2) / np.sqrt(est.n1 * est.n2 / n)
            assert res.critical == normal_quantile(0.025)
            lo, hi = res.ci
            if 0.0 < lo and hi < 1.0:  # not clamped
                assert_allclose(hi - lo, 2.0 * res.critical * se, atol=1e-12)
                assert_allclose(0.5 * (lo + hi), est.p_hat, atol=1e-12)
            unclamped += 0.0 < lo and hi < 1.0
        assert unclamped >= 20

    def test_clamped_to_unit_interval(self):
        s1 = Sample([5.0, 6.0, 7.0], [True] * 3, K)
        s2 = Sample([1.0, 1.5, 2.0, 6.5], [True] * 4, K)
        res = asymptotic_ci(s1, s2)
        lo, hi = res.ci
        assert 0.0 <= lo <= hi <= 1.0
        se = res.sigma / np.sqrt(s1.n * s2.n / (s1.n + s2.n))
        assert res.estimate.p_hat + res.critical * se > 1.0
        assert hi == 1.0

    def test_one_sided_reaches_boundaries(self):
        s1, s2 = load_tongue()
        greater = asymptotic_ci(s1, s2, alternative="greater")
        less = asymptotic_ci(s1, s2, alternative="less")
        assert greater.ci[1] == 1.0
        assert less.ci[0] == 0.0
        assert greater.ci[0] > 0.0
        assert less.ci[1] < 1.0

    def test_w_interval_transform(self):
        s1, s2 = load_tongue()
        res_p = asymptotic_ci(s1, s2, target="p")
        res_w = asymptotic_ci(s1, s2, target="w")
        p_hat = res_p.estimate.p_hat
        assert_allclose(res_w.estimate.w_hat, p_hat / (1.0 - p_hat), atol=1e-12)
        assert res_w.ci[0] >= 0.0

    def test_duality_with_test(self):
        # two-sided test at level alpha rejects exactly when p0 leaves the interval
        rng = np.random.default_rng(818)
        checked = 0
        while checked < 60:
            s1, s2 = _random_pair(rng, lo=10, hi=40)
            try:
                res = asymptotic_ci(s1, s2, alpha=0.1)
            except ValueError:
                continue
            lo, hi = res.ci
            for p0 in rng.uniform(0.05, 0.95, 4):
                t = studentized_p(s1, s2, p0)
                rejects = abs(t) > res.critical
                outside = p0 < lo or p0 > hi
                assert rejects == outside
            checked += 1


def _w_image(ci):
    return tuple(np.inf if x == 1.0 else x / (1.0 - x) for x in ci)


@pytest.mark.parametrize("alternative", ["two-sided", "greater", "less"])
def test_w_is_the_image_of_p(alternative):
    # on tied, censored pairs (some near separation, so that clamped
    # endpoints occur), w's interval is p's mapped through x / (1 - x)
    # and both targets share one test
    rng = np.random.default_rng(919)
    checked = 0
    for i in range(24):
        s1, s2 = _random_pair(rng, lo=6, hi=20)
        if i % 3 == 0:  # shift group 1 late: p_hat near 1
            s1 = Sample(np.minimum(s1.times + 4.0, K), s1.events, K)
        try:
            rows = analyze(pool(s1, s2), METHODS, ("p", "w"), 0.1, alternative, 49, i, 1)
        except ValueError:
            continue
        for _, (p, w) in rows:
            assert w.ci == _w_image(p.ci)
            assert (w.statistic, w.p_value, w.critical, w.reject) == \
                (p.statistic, p.p_value, p.critical, p.reject)
        checked += 1
    assert checked >= 16


class TestTongueFrozen:
    def test_statistic_values(self):
        s1, s2 = load_tongue()
        assert_allclose(studentized_p(s1, s2), 1.6266942271555058, atol=1e-12)

    def test_two_sided_interval_and_p_value(self):
        s1, s2 = load_tongue()
        res = asymptotic_ci(s1, s2)
        assert_allclose(res.ci[0], 0.47647292486265713, atol=1e-12)
        assert_allclose(res.ci[1], 0.7531990238200996, atol=1e-12)
        assert_allclose(res.p_value, 0.10380205543119805, atol=1e-12)
        assert res.method == "asymptotic"
        assert res.b == 0

    def test_one_sided_test_decision(self):
        # the decision must agree with the dual one-sided interval and with
        # the p-value; the reference lower bound 0.497 < 1/2 (criterion 02)
        # means the 5% test does not reject on this dataset
        s1, s2 = load_tongue()
        res = asymptotic_ci(s1, s2, alternative="greater")
        assert res.reject == (res.ci[0] > 0.5)
        assert res.reject == (res.p_value < res.alpha)
        assert not res.reject
        assert_allclose(res.p_value, 0.05190102771559903, atol=1e-12)
