"""Asymptotic studentized statistics, intervals, and tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from survcmp import inference
from survcmp._engine import studentize
from survcmp.datasets import load_tongue
from survcmp.inference import (
    METHODS,
    DegenerateError,
    _normal_p_value,
    analyze,
    mann_whitney_effect,
    normal_quantile,
)
from survcmp.rng import check_seed
from survcmp.simulate import SETUPS, ScenarioConfig
from survcmp.survival import Sample

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


def _asymptotic(s1, s2, **kwargs):
    [res] = analyze(s1, s2, methods=("asymptotic",), **kwargs)
    return res


def _statistic(s1, s2):
    return _asymptotic(s1, s2).statistic


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
        t = np.concatenate([np.logspace(-300, 0, 1000), np.linspace(0.0, SETUPS[2][2], 10001)[1:]])
        assert_allclose(SETUPS[2][1].survival(t), special.ndtr(-np.log(t)),
                        rtol=1e-15, atol=0.0)


class TestStatistics:
    def test_null_statistic_sign(self):
        s1 = Sample([2.0, 4.0, 6.0, 8.0], [True] * 4, K)
        s2 = Sample([1.0, 3.0, 5.0, 7.0], [True] * 4, K)
        assert _statistic(s1, s2) > 0.0
        assert _statistic(s2, s1) < 0.0

    def test_degenerate_variance_rejected(self):
        s1 = Sample([1.0, 2.0], [False, False], K)
        s2 = Sample([1.5, 2.5], [False, False], K)
        with pytest.raises(DegenerateError, match="degenerate variance"):
            _statistic(s1, s2)

    def test_group_without_events_rejected(self):
        # the variance is positive here (group 1's leftover mass weights
        # group 2's term), but a group without events leaves the statistic
        # undefined
        s1 = Sample([1.0, 2.0], [False, False], K)
        s2 = Sample([1.5, 2.5, 3.0], [True, True, False], K)
        assert mann_whitney_effect(s1, s2).sigma2 > 0.0
        with pytest.raises(DegenerateError, match="degenerate variance"):
            _statistic(s1, s2)


def _no_replicates(*args):
    raise AssertionError("replicates drawn before the options were checked")


# a non-number used to fail with a bare TypeError from the comparison
@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, "0.1", None, True, float("nan")])
@pytest.mark.parametrize("scheme", ["bootstrap", "permutation"])
def test_alpha_checked_before_replicates(monkeypatch, scheme, alpha):
    monkeypatch.setattr(inference, "replicate_statistics", _no_replicates)
    s1, s2 = load_tongue()
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
        analyze(s1, s2, methods=(scheme,), alpha=alpha, b=200_000, seed=1)


@pytest.mark.parametrize("methods", [(), ("bogus",), ("bootstrap", "bootstrap"),
                                     ("asymptotic", "permutation", "asymptotic"),
                                     ("asymptotic", "jackknife"), "permutation",
                                     [["asymptotic"]]],
                         ids=["empty", "unknown", "repeated", "repeated-apart",
                              "one-unknown", "bare-string", "unhashable"])
def test_methods_checked_before_any_computation(monkeypatch, methods):
    # empty, unknown and repeated methods, a bare string and an unhashable
    # name fail with one message that names every method, before the pool
    # or a replicate set
    monkeypatch.setattr(inference, "replicate_statistics", _no_replicates)
    monkeypatch.setattr(inference, "pool", _no_replicates)
    s1, s2 = load_tongue()
    want = "methods must be distinct names from ('asymptotic', 'bootstrap', 'permutation')"
    with pytest.raises(ValueError) as info:
        analyze(s1, s2, methods=methods)
    assert str(info.value) == want
    assert type(info.value) is ValueError


_S1, _S2 = load_tongue()

# (call, message) for an integer setting that is not a Python or numpy
# integer, and for the rules of seed, b and workers, which hold whichever
# methods are asked for
_INTEGER_CASES = {
    "seed -1": (lambda: analyze(_S1, _S2, ("asymptotic",), seed=-1),
                "seed must fit in 64 unsigned bits"),
    "seed 2**64": (lambda: analyze(_S1, _S2, ("asymptotic",), seed=2**64),
                   "seed must fit in 64 unsigned bits"),
    "seed 1.5": (lambda: analyze(_S1, _S2, seed=1.5), "seed must be an integer"),
    "b float": (lambda: analyze(_S1, _S2, b=100.0), "b must be an integer"),
    "b bool": (lambda: analyze(_S1, _S2, b=True), "b must be an integer"),
    "workers float": (lambda: analyze(_S1, _S2, workers=2.0), "workers must be an integer"),
    "workers bool": (lambda: analyze(_S1, _S2, ("permutation",), workers=True),
                     "workers must be an integer"),
    "b 0": (lambda: analyze(_S1, _S2, ("asymptotic",), b=0), "need at least one replicate"),
    "workers 0": (lambda: analyze(_S1, _S2, ("bootstrap",), workers=0),
                  "workers must be positive"),
    "check_seed bool": (lambda: check_seed(True), "seed must be an integer"),
    "config n1 float": (lambda: ScenarioConfig(setup=3, censoring="none", n1=5.0, n2=5,
                                               reps=2, b=9), "n1 must be an integer"),
    "config reps bool": (lambda: ScenarioConfig(setup=3, censoring="none", n1=5, n2=5,
                                                reps=True, b=9), "reps must be an integer"),
}


@pytest.mark.parametrize("case", list(_INTEGER_CASES))
def test_integer_settings_checked_before_any_computation(monkeypatch, case):
    monkeypatch.setattr(inference, "pool", _no_replicates)
    monkeypatch.setattr(inference, "replicate_statistics", _no_replicates)
    call, message = _INTEGER_CASES[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_numpy_integer_settings_accepted():
    [res] = analyze(_S1, _S2, ("bootstrap",), b=np.int64(19), seed=np.uint64(2**64 - 1),
                    workers=np.int32(1))
    assert res.b == 19
    [res] = analyze(_S1, _S2, ("permutation",), b=np.int16(9), seed=np.int64(3))
    assert res.b == 9
    assert ScenarioConfig(setup=np.int64(3), censoring="none", n1=np.int32(5), n2=5).n1 == 5


class TestErrorPrecedence:
    # complete separation: p_hat = 1 with zero variance; the other case has
    # a group without events
    CASES = {"separated": (([5.0, 6.0], [True, True]), ([1.0, 2.0], [True, True])),
             "no events": (([1.0, 2.0], [False, False]), ([1.5, 2.5, 3.0], [True, True, False]))}

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("method", ["asymptotic", "bootstrap", "permutation"])
    def test_message(self, monkeypatch, method, case):
        # the degenerate estimate fails before any replicate is drawn
        monkeypatch.setattr(inference, "replicate_statistics", _no_replicates)
        s1, s2 = (Sample(t, e, K) for t, e in self.CASES[case])
        with pytest.raises(DegenerateError, match="degenerate variance"):
            analyze(s1, s2, methods=(method,), b=99, seed=1)


class TestIntervals:
    def test_two_sided_raw_width(self):
        rng = np.random.default_rng(707)
        unclamped = 0
        for _ in range(40):
            s1, s2 = _random_pair(rng)
            try:
                res = _asymptotic(s1, s2)
            except DegenerateError:
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
        res = _asymptotic(s1, s2)
        lo, hi = res.ci
        assert 0.0 <= lo <= hi <= 1.0
        se = res.sigma / np.sqrt(s1.n * s2.n / (s1.n + s2.n))
        assert res.estimate.p_hat + res.critical * se > 1.0
        assert hi == 1.0

    def test_one_sided_reaches_boundaries(self):
        s1, s2 = load_tongue()
        greater = _asymptotic(s1, s2, alternative="greater")
        less = _asymptotic(s1, s2, alternative="less")
        assert greater.ci[1] == 1.0
        assert less.ci[0] == 0.0
        assert greater.ci[0] > 0.0
        assert less.ci[1] < 1.0

    def test_w_interval_transform(self):
        s1, s2 = load_tongue()
        res = _asymptotic(s1, s2)
        p_hat = res.estimate.p_hat
        assert_allclose(res.estimate.w_hat, p_hat / (1.0 - p_hat), atol=1e-12)
        lo, hi = res.ci
        assert_allclose(res.ci_w, (lo / (1.0 - lo), hi / (1.0 - hi)), rtol=1e-15)
        assert 0.0 <= res.ci_w[0] < res.estimate.w_hat < res.ci_w[1] < np.inf

    def test_duality_with_test(self):
        # two-sided test at level alpha rejects exactly when p0 leaves the interval
        rng = np.random.default_rng(818)
        checked = 0
        while checked < 60:
            s1, s2 = _random_pair(rng, lo=10, hi=40)
            try:
                res = _asymptotic(s1, s2, alpha=0.1)
            except DegenerateError:
                continue
            lo, hi = res.ci
            est = res.estimate
            for p0 in rng.uniform(0.05, 0.95, 4):
                t = studentize(est.p_hat, est.sigma2, True, est.n1, est.n2, p0)
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
    rng = np.random.default_rng(919)
    checked = 0
    for i in range(24):
        s1, s2 = _random_pair(rng, lo=6, hi=20)
        if i % 3 == 0:  # shift group 1 late: p_hat near 1
            s1 = Sample(np.minimum(s1.times + 4.0, K), s1.events, K)
        try:
            results = analyze(s1, s2, METHODS, 0.1, alternative, 49, i, 1)
        except DegenerateError:
            continue
        assert [res.method for res in results] == list(METHODS)
        for res in results:
            assert res.ci_w == _w_image(res.ci)
        checked += 1
    assert checked >= 16


@pytest.mark.parametrize("b", [19, 99, 999])
def test_p_value_agrees_with_decision(b):
    # the decision reads an order statistic or a normal quantile, the
    # p-value an exceedance count or erfc; wherever the quantile is not
    # capped, p_value <= alpha exactly when the test rejects
    rng = np.random.default_rng(4242 + b)
    outcomes, checked = set(), 0
    for i in range(8):
        s1, s2 = (Sample(rng.integers(1, 9, n).astype(float), rng.random(n) < 0.7, K)
                  for n in rng.integers(6, 20, 2))  # tied and censored
        for alternative in ("two-sided", "greater", "less"):
            for alpha in (0.01, 0.05, 0.1, 0.2, 0.5):
                try:
                    results = analyze(s1, s2, METHODS, alpha, alternative, b, i)
                except DegenerateError:
                    continue
                for res in results:
                    if not res.capped:
                        assert (res.p_value <= alpha) == res.reject, (res.method, alpha)
                        outcomes.add(res.reject)
                        checked += 1
    assert outcomes == {False, True}
    assert checked >= 250


class TestTongueFrozen:
    def test_statistic_values(self):
        s1, s2 = load_tongue()
        assert_allclose(_statistic(s1, s2), 1.6266942271555058, atol=1e-12)

    def test_two_sided_interval_and_p_value(self):
        s1, s2 = load_tongue()
        res = _asymptotic(s1, s2)
        assert_allclose(res.ci[0], 0.47647292486265713, atol=1e-12)
        assert_allclose(res.ci[1], 0.7531990238200996, atol=1e-12)
        assert_allclose(res.p_value, 0.10380205543119805, atol=1e-12)
        assert res.method == "asymptotic"
        assert (res.b, res.dropped, res.rank, res.replicates) == (0, 0, 0, None)

    def test_one_sided_test_decision(self):
        # the decision must agree with the dual one-sided interval and with
        # the p-value; the reference lower bound 0.497 < 1/2 (criterion 02)
        # means the 5% test does not reject on this dataset
        s1, s2 = load_tongue()
        res = _asymptotic(s1, s2, alternative="greater")
        assert res.reject == (res.ci[0] > 0.5)
        assert res.reject == (res.p_value < res.alpha)
        assert not res.reject
        assert_allclose(res.p_value, 0.05190102771559903, atol=1e-12)
