"""Effect and win-ratio estimation: oracles, identities, frozen data values."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from survcmp.datasets import load_tongue
from survcmp.inference import mann_whitney_effect
from survcmp.survival import Sample, truncate

from oracles import (integration_by_parts_value, kaplan_meier, uncensored_pairwise_oracle,
                     wilcoxon_integral)

K = 10.0


def _uncensored_tied(rng, n):
    # integer-valued times force heavy ties
    times = rng.integers(1, 6, n).astype(float)
    return Sample(times, np.ones(n, bool), K)


def _censored(rng, n, force_group_max_event=False):
    times = np.round(rng.uniform(0.5, 8.5, n), 2)
    events = rng.random(n) < 0.6
    if force_group_max_event:
        top = np.argmax(times)
        events[top] = True
        times[top] = 9.5  # strict maximum, survival curve reaches zero
    return Sample(times, events, K)


def _censored_at_k(rng, n):
    # about a third of the times moved to K, half of those as events
    s = _censored(rng, n)
    times, events = s.times.copy(), s.events.copy()
    at_k = rng.random(n) < 0.35
    times[at_k] = K
    events[at_k] = rng.random(int(at_k.sum())) < 0.5
    return Sample(times, events, K)


def _by_parts_gap(s1, s2):
    # by-parts value minus p_hat: S1(K-) S2(K-) / 2 + S1+-(K) dS2(K)
    f1 = kaplan_meier(s1).survival
    f2 = kaplan_meier(s2).survival
    mid1 = 0.5 * (f1(K) + f1.left_limit(K))
    return 0.5 * f1.left_limit(K) * f2.left_limit(K) + mid1 * (f2(K) - f2.left_limit(K))


class TestWilcoxonIntegral:
    def test_total_mass_when_curve_exhausts(self):
        g = kaplan_meier(Sample([1.0, 2.0, 3.0], [True] * 3, K)).survival
        assert_allclose(wilcoxon_integral(lambda t: np.ones_like(t), g), 1.0)

    def test_leftover_mass_reduces_total(self):
        # censored maximum leaves survival at 0.5
        g = kaplan_meier(truncate(([1.0, 2.0], [True, False]), K)).survival
        assert_allclose(wilcoxon_integral(lambda t: np.ones_like(t), g), 0.5)

    def test_self_comparison_single_event(self):
        fit = kaplan_meier(Sample([1.0], [True], K))
        assert_allclose(wilcoxon_integral(fit.normalized, fit.survival), 0.5)


class TestEffectBasics:
    def test_complete_separation(self):
        s1 = Sample([2.0], [True], K)
        s2 = Sample([1.0], [True], K)
        eff = mann_whitney_effect(s1, s2)
        assert eff.p_hat == 1.0
        assert eff.w_infinite
        assert np.isinf(eff.w_hat)

    def test_single_tie_gives_half(self):
        s = Sample([1.0], [True], K)
        eff = mann_whitney_effect(s, s)
        assert_allclose(eff.p_hat, 0.5)
        assert_allclose(eff.w_hat, 1.0)

    def test_identical_samples_give_half(self):
        s = Sample([1.0, 2.0, 3.0], [True] * 3, K)
        assert_allclose(mann_whitney_effect(s, s).p_hat, 0.5, atol=1e-14)

    def test_mismatched_horizons_rejected(self):
        s1 = Sample([1.0], [True], 5.0)
        s2 = Sample([1.0], [True], 6.0)
        with pytest.raises(ValueError, match="incompatible horizons"):
            mann_whitney_effect(s1, s2)


class TestMidRankOracle:
    def test_uncensored_equivalence_tie_rich(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(250):
            s1 = _uncensored_tied(rng, int(rng.integers(1, 13)))
            s2 = _uncensored_tied(rng, int(rng.integers(1, 13)))
            est = mann_whitney_effect(s1, s2).p_hat
            oracle = uncensored_pairwise_oracle(s1, s2)
            worst = max(worst, abs(est - oracle))
        assert worst <= 1e-12

    def test_oracle_rejects_censoring(self):
        s1 = Sample([1.0, 2.0], [True, False], K)
        s2 = Sample([1.0], [True], K)
        with pytest.raises(ValueError, match="uncensored"):
            uncensored_pairwise_oracle(s1, s2)

    def test_oracle_hand_values(self):
        s1 = Sample([5.0, 6.0], [True, True], K)
        s2 = Sample([1.0], [True], K)
        assert uncensored_pairwise_oracle(s1, s2) == 1.0
        s3 = Sample([1.0, 2.0], [True, True], K)
        s4 = Sample([2.0, 3.0], [True, True], K)
        # wins: (1,?)=0, (2 vs 2)=0.5, (2 vs 3)=0 -> 0.5/4
        assert_allclose(uncensored_pairwise_oracle(s3, s4), 0.125)


class TestIntegrationByParts:
    def test_identity_when_one_curve_exhausts(self):
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(250):
            s1 = _censored(rng, int(rng.integers(2, 15)))
            s2 = _censored(rng, int(rng.integers(2, 15)), force_group_max_event=True)
            est = mann_whitney_effect(s1, s2).p_hat
            ibp = integration_by_parts_value(s1, s2)
            worst = max(worst, abs(est - ibp))
        assert worst <= 1e-10

    def test_unconditional_leftover_mass_relation(self):
        rng = np.random.default_rng(303)
        for _ in range(100):
            s1 = _censored(rng, int(rng.integers(2, 15)))
            s2 = _censored(rng, int(rng.integers(2, 15)))
            est = mann_whitney_effect(s1, s2).p_hat
            ibp = integration_by_parts_value(s1, s2)
            assert_allclose(ibp - est, _by_parts_gap(s1, s2), atol=1e-10)

    def test_leftover_mass_relation_with_jumps_at_k(self):
        # times at K, events and censorings alike, as the event policy makes
        # them: group 2's jump at K adds S1+-(K) dS2(K) to the difference
        rng = np.random.default_rng(606)
        jumps = 0
        for _ in range(200):
            s1 = _censored_at_k(rng, int(rng.integers(2, 15)))
            s2 = _censored_at_k(rng, int(rng.integers(2, 15)))
            f1 = kaplan_meier(s1).survival
            f2 = kaplan_meier(s2).survival
            jumps += (f1(K) + f1.left_limit(K)) * (f2(K) - f2.left_limit(K)) != 0.0
            est = mann_whitney_effect(s1, s2).p_hat
            ibp = integration_by_parts_value(s1, s2)
            assert_allclose(ibp - est, _by_parts_gap(s1, s2), atol=1e-10)
        assert jumps >= 100

    @pytest.mark.parametrize("s1, s2, gap", [
        # S1(K) = 0, yet the difference is S1(K-) S2(K-) / 2 = 1/8
        (Sample([2.0, 10.0], [True, True], K), Sample([3.0, 10.0], [True, False], K), 0.125),
        # both curves keep mass at K, and group 2's jump there cancels it
        (Sample([2.0, 4.0, 10.0], [True, True, False], K),
         Sample([3.0, 10.0, 10.0], [True, True, False], K), 0.0),
    ])
    def test_leftover_mass_relation_hand_cases(self, s1, s2, gap):
        est = mann_whitney_effect(s1, s2).p_hat
        assert_allclose(integration_by_parts_value(s1, s2) - est, gap, atol=1e-15)
        assert_allclose(_by_parts_gap(s1, s2), gap, atol=1e-15)

    def test_single_shared_event(self):
        s = Sample([1.0], [True], K)
        assert_allclose(integration_by_parts_value(s, s), 0.5)


class TestSymmetries:
    def test_complement_symmetry_on_exhausted_curves(self):
        rng = np.random.default_rng(404)
        for _ in range(100):
            s1 = _censored(rng, int(rng.integers(2, 15)), force_group_max_event=True)
            s2 = _censored(rng, int(rng.integers(2, 15)), force_group_max_event=True)
            p12 = mann_whitney_effect(s1, s2).p_hat
            p21 = mann_whitney_effect(s2, s1).p_hat
            assert_allclose(p12 + p21, 1.0, atol=1e-12)

    def test_scale_invariance_power_of_two(self):
        rng = np.random.default_rng(505)
        for c in (0.125, 4.0):
            for _ in range(30):
                s1 = _censored(rng, int(rng.integers(2, 12)))
                s2 = _censored(rng, int(rng.integers(2, 12)))
                t1 = Sample(s1.times * c, s1.events, K * c)
                t2 = Sample(s2.times * c, s2.events, K * c)
                assert mann_whitney_effect(t1, t2).p_hat == mann_whitney_effect(s1, s2).p_hat


class TestTongueValues:
    def test_point_estimates_censor_policy(self):
        s1, s2 = load_tongue()
        eff = mann_whitney_effect(s1, s2)
        assert_allclose(eff.p_hat, 0.6148359743413784, atol=1e-12)
        assert_allclose(eff.w_hat, 1.5962964695106792, atol=1e-12)
        assert (eff.n1, eff.n2) == (52, 28)

    def test_event_policy_adds_leftover_product(self):
        c1, c2 = load_tongue(beyond_horizon="censor")
        e1, e2 = load_tongue(beyond_horizon="event")
        p_censor = mann_whitney_effect(c1, c2).p_hat
        p_event = mann_whitney_effect(e1, e2).p_hat
        f1 = kaplan_meier(c1).survival
        f2 = kaplan_meier(c2).survival
        shift = 0.5 * f1.left_limit(200.0) * f2.left_limit(200.0)
        assert_allclose(p_event, p_censor + shift, atol=1e-12)
        assert_allclose(p_event, 0.6243728676349, atol=1e-10)

    def test_ibp_matches_leftover_relation_on_tongue(self):
        s1, s2 = load_tongue()
        ibp = integration_by_parts_value(s1, s2)
        assert_allclose(ibp, 0.6243728676349, atol=1e-10)
