"""Covariance kernel and variance estimator: hand oracles and cross-checks."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from survcmp.datasets import load_tongue
from survcmp.inference import mann_whitney_effect
from survcmp.survival import Sample

from oracles import cov_kernel, kaplan_meier, normalized_kernel_value, sigma2_jk

K = 10.0


def _random_censored(rng, n, k=K):
    times = np.round(rng.uniform(0.5, k - 0.5, n), 2)
    events = rng.random(n) < 0.6
    if not events.any():
        events[0] = True
    return Sample(times, events, k)


def _brute_force_jk(kernel_j, fit_k, boundary=False):
    # direct double sum over the jump pairs of the integrating curve; with
    # boundary, the curve's leftover mass S_k(k) is one more atom just past k
    sf = fit_k.survival
    atoms = list(zip(sf.jump_times, sf.deltas))
    if boundary:
        atoms.append((np.nextafter(sf.k, np.inf), -sf(sf.k)))
    total = 0.0
    for u, du in atoms:
        for v, dv in atoms:
            total += normalized_kernel_value(kernel_j, u, v) * du * dv
    return total


def _greenwood_cov(fit):
    # Cov(S(t_a), S(t_b)) = S(t_a) S(t_b) sum_{s <= min} dN / (Y (Y - dN))
    # at the curve's jump times; a jump to zero adds nothing
    cp = fit.counting
    x = fit.survival.values
    gap = (cp.y - cp.dn) * cp.y
    h = np.cumsum(np.where(gap > 0, cp.dn / np.where(gap > 0, gap, 1), 0.0))
    idx = np.arange(x.size)
    return np.outer(x, x) * h[np.minimum.outer(idx, idx)]


def _delta_method(s1, s2):
    """Exact quadratic forms g_j' Cov(S_j) g_j, j = 1, 2.

    p_hat = sum_b S1^+-(t_b) (x_{b-1} - x_b) over group 2's jump times t_b
    with x_b = S2(t_b) and x_0 = 1, so p_hat is affine in the values of
    either curve at its own jump times; g_j is that gradient.
    """
    f1, f2 = kaplan_meier(s1), kaplan_meier(s2)
    t1, t2 = f1.survival.jump_times, f2.survival.jump_times
    mass2 = -f2.survival.deltas
    mid1 = f1.normalized(t2)
    g2 = np.append(mid1[1:], 0.0) - mid1
    # S1(t_b) and S1(t_b-) each carry half of group 2's mass at t_b
    g1 = np.zeros(t1.size)
    for side in ("right", "left"):
        slot = np.searchsorted(t1, t2, side=side) - 1
        keep = slot >= 0
        np.add.at(g1, slot[keep], 0.5 * mass2[keep])
    return g1 @ _greenwood_cov(f1) @ g1, g2 @ _greenwood_cov(f2) @ g2


def _random_tied_leftover(rng, n, k=K):
    # integer times (many ties) with the largest time censored, so the
    # curve keeps mass at the window end
    times = rng.integers(1, 8, n).astype(float)
    events = rng.random(n) < 0.6
    events[0] = True
    times[-1], events[-1] = 8.0, False
    return Sample(times, events, k)


class TestHandOracle:
    def setup_method(self):
        self.s1 = Sample([1.0, 2.0], [True, True], 3.0)
        self.s2 = Sample([1.5], [True], 3.0)

    def test_sigma2_12_quarter_product(self):
        kernel1 = cov_kernel(self.s1)
        fit2 = kaplan_meier(self.s2)
        assert_allclose(sigma2_jk(kernel1, fit2), 0.125, atol=1e-14)

    def test_sigma2_21_vanishes_single_jump(self):
        kernel2 = cov_kernel(self.s2)
        fit1 = kaplan_meier(self.s1)
        assert_allclose(sigma2_jk(kernel2, fit1), 0.0, atol=1e-14)

    def test_combined_scaling(self):
        est = mann_whitney_effect(self.s1, self.s2)
        assert_allclose(est.sigma2_12, 0.125, atol=1e-14)
        assert_allclose(est.sigma2_21, 0.0, atol=1e-14)
        # (n1 n2 / n) * 0.125 = (2/3) * 0.125
        assert_allclose(est.sigma2, 1.0 / 12.0, atol=1e-14)
        assert (est.n1, est.n2) == (2, 1)

    def test_normalized_kernel_point_value(self):
        kernel1 = cov_kernel(self.s1)
        assert_allclose(normalized_kernel_value(kernel1, 1.0, 1.0), 0.03125, atol=1e-14)


class TestBruteForceAgreement:
    def test_double_sum_matches_sigma2_jk(self):
        rng = np.random.default_rng(808)
        worst = 0.0
        leftover = 0
        for _ in range(40):
            s1 = _random_censored(rng, int(rng.integers(3, 20)))
            s2 = _random_censored(rng, int(rng.integers(3, 20)))
            k1, k2 = cov_kernel(s1), cov_kernel(s2)
            f1, f2 = kaplan_meier(s1), kaplan_meier(s2)
            leftover += f1.survival(K) > 0
            worst = max(worst, abs(sigma2_jk(k1, f2) - _brute_force_jk(k1, f2)))
            worst = max(worst, abs(sigma2_jk(k2, f1) - _brute_force_jk(k2, f1)))
            worst = max(worst, abs(sigma2_jk(k2, f1, boundary=True)
                                   - _brute_force_jk(k2, f1, boundary=True)))
            est = mann_whitney_effect(s1, s2)
            worst = max(worst, abs(est.sigma2_12 - _brute_force_jk(k1, f2)))
            worst = max(worst, abs(est.sigma2_21 - _brute_force_jk(k2, f1, boundary=True)))
        assert leftover >= 10
        assert worst <= 1e-12

    def test_kernel_symmetric_in_arguments(self):
        rng = np.random.default_rng(909)
        s = _random_censored(rng, 12)
        kern = cov_kernel(s)
        pts = rng.uniform(0.5, 9.5, 8)
        for u in pts:
            for v in pts:
                assert_allclose(
                    normalized_kernel_value(kern, u, v),
                    normalized_kernel_value(kern, v, u),
                    atol=1e-14,
                )


class TestDeltaMethodOracle:
    def test_matches_exact_quadratic_form(self):
        rng = np.random.default_rng(303)
        worst = 0.0
        for _ in range(200):
            s1 = _random_tied_leftover(rng, int(rng.integers(2, 25)))
            s2 = _random_censored(rng, int(rng.integers(2, 25)))
            assert kaplan_meier(s1).survival(K) > 0
            est = mann_whitney_effect(s1, s2)
            q12, q21 = _delta_method(s1, s2)
            worst = max(worst, abs(est.sigma2_12 - q12), abs(est.sigma2_21 - q21))
        assert worst <= 1e-12

    def test_boundary_term_matters_only_with_leftover_mass(self):
        rng = np.random.default_rng(304)
        s1 = _random_tied_leftover(rng, 15)
        s2 = _random_censored(rng, 15)
        f1 = kaplan_meier(s1)
        k2 = cov_kernel(s2)
        assert sigma2_jk(k2, f1, boundary=True) > sigma2_jk(k2, f1)
        exhausted = Sample(s1.times, np.ones(s1.n, bool), K)
        f1x = kaplan_meier(exhausted)
        assert f1x.survival(K) == 0.0
        assert_allclose(sigma2_jk(k2, f1x, boundary=True), sigma2_jk(k2, f1x),
                        rtol=1e-14)


class TestDegeneracy:
    def test_group_without_events_flagged(self):
        # group 1 has no events; the boundary atom S1(k) = 1 still gives
        # the group-2 term weight, so sigma2 > 0 but the flag must be set
        s1 = Sample([1.0, 2.0], [False, False], K)
        s2 = Sample([1.5, 2.5, 3.0], [True, True, False], K)
        est = mann_whitney_effect(s1, s2)
        assert est.sigma2 > 0.0
        assert est.degenerate
        assert mann_whitney_effect(s2, s1).degenerate
        assert not mann_whitney_effect(s2, s2).degenerate


class TestProperties:
    def test_nonnegative_components(self):
        rng = np.random.default_rng(111)
        for _ in range(60):
            s1 = _random_censored(rng, int(rng.integers(3, 25)))
            s2 = _random_censored(rng, int(rng.integers(3, 25)))
            est = mann_whitney_effect(s1, s2)
            assert est.sigma2_12 >= -1e-14
            assert est.sigma2_21 >= -1e-14
            assert est.sigma2 >= -1e-14

    def test_variance_shrinks_with_sample_size(self):
        # implied variance of p_hat should drop roughly like 1/n
        rng = np.random.default_rng(222)
        t1 = rng.exponential(2.0, 400)
        t2 = rng.exponential(3.0, 400)

        def implied(m):
            s1 = Sample(np.minimum(t1[:m], K), t1[:m] <= K, K)
            s2 = Sample(np.minimum(t2[:m], K), t2[:m] <= K, K)
            est = mann_whitney_effect(s1, s2)
            n = est.n1 + est.n2
            return est.sigma2 / n

        v_small, v_big = implied(50), implied(400)
        assert v_big < v_small

    def test_mismatched_horizons_rejected(self):
        s1 = Sample([1.0], [True], 5.0)
        s2 = Sample([1.0], [True], 6.0)
        with pytest.raises(ValueError, match="incompatible horizons"):
            mann_whitney_effect(s1, s2)


class TestTongueValues:
    def test_component_values_frozen(self):
        s1, s2 = load_tongue()
        est = mann_whitney_effect(s1, s2)
        assert_allclose(est.sigma2_12, 0.0014570610156, atol=1e-10)
        assert_allclose(est.sigma2_21, 0.0035265492103, atol=1e-10)
        n1, n2 = est.n1, est.n2
        scale = n1 * n2 / (n1 + n2)
        assert_allclose(est.sigma2, scale * (est.sigma2_12 + est.sigma2_21), atol=1e-14)
        assert_allclose(np.sqrt(est.sigma2), 0.301167239438066, atol=1e-12)

    def test_components_match_delta_method(self):
        s1, s2 = load_tongue()
        assert kaplan_meier(s1).survival(s1.k) > 0
        est = mann_whitney_effect(s1, s2)
        q12, q21 = _delta_method(s1, s2)
        assert_allclose(est.sigma2_12, q12, atol=1e-12)
        assert_allclose(est.sigma2_21, q21, atol=1e-12)
