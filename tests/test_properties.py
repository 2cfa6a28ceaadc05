"""Property tests on random tied, censored pairs.

Examples come from hypothesis with a derandomized search, so every run
checks the same pairs.  Times lie on a coarse integer grid, so ties
within and between groups are common, and a window end past the last
grid point lets a curve keep mass at k whenever its largest time is
censored, which switches the boundary atom on.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from survcmp.effect import mann_whitney_effect
from survcmp.simulate import ScenarioConfig, _generate, calibrate_censoring
from survcmp.survival import Sample, kaplan_meier
from survcmp.variance import _sigma2_jk, variance_from_fits

from oracles import cov_kernel, sigma2_jk

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def tied_censored_pairs(draw):
    k = draw(st.sampled_from([4.0, 7.5, 12.0]))
    samples = []
    for _ in range(2):
        n = draw(st.integers(1, 25))
        times = draw(st.lists(st.integers(1, int(k)), min_size=n, max_size=n))
        events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        samples.append(Sample(np.array(times, float), events, k))
    return tuple(samples)


def _oracle_variance(f1, f2):
    s12 = sigma2_jk(cov_kernel(f1), f2)
    s21 = sigma2_jk(cov_kernel(f2), f1, boundary=True)
    sigma2 = (f1.n * f2.n / (f1.n + f2.n)) * (s12 + s21)
    no_events = f1.counting.event_times.size == 0 or f2.counting.event_times.size == 0
    return sigma2, no_events or sigma2 <= 0.0


@PROPERTY
@given(tied_censored_pairs())
def test_tail_sums_equal_quadratic_form(pair):
    f1, f2 = (kaplan_meier(s) for s in pair)
    for fit_j, fit_k in ((f1, f2), (f2, f1)):
        for boundary in (False, True):
            fast = _sigma2_jk(fit_j, fit_k, boundary)
            slow = sigma2_jk(cov_kernel(fit_j), fit_k, boundary)
            assert abs(fast - slow) <= 1e-12 * slow


@PROPERTY
@given(tied_censored_pairs())
def test_degenerate_flag_agrees_with_oracle(pair):
    f1, f2 = (kaplan_meier(s) for s in pair)
    est = variance_from_fits(f1, f2)
    sigma2, degenerate = _oracle_variance(f1, f2)
    assert abs(est.sigma2 - sigma2) <= 1e-12 * sigma2
    assert est.degenerate == degenerate


@PROPERTY
@given(tied_censored_pairs())
def test_swap_identity(pair):
    s1, s2 = pair
    p12 = mann_whitney_effect(s1, s2).p_hat
    p21 = mann_whitney_effect(s2, s1).p_hat
    leftover = kaplan_meier(s1).survival(s1.k) * kaplan_meier(s2).survival(s2.k)
    assert abs(p12 + p21 - (1.0 - leftover)) <= 1e-12


def test_completely_separated_replication_is_degenerate():
    # setup 3, strong censoring, 15/15: group 1's first event (0.912) comes
    # after group 2's last observation (0.837), an event, so p_hat = 1 and
    # both variance terms vanish exactly
    config = ScenarioConfig(setup=3, censoring="strong", n1=15, n2=15,
                            reps=1, b=999, seed=(101 << 24) + 950)
    s1, s2, _ = _generate(config, calibrate_censoring(3, "strong"), 0)
    assert s1.times[s1.events].min() > s2.times.max()
    assert mann_whitney_effect(s1, s2).p_hat == 1.0
    f1, f2 = kaplan_meier(s1), kaplan_meier(s2)
    est = variance_from_fits(f1, f2)
    assert est.sigma2 == 0.0 == _oracle_variance(f1, f2)[0]
    assert est.degenerate and _oracle_variance(f1, f2)[1]
