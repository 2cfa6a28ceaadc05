"""Property tests on random tied, censored pairs.

Examples come from hypothesis with a derandomized search, so every run
checks the same pairs.  Times lie on a coarse integer grid, so ties
within and between groups are common, and a window end past the last
grid point lets a curve keep mass at k whenever its largest time is
censored, which switches the boundary atom on.  The replicate engine is
checked bit for bit against the full-grid reference engine, and its
observed row against the O(m^2) quadratic form.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from survcmp._engine import (batch_context, batch_statistics, bootstrap_indices,
                             permutation_indices)
from survcmp.inference import analyze, mann_whitney_effect
from survcmp.simulate import ScenarioConfig, _generate, calibrate_censoring
from survcmp.survival import Sample, km_curve

from oracles import (assert_same_context, cov_kernel, kaplan_meier, reference_batch_context,
                     reference_batch_statistics, sigma2_jk)

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
    # the engine's observed row against the O(m^2) oracle, both group orders
    for s1, s2 in (pair, pair[::-1]):
        est = mann_whitney_effect(s1, s2)
        f1, f2 = kaplan_meier(s1), kaplan_meier(s2)
        for fast, slow in ((est.sigma2_12, sigma2_jk(cov_kernel(f1), f2)),
                           (est.sigma2_21, sigma2_jk(cov_kernel(f2), f1, boundary=True))):
            assert abs(fast - slow) <= 1e-12 * slow


@PROPERTY
@given(tied_censored_pairs())
def test_degenerate_flag_agrees_with_oracle(pair):
    f1, f2 = (kaplan_meier(s) for s in pair)
    est = mann_whitney_effect(*pair)
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


MONOTONE_MAPS = {
    "affine": lambda t, a: a * t + a,
    "power": lambda t, a: t ** (1.0 + a),
    "log1p": lambda t, a: np.log1p(a * t),
    "exp": lambda t, a: np.exp(t / (1.0 + a)),
}


@PROPERTY
@given(tied_censored_pairs(), st.sampled_from(sorted(MONOTONE_MAPS)),
       st.floats(0.01, 10.0))
def test_invariant_under_increasing_time_maps(pair, name, a):
    # only order and ties enter the estimator, so a strictly increasing map
    # of the times, applied to k too, changes no bit
    s1, s2 = pair
    k = s1.k
    before = np.concatenate([s1.times, s2.times, [k]])
    after = MONOTONE_MAPS[name](before, a)
    # keep maps that keep every order and tie in floating point
    assume(np.array_equal(np.unique(before, return_inverse=True)[1],
                          np.unique(after, return_inverse=True)[1]))
    t1, t2, k2 = np.split(after, [s1.n, s1.n + s2.n])
    m1, m2 = Sample(t1, s1.events, k2[0]), Sample(t2, s2.events, k2[0])
    want, got = mann_whitney_effect(s1, s2), mann_whitney_effect(m1, m2)
    pairs = [(want.p_hat, got.p_hat), (want.sigma2_12, got.sigma2_12),
             (want.sigma2_21, got.sigma2_21)]
    assert want.degenerate == got.degenerate
    if not want.degenerate:  # T has no value otherwise
        [t], [u] = (analyze(*pair, methods=("asymptotic",)) for pair in ((s1, s2), (m1, m2)))
        pairs.append((t.statistic, u.statistic))
    for x, y in pairs:
        assert np.float64(x).tobytes() == np.float64(y).tobytes()


@PROPERTY
@given(tied_censored_pairs())
def test_km_curve_equals_oracle_kaplan_meier_bitwise(pair):
    for sample in pair:
        times, surv = km_curve(sample)
        want = kaplan_meier(sample).survival
        for a, b in ((times, want.jump_times), (surv, want.values)):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


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
    est = mann_whitney_effect(s1, s2)
    assert est.sigma2 == 0.0 == _oracle_variance(f1, f2)[0]
    assert est.degenerate and _oracle_variance(f1, f2)[1]


@st.composite
def engine_pools(draw):
    """Tied, censored pools, some with leftover mass at k, some with
    censored times before the first event, some with a single event."""
    k = draw(st.sampled_from([4.0, 7.5, 12.0]))
    n1, n2 = draw(st.integers(1, 25)), draw(st.integers(1, 25))
    n = n1 + n2
    times = np.array(draw(st.lists(st.integers(1, int(k)), min_size=n, max_size=n)), float)
    events = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if draw(st.booleans()):  # a censored time before every event
        times[draw(st.integers(0, n - 1))] = 0.5
        events[times == 0.5] = False
    if draw(st.booleans()):  # the largest time censored: mass left at k
        events[times == times.max()] = False
    if draw(st.booleans()):  # one event only: many replicate groups have none
        events[:] = False
        events[draw(st.integers(0, n - 1))] = True
    rows = draw(st.sampled_from([1, 7, 256]))
    seed = draw(st.integers(0, 2**32 - 1))
    return times, events, n1, n2, k, rows, seed


def _assert_same(got, want):
    # every component, also the signs of zeros
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@PROPERTY
@given(engine_pools())
def test_engine_bitwise_equals_full_grid_reference(case):
    times, events, n1, n2, k, rows, seed = case
    z = batch_context(times, events, n1, n2, k)
    assert_same_context(z, reference_batch_context(times, events, n1, n2, k))
    rng = np.random.default_rng(seed)
    # the thread's one workspace serves every call, so stale arrays from a
    # full block precede each smaller one
    boot = bootstrap_indices(rng, 256, n1 + n2), bootstrap_indices(rng, rows, n1 + n2)
    perm = permutation_indices(rng, 256, n1 + n2), permutation_indices(rng, rows, n1 + n2)
    for idx in boot:
        _assert_same(batch_statistics(z, idx), reference_batch_statistics(z, idx))
    for idx in perm:
        _assert_same(batch_statistics(z, idx, permutation=True),
                     reference_batch_statistics(z, idx))
