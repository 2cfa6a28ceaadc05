"""Property tests on random tied, censored pairs.

Examples come from hypothesis with a derandomized search, so every run
checks the same pairs.  Times lie on a coarse integer grid, so ties
within and between groups are common, and a window end past the last
grid point lets a curve keep mass at k whenever its largest time is
censored, which switches the boundary atom on.  The replicate engine is
checked bit for bit against the full-grid reference engine.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from survcmp._engine import (Workspace, batch_context, batch_statistics,
                             bootstrap_indices, permutation_indices)
from survcmp.effect import mann_whitney_effect
from survcmp.simulate import ScenarioConfig, _generate, calibrate_censoring
from survcmp.survival import Sample, counting_processes, kaplan_meier
from survcmp.variance import _sigma2_jk, variance_from_fits

from oracles import (cov_kernel, reference_batch_statistics, reference_counting_processes,
                     sigma2_jk)

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


@PROPERTY
@given(tied_censored_pairs())
def test_counting_processes_equal_unique_form_bitwise(pair):
    for sample in pair:
        got, want = counting_processes(sample), reference_counting_processes(sample)
        for name in ("event_times", "dn", "y"):
            a, b = getattr(got, name), getattr(want, name)
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
    est = variance_from_fits(f1, f2)
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
    return times, events, n1, n2, rows, seed


def _assert_same(got, want):
    assert np.array_equal(got[0], want[0], equal_nan=True)
    assert got[0].tobytes() == want[0].tobytes()  # also the signs of zeros
    assert np.array_equal(got[1], want[1])


@PROPERTY
@given(engine_pools())
def test_engine_bitwise_equals_full_grid_reference(case):
    times, events, n1, n2, rows, seed = case
    ctx = batch_context(times, events, n1, n2)
    rng = np.random.default_rng(seed)
    # one workspace for every call, so stale arrays from a full block
    # precede each smaller one
    work = Workspace(ctx)
    boot = bootstrap_indices(rng, 256, n1 + n2), bootstrap_indices(rng, rows, n1 + n2)
    perm = permutation_indices(rng, 256, n1 + n2), permutation_indices(rng, rows, n1 + n2)
    for idx in boot:
        want = reference_batch_statistics(ctx, idx)
        _assert_same(batch_statistics(ctx, idx, work=work), want)
        _assert_same(batch_statistics(ctx, idx), want)
    for idx in perm:
        want = reference_batch_statistics(ctx, idx)
        _assert_same(batch_statistics(ctx, idx, permutation=True, work=work), want)
        _assert_same(batch_statistics(ctx, idx), want)
