"""Right-continuous step function: evaluation, left limits, jump masses."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from survcmp.stepfun import StepFunction


class TestEvaluation:
    def test_piecewise_values_and_right_continuity(self):
        f = StepFunction([1.0, 2.5], [0.6, 0.2], 1.0, 4.0)
        assert f(0.0) == 1.0
        assert f(0.999) == 1.0
        assert f(1.0) == 0.6
        assert f(1.7) == 0.6
        assert f(2.5) == 0.2
        assert f(4.0) == 0.2

    def test_left_limits_at_jumps(self):
        f = StepFunction([1.0, 2.5], [0.6, 0.2], 1.0, 4.0)
        assert f.left_limit(1.0) == 1.0
        assert f.left_limit(2.5) == 0.6
        assert f.left_limit(2.6) == 0.2
        assert f.left_limit(0.5) == 1.0

    def test_vectorized_evaluation_matches_scalar(self):
        f = StepFunction([0.5, 1.0, 3.0], [0.9, 0.4, 0.1], 1.0, 3.0)
        t = np.array([0.0, 0.5, 0.75, 1.0, 2.0, 3.0])
        assert_allclose(f(t), [f(float(x)) for x in t])
        assert_allclose(f.left_limit(t), [f.left_limit(float(x)) for x in t])

    def test_no_jumps_is_constant(self):
        f = StepFunction([], [], 0.7, 2.0)
        assert f(0.0) == 0.7
        assert f(2.0) == 0.7
        assert f.deltas.size == 0


class TestDeltas:
    def test_jump_sizes(self):
        f = StepFunction([1.0, 2.0], [0.5, 0.125], 1.0, 3.0)
        assert_allclose(f.deltas, [-0.5, -0.375])

    def test_deltas_sum_to_total_drop(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rng.integers(1, 9)
            times = np.sort(rng.uniform(0.1, 9.9, m))
            times = np.unique(times)
            vals = np.sort(rng.uniform(0, 1, times.size))[::-1]
            f = StepFunction(times, vals, 1.0, 10.0)
            assert_allclose(f.deltas.sum(), vals[-1] - 1.0, atol=1e-12)


class TestValidation:
    def test_rejects_unsorted_jumps(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            StepFunction([2.0, 1.0], [0.5, 0.2], 1.0, 3.0)

    def test_rejects_duplicate_jumps(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            StepFunction([1.0, 1.0], [0.5, 0.2], 1.0, 3.0)

    def test_rejects_jumps_outside_window(self):
        with pytest.raises(ValueError, match="lie in"):
            StepFunction([0.0, 1.0], [0.5, 0.2], 1.0, 3.0)
        with pytest.raises(ValueError, match="lie in"):
            StepFunction([1.0, 3.5], [0.5, 0.2], 1.0, 3.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            StepFunction([1.0, 2.0], [0.5], 1.0, 3.0)

    def test_arrays_are_read_only(self):
        f = StepFunction([1.0], [0.5], 1.0, 2.0)
        with pytest.raises(ValueError):
            f.jump_times[0] = 0.5

    def test_value_table_is_read_only_and_not_handed_out(self):
        f = StepFunction([1.0, 2.5], [0.6, 0.2], 1.0, 4.0)
        with pytest.raises(ValueError):
            f._padded[0] = 0.5
        out = f(np.array([0.5, 1.0]))
        out[0] = 0.0  # evaluations are copies of the table's entries
        assert f(0.5) == 1.0 and f.left_limit(1.0) == 1.0
