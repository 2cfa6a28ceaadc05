"""Right-continuous step functions on a bounded time window."""

from __future__ import annotations

import numpy as np

__all__ = ["StepFunction"]


class StepFunction:
    """Right-continuous piecewise-constant function on [0, k].

    The function equals ``initial_value`` on [0, t_1) and ``values[i]`` on
    [t_i, t_{i+1}), where t_1 < t_2 < ... are the jump times.  Evaluation
    uses binary search with exact time comparison, so times that are equal
    as floats hit the same piece.

    Parameters
    ----------
    jump_times : array_like
        Strictly increasing jump locations, all in (0, k].
    values : array_like
        Function value on and after each jump time.  Same length as
        ``jump_times``.
    initial_value : float
        Value on [0, t_1).
    k : float
        Right end of the time window.
    """

    __slots__ = ("jump_times", "values", "initial_value", "k", "_padded")

    def __init__(self, jump_times, values, initial_value, k):
        jump_times = np.asarray(jump_times, dtype=float)
        values = np.asarray(values, dtype=float)
        if jump_times.ndim != 1 or values.shape != jump_times.shape:
            raise ValueError("jump_times and values must be 1-d arrays of equal length")
        if jump_times.size and np.any(np.diff(jump_times) <= 0):
            raise ValueError("jump times must be strictly increasing")
        if jump_times.size and (jump_times[0] <= 0 or jump_times[-1] > k):
            raise ValueError("jump times must lie in (0, k]")
        self.jump_times = jump_times
        self.values = values
        self.initial_value = float(initial_value)
        self.k = float(k)
        # value on each piece: the initial value, then one per jump
        self._padded = np.concatenate(([self.initial_value], values))
        for arr in (jump_times, values, self._padded):
            arr.setflags(write=False)

    def __call__(self, t):
        """Evaluate at t (scalar or array), right-continuously."""
        out = self._padded[np.searchsorted(self.jump_times, t, side="right")]
        return float(out) if np.isscalar(t) else out

    def left_limit(self, t):
        """Value just before t, i.e. lim_{s -> t-} f(s)."""
        out = self._padded[np.searchsorted(self.jump_times, t, side="left")]
        return float(out) if np.isscalar(t) else out

    @property
    def deltas(self):
        """Jump sizes f(t_i) - f(t_i-), one per jump time."""
        return np.diff(self._padded)

    def __repr__(self):
        return (
            f"StepFunction({self.jump_times.size} jumps on (0, {self.k}], "
            f"initial={self.initial_value})"
        )
