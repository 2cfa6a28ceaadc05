"""Deterministic stream derivation, block partitioning and the fan-out."""

import multiprocessing
import os

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from survcmp.rng import BLOCK, DATA_TAG, SCHEME_IDS, blocks, derive_seed, fan_out, stream


class TestStream:
    def test_same_path_same_draws(self):
        a = stream(7, 2, 5).integers(0, 2**32, 16)
        b = stream(7, 2, 5).integers(0, 2**32, 16)
        assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        base = stream(7, 2, 5).integers(0, 2**32, 16)
        for path in ((7, 2, 6), (7, 3, 5), (8, 2, 5), (7, 2), (7, 2, 5, 0)):
            other = stream(path[0], *path[1:]).integers(0, 2**32, 16)
            assert not np.array_equal(base, other)

    def test_regression_anchor(self):
        # frozen draws pin the generator family and path mapping
        got = stream(0, 1, 0).integers(0, 2**63, 4)
        assert_array_equal(
            got,
            [
                8073290213242800607,
                7572087529984220081,
                5871776426136099081,
                3438508842021282801,
            ],
        )

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must fit in 64 unsigned bits"):
            stream(-1, 0)

    def test_seed_beyond_64_bits_rejected(self):
        stream(2**64 - 1, 1)
        for seed in (2**64, 2**70):
            with pytest.raises(ValueError, match="seed must fit in 64 unsigned bits"):
                stream(seed, 1)

    def test_scheme_tags_distinct(self):
        assert SCHEME_IDS["bootstrap"] != SCHEME_IDS["permutation"]
        assert DATA_TAG not in SCHEME_IDS.values()


class TestBlocks:
    def test_partition_of_600(self):
        assert blocks(600) == [(0, 256), (1, 256), (2, 88)]

    def test_exact_multiple(self):
        assert blocks(2 * BLOCK) == [(0, BLOCK), (1, BLOCK)]

    def test_single_replicate(self):
        assert blocks(1) == [(0, 1)]

    def test_sizes_sum(self):
        for b in (1, 5, 255, 256, 257, 1999, 9999):
            parts = blocks(b)
            assert sum(size for _, size in parts) == b
            assert [i for i, _ in parts] == list(range(len(parts)))
            assert all(0 < size <= BLOCK for _, size in parts)


def _in_process(tag, run):
    # module-level, so a worker process can unpickle it
    return os.getpid(), tag, list(run)


class TestFanOut:
    def test_one_run_inline_several_in_processes(self):
        [(pid, tag, run)] = fan_out(_in_process, range(5), 1, "x")
        assert (pid, tag, run) == (os.getpid(), "x", [0, 1, 2, 3, 4])
        got = fan_out(_in_process, range(5), 2, "x")
        assert [(tag, run) for _, tag, run in got] == [("x", [0, 1, 2]), ("x", [3, 4])]
        # a worker that is free first may take both runs
        assert os.getpid() not in {pid for pid, _, _ in got}
        assert multiprocessing.active_children() == []

    def test_at_most_one_run_per_unit(self):
        assert fan_out(list, range(3), 8) == [[0], [1], [2]]


class TestDeriveSeed:
    def test_range_and_determinism(self):
        vals = []
        for _ in range(50):
            g = stream(3, 9, len(vals))
            s = derive_seed(g)
            assert 0 <= s < 2**63
            vals.append(s)
        assert len(set(vals)) == len(vals)
        again = derive_seed(stream(3, 9, 0))
        assert again == vals[0]

    def test_consumes_generator_state(self):
        g = stream(11, 4)
        first = derive_seed(g)
        second = derive_seed(g)
        assert first != second
