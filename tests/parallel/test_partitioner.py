"""Tests for repro.parallel.partitioner."""

import pytest

from repro.parallel.partitioner import TrialRange, block_partition, shard_partition


class TestTrialRange:
    def test_size_and_iteration(self):
        r = TrialRange(3, 7)
        assert r.size == len(r) == 4
        assert list(r) == [3, 4, 5, 6]

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            TrialRange(5, 3)
        with pytest.raises(ValueError):
            TrialRange(-1, 3)


class TestBlockPartition:
    def test_covers_all_trials_exactly_once(self):
        blocks = block_partition(103, 8)
        covered = [i for block in blocks for i in block]
        assert covered == list(range(103))

    def test_block_count(self):
        assert len(block_partition(100, 7)) == 7

    def test_sizes_balanced(self):
        sizes = [block.size for block in block_partition(103, 8)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_blocks_than_trials_never_emits_empty_ranges(self):
        blocks = block_partition(3, 5)
        assert len(blocks) == 3
        assert all(block.size == 1 for block in blocks)
        assert [i for block in blocks for i in block] == [0, 1, 2]

    def test_zero_trials_yields_no_blocks(self):
        assert block_partition(0, 4) == []

    def test_single_trial_many_blocks(self):
        assert block_partition(1, 8) == [TrialRange(0, 1)]

    def test_blocks_equal_trials_boundary(self):
        blocks = block_partition(7, 7)
        assert len(blocks) == 7
        assert all(block.size == 1 for block in blocks)

    def test_never_emits_empty_ranges_across_boundaries(self):
        for n_trials in range(0, 9):
            for n_blocks in range(1, 12):
                blocks = block_partition(n_trials, n_blocks)
                assert all(block.size > 0 for block in blocks), (n_trials, n_blocks)
                assert sum(block.size for block in blocks) == n_trials

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            block_partition(-1, 2)
        with pytest.raises(ValueError):
            block_partition(10, 0)


class TestShardPartition:
    def test_covers_in_order_without_empties(self):
        shards = shard_partition(103, 8)
        assert len(shards) == 8
        assert [i for shard in shards for i in shard] == list(range(103))
        assert all(shard.size > 0 for shard in shards)

    def test_caps_at_trial_count(self):
        assert len(shard_partition(3, 100)) == 3

    def test_zero_trials(self):
        assert shard_partition(0, 4) == []

