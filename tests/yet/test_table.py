"""Tests for repro.yet.table (the Year Event Table container)."""

import copy
import pickle

import numpy as np
import pytest

from repro.yet.table import YearEventTable


def make_yet() -> YearEventTable:
    return YearEventTable.from_trials(
        trials=[[1, 2, 3], [4], [], [5, 6]],
        catalog_size=10,
        timestamps=[[0.1, 0.2, 0.3], [0.5], [], [0.4, 0.9]],
    )


class TestConstruction:
    def test_shape_accessors(self):
        yet = make_yet()
        assert yet.n_trials == 4
        assert yet.n_occurrences == 6
        np.testing.assert_array_equal(yet.events_per_trial, [3, 1, 0, 2])
        assert yet.mean_events_per_trial == pytest.approx(1.5)

    def test_event_ids_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            YearEventTable.from_trials([[11]], catalog_size=10)

    def test_offsets_validated(self):
        with pytest.raises(ValueError):
            YearEventTable(np.array([1, 2]), np.array([0, 1]), catalog_size=10)

    def test_timestamp_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            YearEventTable(np.array([1, 2]), np.array([0, 2]), 10, timestamps=np.array([0.1]))

    def test_timestamps_range_checked(self):
        with pytest.raises(ValueError):
            YearEventTable(np.array([1]), np.array([0, 1]), 10, timestamps=np.array([1.5]))

    def test_from_trials_timestamp_length_mismatch(self):
        with pytest.raises(ValueError):
            YearEventTable.from_trials([[1, 2]], 10, timestamps=[[0.1]])


class TestTrialAccess:
    def test_trial_views(self):
        yet = make_yet()
        np.testing.assert_array_equal(yet.trial(0), [1, 2, 3])
        np.testing.assert_array_equal(yet.trial(2), [])
        np.testing.assert_array_equal(yet.trial(3), [5, 6])

    def test_trial_timestamps(self):
        yet = make_yet()
        np.testing.assert_allclose(yet.timestamps[yet.trial_offsets[3]:], [0.4, 0.9])

    def test_trial_out_of_range(self):
        with pytest.raises(IndexError):
            make_yet().trial(4)

    def test_trial_window_rebases_offsets(self):
        event_ids, offsets = make_yet().trial_window(1, 4)
        np.testing.assert_array_equal(event_ids, [4, 5, 6])
        np.testing.assert_array_equal(offsets, [0, 1, 1, 3])

    def test_trial_window_is_a_view(self):
        yet = make_yet()
        event_ids, _ = yet.trial_window(0, 2)
        assert np.shares_memory(event_ids, yet.event_ids)

    @pytest.mark.parametrize("start, stop", [(-1, 2), (3, 2), (0, 5)])
    def test_trial_window_out_of_range(self, start, stop):
        with pytest.raises(IndexError, match="invalid trial window"):
            make_yet().trial_window(start, stop)


class TestSlicing:
    def test_slice_trials_preserves_content(self):
        yet = make_yet()
        sliced = yet.slice_trials(1, 4)
        assert sliced.n_trials == 3
        np.testing.assert_array_equal(sliced.trial(0), yet.trial(1))
        np.testing.assert_array_equal(sliced.trial(2), yet.trial(3))

    def test_slice_trials_timestamps(self):
        sliced = make_yet().slice_trials(3, 4)
        np.testing.assert_allclose(sliced.timestamps, [0.4, 0.9])

    def test_slice_invalid_range(self):
        with pytest.raises(IndexError):
            make_yet().slice_trials(2, 8)

    def test_memory_bytes_positive(self):
        assert make_yet().memory_bytes > 0


class TestDigest:
    def test_digest_and_prefixes_are_stored(self):
        yet = make_yet()
        assert yet.digest is yet.digest
        assert yet.prefix_digest(2) is yet.prefix_digest(2)
        assert yet.prefix_digest(2) == yet.slice_trials(0, 2).digest
        assert yet.prefix_digest(yet.n_trials) == yet.digest

    @pytest.mark.parametrize("timestamps", [True, False])
    @pytest.mark.parametrize("restore", [
        lambda yet: pickle.loads(pickle.dumps(yet)),
        copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_restored_table_is_read_only_and_rehashes(self, restore, timestamps):
        yet = make_yet()
        if not timestamps:
            yet = YearEventTable(yet.event_ids, yet.trial_offsets, yet.catalog_size)
        digest, prefix = yet.digest, yet.prefix_digest(2)
        clone = restore(yet)
        assert not {"_digest", "_digest_prefixes"} & set(clone.__dict__)
        columns = [clone.event_ids, clone.trial_offsets]
        if timestamps:
            columns.append(clone.timestamps)
        else:
            assert clone.timestamps is None
        assert not any(column.flags.writeable for column in columns)
        assert clone.digest == digest and clone.prefix_digest(2) == prefix
