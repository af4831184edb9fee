"""Tests for repro.utils.arrays (segment reductions used by the engine)."""

import numpy as np
import pytest

from repro.utils.arrays import (
    as_float_array,
    as_int_array,
    cumulative_within_segments,
    segment_ids_from_offsets,
    segment_lengths,
    segment_max,
    segment_max_2d,
    segment_sum,
    segment_sum_2d,
    validate_offsets,
)


class TestConversions:
    def test_as_float_array_copies_lists(self):
        arr = as_float_array([1, 2, 3])
        assert arr.dtype == np.float64
        np.testing.assert_array_equal(arr, [1.0, 2.0, 3.0])

    def test_as_float_array_rejects_2d(self):
        with pytest.raises(ValueError):
            as_float_array(np.zeros((2, 2)))

    def test_as_int_array_accepts_integral_floats(self):
        arr = as_int_array(np.array([1.0, 2.0]))
        assert arr.dtype == np.int64

    def test_as_int_array_rejects_fractional(self):
        with pytest.raises(ValueError):
            as_int_array(np.array([1.5]))


class TestValidateOffsets:
    def test_valid_offsets_pass(self):
        offsets = validate_offsets(np.array([0, 2, 5]), total=5)
        np.testing.assert_array_equal(offsets, [0, 2, 5])

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            validate_offsets(np.array([1, 5]), total=5)

    def test_must_end_at_total(self):
        with pytest.raises(ValueError):
            validate_offsets(np.array([0, 4]), total=5)

    def test_must_be_non_decreasing(self):
        with pytest.raises(ValueError):
            validate_offsets(np.array([0, 3, 2, 5]), total=5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate_offsets(np.array([], dtype=np.int64), total=0)


class TestSegmentReductions:
    def test_segment_lengths(self):
        np.testing.assert_array_equal(segment_lengths(np.array([0, 2, 2, 5])), [2, 0, 3])

    def test_segment_ids(self):
        np.testing.assert_array_equal(
            segment_ids_from_offsets(np.array([0, 2, 5])), [0, 0, 1, 1, 1]
        )

    def test_segment_sum_basic(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        result = segment_sum(values, np.array([0, 2, 5]))
        np.testing.assert_allclose(result, [3.0, 12.0])

    def test_segment_sum_empty_segments(self):
        values = np.array([1.0, 2.0])
        result = segment_sum(values, np.array([0, 0, 2, 2]))
        np.testing.assert_allclose(result, [0.0, 3.0, 0.0])

    def test_segment_sum_all_empty(self):
        result = segment_sum(np.zeros(0), np.array([0, 0, 0]))
        np.testing.assert_allclose(result, [0.0, 0.0])

    def test_segment_max_basic(self):
        values = np.array([1.0, 5.0, 2.0, 4.0])
        result = segment_max(values, np.array([0, 2, 4]))
        np.testing.assert_allclose(result, [5.0, 4.0])

    def test_segment_max_empty_segment_uses_initial(self):
        values = np.array([1.0])
        result = segment_max(values, np.array([0, 0, 1]), initial=0.0)
        np.testing.assert_allclose(result, [0.0, 1.0])

    def test_segment_max_matches_python_loop(self):
        rng = np.random.default_rng(0)
        values = rng.random(50)
        offsets = np.array([0, 7, 7, 20, 33, 50])
        expected = [
            values[a:b].max() if b > a else 0.0
            for a, b in zip(offsets[:-1], offsets[1:])
        ]
        np.testing.assert_allclose(segment_max(values, offsets), expected)

    def test_cumulative_within_segments(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        result = cumulative_within_segments(values, np.array([0, 2, 4]))
        np.testing.assert_allclose(result, [1.0, 3.0, 3.0, 7.0])

    def test_cumulative_within_segments_restarts(self):
        values = np.ones(6)
        result = cumulative_within_segments(values, np.array([0, 3, 6]))
        np.testing.assert_allclose(result, [1, 2, 3, 1, 2, 3])

    def test_cumulative_empty_input(self):
        result = cumulative_within_segments(np.zeros(0), np.array([0, 0]))
        assert result.size == 0

    def test_segment_sum_matches_numpy_split(self):
        rng = np.random.default_rng(1)
        values = rng.random(100)
        cuts = np.sort(rng.integers(0, 100, size=9))
        offsets = np.concatenate(([0], cuts, [100]))
        expected = [chunk.sum() for chunk in np.split(values, offsets[1:-1])]
        np.testing.assert_allclose(segment_sum(values, offsets), expected)


class TestSegmentReductions2D:
    def test_segment_sum_2d_matches_rowwise_1d(self):
        rng = np.random.default_rng(5)
        matrix = rng.random((4, 60))
        offsets = np.array([0, 10, 10, 25, 60])
        result = segment_sum_2d(matrix, offsets)
        assert result.shape == (4, 4)
        for row in range(4):
            np.testing.assert_array_equal(result[row], segment_sum(matrix[row], offsets))

    def test_segment_max_2d_matches_rowwise_1d(self):
        rng = np.random.default_rng(6)
        matrix = rng.random((3, 40))
        offsets = np.array([0, 0, 13, 13, 40])
        result = segment_max_2d(matrix, offsets)
        assert result.shape == (3, 4)
        for row in range(3):
            np.testing.assert_array_equal(result[row], segment_max(matrix[row], offsets))

    def test_empty_segments_and_empty_matrix(self):
        empty = np.zeros((2, 0))
        offsets = np.array([0, 0, 0])
        np.testing.assert_array_equal(segment_sum_2d(empty, offsets), np.zeros((2, 2)))
        np.testing.assert_array_equal(
            segment_max_2d(empty, offsets, initial=-1.0), np.full((2, 2), -1.0)
        )

    def test_rejects_non_2d_input(self):
        with pytest.raises(ValueError):
            segment_sum_2d(np.zeros(5), np.array([0, 5]))
        with pytest.raises(ValueError):
            segment_max_2d(np.zeros((2, 2, 2)), np.array([0, 2]))


class TestSegmentMaxTrialLocality:
    """Boundary/empty-segment regressions for the max variants.

    PR 5 restricted the *sum* variants' ``reduceat`` to non-empty segments
    (raw ``reduceat`` mishandles empty ones: it returns the *next* element
    instead of the identity, leaking a neighbouring trial's value across the
    boundary).  The max variants use the same restriction; these tests pin
    the behaviours shard-merge bit-identity depends on, mirroring the sum
    variants' coverage.
    """

    def test_empty_segment_does_not_steal_next_segments_value(self):
        # Raw np.maximum.reduceat over offsets [0, 2, 2, 5] would report the
        # empty middle segment as values[2] — the *next* trial's first event.
        values = np.array([1.0, 2.0, 99.0, 3.0, 4.0])
        offsets = np.array([0, 2, 2, 5])
        np.testing.assert_array_equal(
            segment_max(values, offsets), np.array([2.0, 0.0, 99.0])
        )

    def test_leading_and_trailing_empty_segments(self):
        # A trailing empty segment's start index equals len(values) — raw
        # reduceat would raise; the restriction must skip it cleanly.
        values = np.array([5.0, 1.0])
        offsets = np.array([0, 0, 2, 2, 2])
        np.testing.assert_array_equal(
            segment_max(values, offsets, initial=-1.0),
            np.array([-1.0, 5.0, -1.0, -1.0]),
        )

    def test_initial_clamps_segments_below_it(self):
        # numpy applies maximum(maxima, initial) to non-empty segments too:
        # a trial whose occurrence losses are all below `initial` reports
        # `initial` (for the OEP curve: no occurrence loss is negative).
        values = np.array([-3.0, -1.0, 2.0])
        offsets = np.array([0, 2, 3])
        np.testing.assert_array_equal(
            segment_max(values, offsets), np.array([0.0, 2.0])
        )

    @pytest.mark.parametrize("cut", [0, 1, 3, 5, 6])
    def test_shard_merge_bit_identical_1d(self, cut):
        # Trial locality: splitting the flattened values at any trial
        # boundary and reducing the halves independently reproduces the
        # monolithic reduction bit for bit.
        rng = np.random.default_rng(11)
        lengths = np.array([3, 0, 7, 1, 0, 129])
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        values = rng.normal(size=offsets[-1]) * 100
        whole = segment_max(values, offsets)

        left = offsets[: cut + 1]
        right = offsets[cut:] - offsets[cut]
        merged = np.concatenate(
            [
                segment_max(values[: offsets[cut]], left),
                segment_max(values[offsets[cut] :], right),
            ]
        )
        np.testing.assert_array_equal(whole, merged)

    @pytest.mark.parametrize("cut", [0, 2, 4])
    def test_shard_merge_bit_identical_2d(self, cut):
        rng = np.random.default_rng(12)
        lengths = np.array([0, 8, 127, 2])
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        matrix = rng.normal(size=(3, offsets[-1])) * 100
        whole = segment_max_2d(matrix, offsets)

        left = offsets[: cut + 1]
        right = offsets[cut:] - offsets[cut]
        merged = np.concatenate(
            [
                segment_max_2d(matrix[:, : offsets[cut]], left),
                segment_max_2d(matrix[:, offsets[cut] :], right),
            ],
            axis=1,
        )
        np.testing.assert_array_equal(whole, merged)


class TestReduceatIsStrideIndependent:
    """Pin of the NumPy behaviour the row-major fused gather rests on.

    The fused kernels used to reduce an event-major scratch
    (``stack[:, ids]``, strides ``(8, 8 * n_rows)``) and now reduce a
    C-contiguous one (``np.take``).  Year losses stay bit-identical only
    because ``reduceat`` along axis 1 reduces each row's segment in the same
    order for either layout; if a NumPy release ever vectorises one layout
    differently this fails before a quote changes.
    """

    @pytest.mark.parametrize("n_rows", [2, 8, 17])
    def test_c_contiguous_and_event_major_reduce_to_identical_bytes(self, n_rows):
        rng = np.random.default_rng([n_rows, 0xADD])
        # Segment lengths crossing the 8-wide unroll and the 128-element
        # pairwise block, in shuffled order.
        lengths = np.array([1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 400, 3])
        rng.shuffle(lengths)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        n = int(lengths.sum())
        # Adversarial for summation order: 16 decades, mixed signs, so any
        # reassociation changes the rounded result.
        values = rng.choice([-1.0, 1.0], size=(n_rows, n)) * 10.0 ** rng.uniform(-8, 8, (n_rows, n))
        row_major = np.ascontiguousarray(values)
        event_major = np.asfortranarray(values)
        assert row_major.strides == (8 * n, 8) and event_major.strides == (8, 8 * n_rows)
        for ufunc in (np.add, np.maximum):
            a = ufunc.reduceat(row_major, starts, axis=1)
            b = ufunc.reduceat(event_major, starts, axis=1)
            assert a.tobytes() == np.ascontiguousarray(b).tobytes()
        # ... and through the library's wrappers, ragged offsets included.
        offsets = np.concatenate(([0, 0], np.cumsum(lengths), [n]))
        assert (segment_sum_2d(row_major, offsets).tobytes()
                == segment_sum_2d(event_major, offsets).tobytes())
        assert (segment_max_2d(row_major, offsets).tobytes()
                == segment_max_2d(event_major, offsets).tobytes())
