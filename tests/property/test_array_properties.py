"""Property-based tests of the segment-reduction helpers (hypothesis).

The CSR-style segment reductions are the numerical core of the vectorized
backends; they are checked against straightforward Python-loop oracles on
arbitrary ragged structures, including empty segments and empty inputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.utils.arrays import (
    cumulative_within_segments,
    segment_lengths,
    segment_max,
    segment_sum,
)

values_arrays = npst.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=0, max_value=300),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def values_and_offsets(draw):
    values = draw(values_arrays)
    n = values.shape[0]
    n_cuts = draw(st.integers(min_value=0, max_value=8))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=n),
                                min_size=n_cuts, max_size=n_cuts)))
    offsets = np.array([0, *cuts, n], dtype=np.int64)
    return values, offsets


class TestSegmentSum:
    @given(values_and_offsets())
    @settings(max_examples=200, deadline=None)
    def test_matches_python_oracle(self, case):
        values, offsets = case
        result = segment_sum(values, offsets)
        expected = [values[a:b].sum() for a, b in zip(offsets[:-1], offsets[1:])]
        np.testing.assert_allclose(result, expected, rtol=1e-9, atol=1e-6)

    @given(values_and_offsets())
    @settings(max_examples=100, deadline=None)
    def test_total_preserved(self, case):
        values, offsets = case
        np.testing.assert_allclose(segment_sum(values, offsets).sum(), values.sum(),
                                   rtol=1e-9, atol=1e-6)


class TestSegmentMax:
    @given(values_and_offsets())
    @settings(max_examples=200, deadline=None)
    def test_matches_python_oracle(self, case):
        values, offsets = case
        result = segment_max(values, offsets, initial=-np.inf)
        expected = [values[a:b].max() if b > a else -np.inf
                    for a, b in zip(offsets[:-1], offsets[1:])]
        np.testing.assert_allclose(result, expected)


class TestCumulativeWithinSegments:
    @given(values_and_offsets())
    @settings(max_examples=200, deadline=None)
    def test_matches_python_oracle(self, case):
        values, offsets = case
        result = cumulative_within_segments(values, offsets)
        expected = np.concatenate(
            [np.cumsum(values[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]
        ) if values.size else np.zeros(0)
        # Trial-local: each segment rounds exactly like its own cumsum.
        np.testing.assert_array_equal(result, expected)

    @given(values_and_offsets())
    @settings(max_examples=100, deadline=None)
    def test_last_element_per_segment_equals_segment_sum(self, case):
        values, offsets = case
        cumulative = cumulative_within_segments(values, offsets)
        sums = segment_sum(values, offsets)
        for seg, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
            if b > a:
                np.testing.assert_allclose(cumulative[b - 1], sums[seg], rtol=1e-9, atol=1e-6)


class TestSegmentStructure:
    @given(values_and_offsets())
    @settings(max_examples=100, deadline=None)
    def test_lengths_consistent(self, case):
        values, offsets = case
        lengths = segment_lengths(offsets)
        assert lengths.shape[0] == offsets.shape[0] - 1
        assert (lengths >= 0).all()
        assert lengths.sum() == values.shape[0]
