"""Property tests: the batched risk-metrics kernel equals the scalar helpers.

The oracle for every row is assembled from the public single-value API —
:func:`aal`, :func:`pml`, :func:`tvar`, ``std(ddof=1)`` and ``max`` on that row
alone — and every field of every :class:`RiskMetrics` must be ``==`` it, not
merely close: the quote, rollup, sweep and uncertainty paths all price through
the batch kernel and promise the pre-batch bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ylt import metrics as metrics_module
from repro.ylt.metrics import (
    RiskMetrics,
    aal,
    compute_risk_metrics,
    compute_risk_metrics_batch,
    pml,
    tvar,
)

#: A few repeated magnitudes: draws from this pool are zero-heavy and tie at
#: the quantile thresholds, the cases where ``>=`` tail selection matters.
TIED_VALUES = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5e5, 1.0e6, 1.0e6, 7.5e8])
ANY_VALUES = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)

LAYOUTS = ("contiguous", "read_only", "transposed", "strided")


@st.composite
def loss_matrices(draw):
    n_rows = draw(st.integers(min_value=1, max_value=5))
    n_trials = draw(st.sampled_from([1, 2, 3, 8, 9, 40, 131, 300]))
    elements = draw(st.sampled_from([TIED_VALUES, ANY_VALUES]))
    values = draw(
        st.lists(elements, min_size=n_rows * n_trials, max_size=n_rows * n_trials)
    )
    matrix = np.array(values, dtype=np.float64).reshape(n_rows, n_trials)
    if draw(st.booleans()):
        matrix[draw(st.integers(0, n_rows - 1))] = matrix[0, 0]  # an all-equal row
    layout = draw(st.sampled_from(LAYOUTS))
    if layout == "read_only":
        matrix.setflags(write=False)
    elif layout == "transposed":
        matrix = np.ascontiguousarray(matrix.T).T
    elif layout == "strided":
        wide = np.full((n_rows, 2 * n_trials), -1.0)
        wide[:, ::2] = matrix
        matrix = wide[:, ::2]
    return matrix


return_period_lists = st.lists(
    st.floats(min_value=1.0, max_value=1000.0), min_size=0, max_size=4, unique=True
)
tvar_level_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=3, unique=True
)


def scalar_oracle(row, return_periods, tvar_levels):
    return RiskMetrics(
        aal=aal(row),
        std=float(row.std(ddof=1)) if row.size > 1 else 0.0,
        pml={float(rp): pml(row, rp) for rp in return_periods},
        tvar={float(level): tvar(row, level) for level in tvar_levels},
        max_loss=float(row.max()),
        n_trials=int(row.size),
    )


class TestBatchEqualsScalarHelpers:
    @given(loss_matrices(), return_period_lists, tvar_level_lists)
    @settings(max_examples=300, deadline=None)
    def test_every_field_of_every_row(self, matrix, return_periods, tvar_levels):
        batch = compute_risk_metrics_batch(matrix, return_periods, tvar_levels)
        assert len(batch) == matrix.shape[0]
        for row, got in zip(matrix, batch):
            assert got == scalar_oracle(row, return_periods, tvar_levels)

    @given(loss_matrices())
    @settings(max_examples=100, deadline=None)
    def test_default_levels_and_the_one_row_case(self, matrix):
        batch = compute_risk_metrics_batch(matrix)
        for row, got in zip(matrix, batch):
            assert got == compute_risk_metrics(row)
            assert got == scalar_oracle(
                row,
                metrics_module.DEFAULT_RETURN_PERIODS,
                metrics_module.DEFAULT_TVAR_LEVELS,
            )

    @given(loss_matrices(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_blocked_evaluation_equals_unblocked(self, matrix, rows_per_block):
        whole = compute_risk_metrics_batch(matrix)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                metrics_module, "_BLOCK_BYTES", rows_per_block * matrix.shape[1] * 8
            )
            blocked = compute_risk_metrics_batch(matrix)
        assert blocked == whole

    @given(loss_matrices())
    @settings(max_examples=50, deadline=None)
    def test_input_is_left_untouched(self, matrix):
        before = matrix.copy()
        compute_risk_metrics_batch(matrix)
        np.testing.assert_array_equal(matrix, before)
