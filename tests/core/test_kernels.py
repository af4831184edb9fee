"""Tests for repro.core.kernels (the shared vectorised kernels)."""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.kernels import (
    combined_event_losses,
    layer_trial_losses,
    layer_trial_losses_batch,
    layer_trial_losses_chunked,
)
from repro.core.native.build import find_compiler, load_kernels
from repro.core.phases import PHASE_ELT_LOOKUP, PHASE_FINANCIAL_TERMS
from repro.elt.combined import LayerLossMatrix
from repro.elt.table import EventLossTable
from repro.financial.policies import apply_aggregate_terms_cumulative, apply_occurrence_terms
from repro.financial.terms import FinancialTerms, LayerTerms, LayerTermsVectors
from repro.utils.timing import PhaseTimer


@pytest.fixture()
def matrix() -> LayerLossMatrix:
    elt_a = EventLossTable(np.array([1, 2, 3]), np.array([100.0, 200.0, 300.0]), 10,
                           terms=FinancialTerms(share=0.5))
    elt_b = EventLossTable(np.array([2, 4]), np.array([50.0, 500.0]), 10,
                           terms=FinancialTerms(retention=25.0))
    return LayerLossMatrix([elt_a, elt_b])


class TestCombinedEventLosses:
    def test_hand_example(self, matrix):
        # Event 2: ELT A (200 * 0.5 = 100) + ELT B (50 - 25 = 25) = 125.
        losses = combined_event_losses(matrix, np.array([2, 4, 9]))
        np.testing.assert_allclose(losses, [125.0, 475.0, 0.0])

    def test_timer_phases_recorded(self, matrix):
        timer = PhaseTimer()
        combined_event_losses(matrix, np.array([1, 2]), timer)
        assert timer.count(PHASE_ELT_LOOKUP) == 1
        assert timer.count(PHASE_FINANCIAL_TERMS) == 1


class TestLayerTrialLosses:
    def test_matches_manual_aggregation(self, matrix):
        event_ids = np.array([1, 2, 4, 3, 3])
        offsets = np.array([0, 3, 5])
        terms = LayerTerms(occurrence_retention=10.0, occurrence_limit=300.0,
                           aggregate_retention=50.0, aggregate_limit=500.0)
        year, max_occ = layer_trial_losses(matrix, event_ids, offsets, terms)
        # Combined per-event: [50, 125, 475, 150, 150]
        # Occurrence net: [40, 115, 300, 140, 140]
        # Trial 0 total 455 -> agg net min(max(455-50,0),500)=405
        # Trial 1 total 280 -> 230
        np.testing.assert_allclose(year, [405.0, 230.0])
        np.testing.assert_allclose(max_occ, [300.0, 140.0])

    def test_max_occurrence_optional(self, matrix):
        year, max_occ = layer_trial_losses(
            matrix, np.array([1]), np.array([0, 1]), LayerTerms(), record_max_occurrence=False
        )
        assert max_occ is None

    def test_shortcut_and_cumulative_agree(self, matrix):
        rng = np.random.default_rng(0)
        event_ids = rng.integers(0, 10, 200)
        offsets = np.array([0, 50, 50, 120, 200])
        terms = LayerTerms(5.0, 100.0, 50.0, 400.0)
        year, _ = layer_trial_losses(matrix, event_ids, offsets, terms)
        occurrence = apply_occurrence_terms(combined_event_losses(matrix, event_ids), terms)
        np.testing.assert_allclose(
            year, apply_aggregate_terms_cumulative(occurrence, offsets, terms), rtol=1e-12
        )


class TestPerLayerTrialLosses:
    def test_one_kernel_call_per_row(self, matrix):
        event_ids = np.array([1, 2, 4, 3, 3])
        offsets = np.array([0, 3, 5])
        terms = [LayerTerms(occurrence_retention=10.0), LayerTerms(aggregate_limit=200.0)]
        losses, max_occ = kernels.per_layer_trial_losses(
            layer_trial_losses, [matrix, matrix], terms, event_ids, offsets
        )
        assert losses.shape == max_occ.shape == (2, 2)
        for row, layer_terms in enumerate(terms):
            year, trial_max = layer_trial_losses(matrix, event_ids, offsets, layer_terms)
            np.testing.assert_array_equal(losses[row], year)
            np.testing.assert_array_equal(max_occ[row], trial_max)

    def test_max_occurrence_optional(self, matrix):
        losses, max_occ = kernels.per_layer_trial_losses(
            layer_trial_losses, [matrix], [LayerTerms()], np.array([1]), np.array([0, 1]),
            record_max_occurrence=False,
        )
        np.testing.assert_allclose(losses, [[50.0]])
        assert max_occ is None


class TestBuildLayerLossStack:
    def test_rows_are_the_combined_net_rows(self, matrix):
        other = LayerLossMatrix([EventLossTable(np.array([0, 9]), np.array([7.0, 8.0]), 10)])
        timer = PhaseTimer()
        stack = kernels.build_layer_loss_stack([matrix, other], timer)
        assert stack.shape == (2, 10) and stack.dtype == np.float64
        np.testing.assert_array_equal(stack[0], matrix.combined_net_losses())
        np.testing.assert_array_equal(stack[1], other.combined_net_losses())
        assert timer.count(PHASE_FINANCIAL_TERMS) == 1

    def test_no_matrices_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            kernels.build_layer_loss_stack([])

    def test_mixed_catalog_sizes_rejected(self, matrix):
        other = LayerLossMatrix([EventLossTable(np.array([0]), np.array([1.0]), 12)])
        with pytest.raises(ValueError, match="one catalog size"):
            kernels.build_layer_loss_stack([matrix, other])


class TestChunkedKernel:
    @pytest.mark.parametrize("chunk_events", [1, 3, 7, 64, 1000])
    def test_chunking_invariant_to_chunk_size(self, matrix, chunk_events):
        rng = np.random.default_rng(1)
        event_ids = rng.integers(0, 10, 300)
        offsets = np.array([0, 100, 130, 300])
        terms = LayerTerms(10.0, 200.0, 100.0, 900.0)
        reference, ref_occ = layer_trial_losses(matrix, event_ids, offsets, terms)
        chunked, occ = layer_trial_losses_chunked(
            matrix, event_ids, offsets, terms, chunk_events=chunk_events
        )
        np.testing.assert_allclose(chunked, reference, rtol=1e-12)
        np.testing.assert_allclose(occ, ref_occ, rtol=1e-12)

    def test_invalid_chunk_size(self, matrix):
        with pytest.raises(ValueError):
            layer_trial_losses_chunked(matrix, np.array([1]), np.array([0, 1]), LayerTerms(),
                                       chunk_events=0)

    def test_empty_yet(self, matrix):
        year, occ = layer_trial_losses_chunked(
            matrix, np.array([], dtype=np.int64), np.array([0, 0]), LayerTerms(), chunk_events=8
        )
        np.testing.assert_allclose(year, [0.0])
        np.testing.assert_allclose(occ, [0.0])


class TestFusedGatherLayout:
    """The fused gather hands every later pass a row-major scratch.

    ``stack[:, ids]`` returns the same values event-major (strides
    ``(8, 8 * n_rows)``), which is 3x slower end to end and invisible in the
    output — so the layout itself is asserted, on the termed scratch each
    pass writes (in place of the gather, or grouped under a ``row_map``).
    """

    @pytest.fixture()
    def seen(self, monkeypatch):
        matrices = []
        rows, groups = kernels._occurrence_losses, kernels._RowGroups.occurrence_losses

        def rows_spy(gathered, vectors):
            matrices.append(rows(gathered, vectors))
            return matrices[-1]

        def groups_spy(self, gathered):
            matrices.append(groups(self, gathered))
            return matrices[-1]

        monkeypatch.setattr(kernels, "_occurrence_losses", rows_spy)
        monkeypatch.setattr(kernels._RowGroups, "occurrence_losses", groups_spy)
        return matrices

    @pytest.mark.parametrize("chunk_events", [None, 40], ids=["monolithic", "streamed"])
    @pytest.mark.parametrize("row_map", [None, [2, 0, 2, 1, 1]], ids=["rows", "row_map"])
    def test_terms_receive_c_contiguous_rows(self, seen, chunk_events, row_map):
        rng = np.random.default_rng(3)
        stack = rng.random((3, 50))
        ids = rng.integers(0, 50, 200)
        n_layers = len(row_map) if row_map is not None else 3
        offsets = np.arange(0, 201, 20)
        for source in (stack, list(stack)):  # one contiguous stack, or referenced rows
            seen.clear()
            year, _ = layer_trial_losses_batch(
                (), ids, offsets, [LayerTerms()] * n_layers,
                stack=source, chunk_events=chunk_events,
                row_map=None if row_map is None else np.array(row_map),
            )
            assert year.shape == (n_layers, 10)
            assert len(seen) == (1 if chunk_events is None else 5)
            for matrix in seen:
                assert matrix.shape[0] == n_layers >= 2
                assert matrix.flags.c_contiguous
                assert matrix.strides == (8 * matrix.shape[1], 8)

    def test_per_layer_gather_is_c_contiguous(self, matrix):
        gathered = matrix.gather(np.array([3, 1, 2, 2, 9]))
        assert gathered.flags.c_contiguous and gathered.flags.owndata
        np.testing.assert_array_equal(gathered, matrix.losses[:, [3, 1, 2, 2, 9]])


def _numpy_kernel(stack, ids, offsets, terms, row_map):
    return layer_trial_losses_batch((), ids, offsets, terms, stack=stack, row_map=row_map)


def _native_kernel(stack, ids, offsets, terms, row_map):
    vectors = LayerTermsVectors.from_terms(terms)
    return load_kernels().fused_rows(
        stack, ids, offsets, vectors.occurrence_retentions, vectors.occurrence_limits,
        vectors.aggregate_retentions, vectors.aggregate_limits, row_map=row_map,
    )


class TestOutOfCatalogIds:
    """Both fused kernels refuse an event id outside ``[0, catalog_size)``.

    ``np.take`` would wrap ``-1`` to the last event and the C kernel gathers
    unchecked, so each validates the ids before its gather.
    """

    CATALOG = 12

    @pytest.mark.parametrize("bad_id", [CATALOG, -1], ids=["catalog_size", "minus_one"])
    @pytest.mark.parametrize("row_map", [None, [1, 0, 1]], ids=["rows", "row_map"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("kernel", [
        _numpy_kernel,
        pytest.param(_native_kernel, marks=pytest.mark.skipif(
            find_compiler() is None, reason="no C compiler on PATH")),
    ], ids=["numpy", "native"])
    def test_raises_index_error(self, kernel, dtype, row_map, bad_id):
        stack = np.random.default_rng(5).random((2, self.CATALOG)).astype(dtype)
        n_rows = 2 if row_map is None else len(row_map)
        terms = [LayerTerms()] * n_rows
        row_map = None if row_map is None else np.array(row_map)
        offsets = np.array([0, 2, 4])
        good = np.array([0, 3, 11, 7])
        year, _ = kernel(stack, good, offsets, terms, row_map)  # in range: prices
        assert year.shape == (n_rows, 2)
        bad = good.copy()
        bad[2] = bad_id
        with pytest.raises(IndexError, match="out of range of the catalog"):
            kernel(stack, bad, offsets, terms, row_map)
