"""Tests for repro.core.results and repro.core.phases."""

import numpy as np
import pytest

from repro.core.phases import ALL_PHASES
from repro.core.results import EngineResult
from repro.parallel.partitioner import WorkloadShape
from repro.utils.timing import TimingBreakdown
from repro.ylt.table import YearLossTable


def make_result(wall_seconds: float = 2.0) -> EngineResult:
    ylt = YearLossTable(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), ["a", "b"])
    return EngineResult(
        ylt=ylt,
        backend="vectorized",
        wall_seconds=wall_seconds,
        workload_shape=WorkloadShape(n_trials=3, events_per_trial=10.0, n_elts=2, n_layers=2),
        phase_breakdown=TimingBreakdown({"elt_lookup": 1.5, "layer_terms": 0.5}),
    )


class TestEngineResult:
    def test_shape_accessors(self):
        result = make_result()
        assert result.n_trials == 3
        assert result.n_layers == 2

    def test_trials_per_second(self):
        result = make_result(wall_seconds=2.0)
        assert result.trials_per_second == pytest.approx(3 * 2 / 2.0)

    def test_trials_per_second_zero_time(self):
        assert make_result(wall_seconds=0.0).trials_per_second == float("inf")

    def test_summary_mentions_backend_and_counts(self):
        text = make_result().summary()
        assert "backend=vectorized" in text
        assert "trials=3" in text


class TestLayerSubset:
    """One program's rows of a batch are a view: nothing copied, nothing
    re-validated; any other selection keeps the copy."""

    @pytest.fixture()
    def init_calls(self, monkeypatch):
        calls = []
        real = YearLossTable.__init__

        def counting(self, *args, **kwargs):
            calls.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(YearLossTable, "__init__", counting)
        return calls

    @staticmethod
    def with_max_occurrence() -> EngineResult:
        losses = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        ylt = YearLossTable(losses, ["a", "b", "c"], losses / 2.0)
        return EngineResult(ylt, "vectorized", 1.0, WorkloadShape(3, 10.0, 2, 3))

    def test_range_split_is_a_view(self, init_calls):
        parent = self.with_max_occurrence()
        init_calls.clear()
        split = parent.for_layer_subset(range(1, 3), extra_details={"tag": 1})
        assert init_calls == []
        assert split.ylt.layer_names == ("b", "c")
        assert split.workload_shape.n_layers == 2 and split.details["tag"] == 1
        for got, whole in (
            (split.ylt.losses, parent.ylt.losses),
            (split.ylt.max_occurrence_losses, parent.ylt.max_occurrence_losses),
        ):
            assert np.shares_memory(got, whole) and got.flags.c_contiguous
            np.testing.assert_array_equal(got, whole[1:3])

    def test_other_selections_copy(self, init_calls):
        parent = self.with_max_occurrence()
        for indices in ([2, 0], range(0, 3, 2), (1,)):
            init_calls.clear()
            split = parent.for_layer_subset(indices)
            assert len(init_calls) == 1
            assert not np.shares_memory(split.ylt.losses, parent.ylt.losses)
            np.testing.assert_array_equal(split.ylt.losses, parent.ylt.losses[list(indices)])

    @pytest.mark.parametrize(
        "indices, error",
        [(range(0, 0), ValueError), (range(1, 4), IndexError), (range(-1, 2), IndexError)],
    )
    def test_bad_ranges_raise_as_before(self, indices, error):
        with pytest.raises(error):
            self.with_max_occurrence().for_layer_subset(indices)


class TestPhases:
    def test_all_phases_order(self):
        assert ALL_PHASES == ("event_fetch", "elt_lookup", "financial_terms", "layer_terms")


class TestPartialResult:
    def test_shape_validation(self):
        from repro.core.results import PartialResult
        from repro.parallel.partitioner import TrialRange

        with pytest.raises(ValueError, match="2-D"):
            PartialResult(TrialRange(0, 3), np.zeros(3))
        with pytest.raises(ValueError, match="cover 2 trials"):
            PartialResult(TrialRange(0, 3), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="max_occurrence shape"):
            PartialResult(TrialRange(0, 3), np.zeros((2, 3)), np.zeros((2, 2)))

    def test_from_result_reads_recorded_trial_range(self):
        from repro.core.results import PartialResult

        result = make_result()
        enriched = result.with_extra_details(plan={"trial_range": [4, 7]})
        partial = PartialResult.from_result(enriched)
        assert (partial.trials.start, partial.trials.stop) == (4, 7)
        np.testing.assert_array_equal(partial.losses, result.ylt.losses)

    def test_from_result_without_range_requires_explicit_trials(self):
        from repro.core.results import PartialResult

        with pytest.raises(ValueError, match="trial range"):
            PartialResult.from_result(make_result())


class TestResultAccumulator:
    def _partial(self, start, stop, value, n_rows=2):
        from repro.core.results import PartialResult
        from repro.parallel.partitioner import TrialRange

        size = stop - start
        return PartialResult(
            TrialRange(start, stop),
            np.full((n_rows, size), float(value)),
            np.full((n_rows, size), float(value) / 2),
        )

    def test_rejects_overlap_and_out_of_domain(self):
        from repro.core.results import ResultAccumulator

        acc = ResultAccumulator(2, 10)
        acc.add(self._partial(0, 4, 1.0))
        with pytest.raises(ValueError, match="overlaps"):
            acc.add(self._partial(3, 6, 2.0))
        with pytest.raises(ValueError, match="outside"):
            acc.add(self._partial(8, 12, 2.0))
        with pytest.raises(ValueError, match="rows"):
            acc.add(self._partial(4, 6, 2.0, n_rows=3))

    def test_covered_trials_counts_accumulated_partials(self):
        from repro.core.results import ResultAccumulator

        acc = ResultAccumulator(2, 10)
        assert acc.covered_trials == 0
        acc.add(self._partial(6, 10, 1.0))
        acc.add(self._partial(0, 3, 1.0))
        assert acc.covered_trials == 7
        assert not acc.is_complete
        acc.add(self._partial(3, 6, 1.0))
        assert acc.covered_trials == 10
        assert acc.is_complete

    def test_overlap_error_names_endpoints_and_provenance(self):
        # A fleet diagnosing a double shard assignment needs the conflicting
        # endpoints AND where each block came from, in one message.
        from repro.core.results import PartialResult, ResultAccumulator
        from repro.parallel.partitioner import TrialRange

        acc = ResultAccumulator(1, 10)
        acc.add(
            PartialResult(
                TrialRange(0, 4), np.zeros((1, 4)), details={"worker": "fleet-a"}
            )
        )
        with pytest.raises(
            ValueError,
            match=r"\[2, 6\) \(worker=fleet-b\) overlaps accumulated range "
            r"\[0, 4\) \(worker=fleet-a\)",
        ):
            acc.add(
                PartialResult(
                    TrialRange(2, 6), np.zeros((1, 4)), details={"worker": "fleet-b"}
                )
            )

    def test_domain_error_names_provenance(self):
        from repro.core.results import PartialResult, ResultAccumulator
        from repro.parallel.partitioner import TrialRange

        acc = ResultAccumulator(1, 10)
        with pytest.raises(ValueError, match=r"\(backend=native\) outside"):
            acc.add(
                PartialResult(
                    TrialRange(8, 12), np.zeros((1, 4)), details={"backend": "native"}
                )
            )

    def test_unattributed_partials_say_so(self):
        from repro.core.results import PartialResult, ResultAccumulator
        from repro.parallel.partitioner import TrialRange

        acc = ResultAccumulator(1, 10)
        acc.add(PartialResult(TrialRange(0, 4), np.zeros((1, 4))))
        with pytest.raises(ValueError, match=r"\(unattributed\) overlaps"):
            acc.add(PartialResult(TrialRange(0, 4), np.zeros((1, 4))))

    def test_incomplete_assembly_names_missing_ranges(self):
        from repro.core.results import ResultAccumulator

        acc = ResultAccumulator(2, 10)
        acc.add(self._partial(2, 5, 1.0))
        assert not acc.is_complete
        gaps = acc.missing_ranges()
        assert [(g.start, g.stop) for g in gaps] == [(0, 2), (5, 10)]
        with pytest.raises(ValueError, match=r"missing trial ranges: \[0, 2\)"):
            acc.year_losses()

    def test_out_of_order_assembly_places_columns(self):
        from repro.core.results import ResultAccumulator

        acc = ResultAccumulator(1, 6, row_names=["layer"])
        acc.add(self._partial(4, 6, 3.0, n_rows=1))
        acc.add(self._partial(0, 2, 1.0, n_rows=1))
        acc.add(self._partial(2, 4, 2.0, n_rows=1))
        np.testing.assert_array_equal(
            acc.year_losses()[0], [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        )
        ylt = acc.to_ylt()
        assert ylt.layer_names == ("layer",)
        np.testing.assert_array_equal(
            ylt.max_occurrence_losses[0], [0.5, 0.5, 1.0, 1.0, 1.5, 1.5]
        )

    def test_single_block_fast_path_returns_the_block(self):
        from repro.core.results import ResultAccumulator

        acc = ResultAccumulator(2, 5)
        partial = self._partial(0, 5, 1.0)
        acc.add(partial)
        assert acc.year_losses() is partial.losses

    def test_merge_requires_same_domain(self):
        from repro.core.results import ResultAccumulator

        acc = ResultAccumulator(2, 10)
        with pytest.raises(ValueError, match="same rows and trial domain"):
            acc.merge(ResultAccumulator(2, 8))

    def test_missing_max_occurrence_collapses_to_none(self):
        from repro.core.results import PartialResult, ResultAccumulator
        from repro.parallel.partitioner import TrialRange

        acc = ResultAccumulator(1, 4)
        acc.add(PartialResult(TrialRange(0, 2), np.ones((1, 2)), np.ones((1, 2))))
        acc.add(PartialResult(TrialRange(2, 4), np.ones((1, 2)), None))
        assert acc.max_occurrence_losses() is None

    def test_finalize_builds_engine_result(self):
        from repro.core.results import ResultAccumulator

        acc = ResultAccumulator(2, 6)
        acc.add(self._partial(0, 3, 1.0))
        acc.add(self._partial(3, 6, 2.0))
        result = acc.finalize("vectorized", wall_seconds=1.25)
        assert isinstance(result, EngineResult)
        assert result.backend == "vectorized"
        assert result.wall_seconds == 1.25
        assert result.details["merged_shards"]["n_shards"] == 2
        assert result.n_trials == 6

    def test_with_rows_places_rows_over_every_block(self):
        from repro.core.results import PartialResult, ResultAccumulator
        from repro.parallel.partitioner import TrialRange

        acc = ResultAccumulator(2, 3, row_names=["a", "old"])
        acc.add(PartialResult(TrialRange(0, 1), np.full((2, 1), 9.0)))
        acc.add(PartialResult(TrialRange(1, 3), np.full((2, 2), 7.0)))
        delta = make_result().for_layer_subset([1])  # one row named "b": [4, 5, 6]
        placed = acc.with_rows([1], delta)
        assert placed.is_complete and placed is not acc
        np.testing.assert_array_equal(placed.year_losses(), [[9.0, 7.0, 7.0], [4.0, 5.0, 6.0]])
        assert placed.row_names == ("a", "b")
        np.testing.assert_array_equal(acc.year_losses()[1], [9.0, 7.0, 7.0])  # untouched

    def test_with_rows_rejects_an_occurrence_mismatch(self):
        from repro.core.results import ResultAccumulator

        acc = ResultAccumulator(2, 3)
        acc.add(self._partial(0, 3, 1.0))  # carries max-occurrence losses
        with pytest.raises(ValueError, match="maximum occurrence"):
            acc.with_rows([0], make_result().for_layer_subset([0]))
