"""Property-based tests of exact shard merging (hypothesis).

For random small programs, random ragged YETs and random shard counts, the
merged result of a trial-sharded execution must equal the monolithic
``run_plan`` **bit for bit** on every backend — internal sharding
(``EngineConfig.trial_shards``), external sharding (``plan.shard(n)``
accumulated in shuffled order), and accumulator-to-accumulator merging
alike.  No tolerances anywhere: the sharded refactor's contract is exact.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BACKEND_NAMES, EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.plan import PlanBuilder
from repro.core.results import ResultAccumulator
from repro.elt.table import EventLossTable
from repro.financial.terms import FinancialTerms, LayerTerms
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.yet.table import YearEventTable

CATALOG_SIZE = 30


@st.composite
def random_elt(draw, name: str):
    n_records = draw(st.integers(min_value=1, max_value=8))
    event_ids = draw(st.lists(st.integers(min_value=0, max_value=CATALOG_SIZE - 1),
                              min_size=n_records, max_size=n_records, unique=True))
    losses = draw(st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                           min_size=n_records, max_size=n_records))
    terms = FinancialTerms(
        retention=draw(st.floats(min_value=0.0, max_value=50.0)),
        share=draw(st.floats(min_value=0.1, max_value=1.0)),
    )
    return EventLossTable(np.array(event_ids, dtype=np.int64), np.array(losses),
                          CATALOG_SIZE, terms, name)


@st.composite
def random_layer(draw, index: int):
    n_elts = draw(st.integers(min_value=1, max_value=2))
    elts = [draw(random_elt(f"elt-{index}-{i}")) for i in range(n_elts)]
    terms = LayerTerms(
        occurrence_retention=draw(st.floats(min_value=0.0, max_value=300.0)),
        aggregate_retention=draw(st.floats(min_value=0.0, max_value=600.0)),
        aggregate_limit=draw(st.one_of(st.just(float("inf")),
                                       st.floats(min_value=10.0, max_value=1e5))),
    )
    return Layer(elts, terms, name=f"layer-{index}")


@st.composite
def sharded_case(draw):
    """(program, yet, n_shards) with a ragged YET including empty trials."""
    n_layers = draw(st.integers(min_value=1, max_value=2))
    program = ReinsuranceProgram([draw(random_layer(i)) for i in range(n_layers)])
    n_trials = draw(st.integers(min_value=1, max_value=16))
    trials = [
        draw(st.lists(st.integers(min_value=0, max_value=CATALOG_SIZE - 1),
                      min_size=0, max_size=10))
        for _ in range(n_trials)
    ]
    yet = YearEventTable.from_trials(trials, CATALOG_SIZE)
    n_shards = draw(st.integers(min_value=1, max_value=7))
    return program, yet, n_shards


def _assert_bit_identical(sharded, monolithic):
    assert np.array_equal(sharded.losses, monolithic.losses)
    assert np.array_equal(
        sharded.max_occurrence_losses, monolithic.max_occurrence_losses
    )


class TestShardedMergeExactness:
    @given(sharded_case(), st.sampled_from(BACKEND_NAMES))
    @settings(max_examples=40, deadline=None)
    def test_internal_sharding_bit_identical_on_every_backend(self, case, backend):
        """config.trial_shards == monolithic, bit for bit, all five backends."""
        program, yet, n_shards = case
        base = EngineConfig(backend=backend)
        monolithic = AggregateRiskEngine(base).run(program, yet)
        sharded = AggregateRiskEngine(base.replace(trial_shards=n_shards)).run(
            program, yet
        )
        _assert_bit_identical(sharded.ylt, monolithic.ylt)

    @given(sharded_case(), st.sampled_from(("vectorized", "chunked")))
    @settings(max_examples=40, deadline=None)
    def test_per_layer_ablation_shards_bit_identical(self, case, backend):
        """fused_layers=False shards exactly too (the per-layer loop)."""
        program, yet, n_shards = case
        base = EngineConfig(backend=backend, fused_layers=False)
        monolithic = AggregateRiskEngine(base).run(program, yet)
        sharded = AggregateRiskEngine(base.replace(trial_shards=n_shards)).run(
            program, yet
        )
        _assert_bit_identical(sharded.ylt, monolithic.ylt)

    @given(sharded_case(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_external_shard_merge_in_any_order(self, case, rng):
        """plan.shard(n) accumulated in shuffled order == monolithic."""
        program, yet, n_shards = case
        engine = AggregateRiskEngine(EngineConfig(backend="vectorized"))
        plan = PlanBuilder.from_program(program, yet)
        monolithic = engine.run_plan(plan)

        shard_plans = plan.shard(n_shards)
        assert sum(p.trials.size for p in shard_plans) == yet.n_trials
        rng.shuffle(shard_plans)
        accumulator = ResultAccumulator.for_plan(plan)
        for shard_plan in shard_plans:
            accumulator.add_result(engine.run_plan(shard_plan))
        assert accumulator.is_complete
        _assert_bit_identical(accumulator.to_ylt(), monolithic.ylt)

    @given(sharded_case(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_split_accumulator_merge_equals_local_accumulation(self, case, split_at):
        """merge() of two partially filled accumulators == one accumulator."""
        program, yet, n_shards = case
        engine = AggregateRiskEngine(EngineConfig(backend="vectorized"))
        plan = PlanBuilder.from_program(program, yet)
        monolithic = engine.run_plan(plan)

        results = [
            (shard_plan.trials, engine.run_plan(shard_plan))
            for shard_plan in plan.shard(n_shards)
        ]
        cut = min(split_at, len(results))
        left = ResultAccumulator.for_plan(plan)
        right = ResultAccumulator.for_plan(plan)
        for trials, result in results[:cut]:
            left.add_result(result, trials)
        for trials, result in results[cut:]:
            right.add_result(result, trials)
        left.merge(right)
        _assert_bit_identical(left.to_ylt(), monolithic.ylt)
