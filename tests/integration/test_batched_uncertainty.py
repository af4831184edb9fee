"""Golden conformance: the replication-batched uncertainty engine vs replay.

With a fixed seed the batched path (all replications stacked into fused rows
and priced in one stacked engine pass) must reproduce the per-replication
``method="replay"`` loop's metrics — backend for backend — because both
consume identical per-replication child streams and apply identical kernels.
The tests pin that contract to 1e-9 (the observed agreement is bit-exact) and
additionally pin the streamed variant's block-size invariance and the
multicore path's worker-count invariance.
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.financial.terms import FinancialTerms, LayerTerms
from repro.uncertainty import (
    LossDistributionFamily,
    SecondaryUncertaintyAnalysis,
    UncertainEventLossTable,
    UncertainLayer,
)
from repro.workloads import WorkloadGenerator, tiny_spec
from repro.yet.table import YearEventTable

SEED = 20_120_613
RETURN_PERIODS = (5.0, 20.0)
TVAR_LEVELS = (0.9,)


def make_layers():
    """Two uncertain layers with non-trivial financial and layer terms."""
    uelt_a = UncertainEventLossTable(
        event_ids=np.arange(0, 40, 2),
        mean_losses=np.linspace(50.0, 400.0, 20),
        cv_losses=np.full(20, 0.7),
        catalog_size=50,
        family=LossDistributionFamily.GAMMA,
        terms=FinancialTerms(retention=10.0, limit=350.0, share=0.9),
        name="uelt-a",
    )
    uelt_b = UncertainEventLossTable(
        event_ids=np.arange(1, 50, 3),
        mean_losses=np.linspace(20.0, 150.0, 17),
        cv_losses=np.full(17, 0.4),
        catalog_size=50,
        family=LossDistributionFamily.LOGNORMAL,
        terms=FinancialTerms(share=0.8, fx_rate=1.1),
        name="uelt-b",
    )
    layer_1 = UncertainLayer(
        [uelt_a, uelt_b],
        LayerTerms(occurrence_retention=40.0, aggregate_limit=5_000.0),
        name="working",
    )
    layer_2 = UncertainLayer(
        [uelt_b],
        LayerTerms(aggregate_retention=100.0),
        name="stop-loss",
    )
    return [layer_1, layer_2]


@pytest.fixture(scope="module")
def yet():
    rng = np.random.default_rng(77)
    trials = [
        list(rng.integers(0, 50, size=rng.integers(1, 9)))
        for _ in range(60)
    ]
    return YearEventTable.from_trials(trials, catalog_size=50)


def run_both(config, yet, **kwargs):
    analysis = SecondaryUncertaintyAnalysis(make_layers(), config=config)
    replay = analysis.run_batched(
        yet, 12, rng=SEED, return_periods=RETURN_PERIODS,
        tvar_levels=TVAR_LEVELS, method="replay",
    )
    batched = analysis.run_batched(
        yet, 12, rng=SEED, return_periods=RETURN_PERIODS,
        tvar_levels=TVAR_LEVELS, method="batched", **kwargs,
    )
    return replay, batched


class TestGoldenConformance:
    @pytest.mark.parametrize("config", [
        EngineConfig(backend="vectorized", record_max_occurrence=False),
        EngineConfig(backend="vectorized", record_max_occurrence=True),
        EngineConfig(backend="chunked", chunk_events=7, record_max_occurrence=False),
        EngineConfig(backend="multicore", n_workers=2, record_max_occurrence=False),
        EngineConfig(backend="native", record_max_occurrence=False),
    ], ids=["vectorized", "vectorized-maxocc", "chunked", "multicore", "native"])
    def test_batched_matches_replay_oracle(self, yet, config):
        replay, batched = run_both(config, yet)
        assert set(replay) == set(batched) == {
            "aal", "pml_5", "pml_20", "tvar_0.9",
        }
        for name in replay:
            np.testing.assert_allclose(
                batched[name].values, replay[name].values, rtol=1e-9, atol=0.0,
                err_msg=f"{config.backend}: metric {name} deviates from the replay oracle",
            )

    def test_streamed_blocks_match_single_pass(self, yet):
        config = EngineConfig(backend="vectorized", record_max_occurrence=False)
        analysis = SecondaryUncertaintyAnalysis(make_layers(), config=config)
        single = analysis.run_batched(yet, 12, rng=SEED, method="batched")
        for block in (1, 3, 5, 12, 64):
            streamed = analysis.run_batched(
                yet, 12, rng=SEED, method="batched", replication_block=block
            )
            for name in single:
                np.testing.assert_array_equal(
                    streamed[name].values, single[name].values,
                    err_msg=f"block={block} changed metric {name}",
                )

    def test_config_replication_block_used_as_default(self, yet):
        base = EngineConfig(backend="chunked", chunk_events=11, record_max_occurrence=False)
        blocked = base.replace(replication_block=4)
        reference = SecondaryUncertaintyAnalysis(make_layers(), config=base).run_batched(
            yet, 10, rng=SEED
        )
        streamed = SecondaryUncertaintyAnalysis(make_layers(), config=blocked).run_batched(
            yet, 10, rng=SEED
        )
        for name in reference:
            np.testing.assert_array_equal(streamed[name].values, reference[name].values)

    def test_worker_count_invariance(self, yet):
        """Draws are per-replication streams, so workers only move rounding.

        The trial-block partition changes the floating-point accumulation
        order inside the segment reductions (last-bit effects), never the
        sampled losses — metrics agree far inside the 1e-9 contract.
        """
        values = []
        for n_workers in (1, 2, 3):
            config = EngineConfig(
                backend="multicore", n_workers=n_workers, record_max_occurrence=False
            )
            analysis = SecondaryUncertaintyAnalysis(make_layers(), config=config)
            values.append(analysis.run_batched(yet, 8, rng=SEED)["aal"].values)
        np.testing.assert_allclose(values[1], values[0], rtol=1e-12)
        np.testing.assert_allclose(values[2], values[0], rtol=1e-12)

    def test_backends_agree_with_each_other(self, yet):
        """Vectorized / chunked / multicore batched runs agree to 1e-9."""
        results = {}
        for backend, overrides in [
            ("vectorized", {}),
            ("chunked", {"chunk_events": 13}),
            ("multicore", {"n_workers": 2}),
        ]:
            config = EngineConfig(backend=backend, record_max_occurrence=False, **overrides)
            analysis = SecondaryUncertaintyAnalysis(make_layers(), config=config)
            results[backend] = analysis.run_batched(yet, 10, rng=SEED)
        for backend in ("chunked", "multicore"):
            for name in results["vectorized"]:
                np.testing.assert_allclose(
                    results[backend][name].values,
                    results["vectorized"][name].values,
                    rtol=1e-9,
                )


class TestBatchedOnRealWorkload:
    def test_tiny_preset_program(self):
        workload = WorkloadGenerator(tiny_spec(seed=5)).generate()
        layers = [
            UncertainLayer(
                elts=[UncertainEventLossTable.from_elt(elt, cv=0.5) for elt in layer.elts],
                terms=layer.terms,
                name=layer.name,
            )
            for layer in workload.program.layers
        ]
        config = EngineConfig(backend="vectorized", record_max_occurrence=False)
        analysis = SecondaryUncertaintyAnalysis(layers, config=config)
        replay = analysis.run_batched(workload.yet, 6, rng=SEED, method="replay")
        batched = analysis.run_batched(workload.yet, 6, rng=SEED, method="batched")
        for name in replay:
            np.testing.assert_allclose(
                batched[name].values, replay[name].values, rtol=1e-9, atol=0.0
            )


class TestBatchedValidation:
    def test_unknown_method_rejected(self, yet):
        analysis = SecondaryUncertaintyAnalysis(make_layers())
        with pytest.raises(ValueError, match="method"):
            analysis.run_batched(yet, 4, rng=1, method="turbo")

    def test_zero_replications_rejected(self, yet):
        analysis = SecondaryUncertaintyAnalysis(make_layers())
        with pytest.raises(ValueError, match="n_replications"):
            analysis.run_batched(yet, 0, rng=1)

    def test_sequential_backend_has_no_stacked_path(self, yet):
        config = EngineConfig(backend="sequential", record_max_occurrence=False)
        analysis = SecondaryUncertaintyAnalysis(make_layers(), config=config)
        with pytest.raises(ValueError, match="stacked execution path"):
            analysis.run_batched(yet, 2, rng=1)
        # ... but the replay oracle still runs on any backend.
        summaries = analysis.run_batched(yet, 2, rng=1, method="replay")
        assert "aal" in summaries

    def test_mismatched_catalog_sizes_rejected(self):
        small = UncertainEventLossTable(
            np.array([0]), np.array([1.0]), np.array([0.1]), catalog_size=5
        )
        big = UncertainEventLossTable(
            np.array([0]), np.array([1.0]), np.array([0.1]), catalog_size=6
        )
        with pytest.raises(ValueError, match="catalog size"):
            SecondaryUncertaintyAnalysis([
                UncertainLayer([small], LayerTerms()),
                UncertainLayer([big], LayerTerms()),
            ])
        with pytest.raises(ValueError, match="at least one uncertain layer"):
            SecondaryUncertaintyAnalysis([])
