"""Integration: the full analytical pipeline from catalog to risk report.

Covers the three stages the paper's introduction describes: catastrophe
modelling (catalog + exposure -> ELT), aggregate analysis (ELT + YET -> YLT)
and portfolio risk management (YLT -> PML / TVaR / pricing).
"""

import numpy as np
import pytest

from repro.catalog.generator import CatalogGenerator
from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.exposure.generator import ExposureGenerator
from repro.exposure.geography import RegionGrid
from repro.financial.contracts import aggregate_xl_terms, occurrence_xl_terms
from repro.financial.terms import FinancialTerms
from repro.hazard.catmodel import CatastropheModel
from repro.portfolio.layer import Layer
from repro.portfolio.pricing import price_layer
from repro.portfolio.program import ReinsuranceProgram
from repro.portfolio.rollup import portfolio_rollup
from repro.yet.io import load_yet, save_yet
from repro.yet.simulator import YETSimulator
from repro.ylt.ep_curve import aep_curve, oep_curve
from repro.ylt.metrics import compute_risk_metrics
from repro.ylt.reporting import format_metrics_report

N_REGIONS = 12


@pytest.fixture(scope="module")
def pipeline_outputs(tmp_path_factory):
    # Stage 0: stochastic catalog.
    catalog = CatalogGenerator(n_regions=N_REGIONS).generate_with_rate(3000, 60.0, rng=7)

    # Stage 1: exposure sets and catastrophe model -> ELTs.
    exposures = ExposureGenerator(RegionGrid(1, N_REGIONS)).generate_many(6, 80, rng=8)
    cat_model = CatastropheModel(catalog, n_regions=N_REGIONS)
    elts = cat_model.generate_elts(exposures, terms=FinancialTerms(share=0.8))

    # Stage 2: layers, YET (persisted and reloaded), aggregate analysis.
    mean_loss = np.mean([elt.losses.mean() for elt in elts])
    occ_layer = Layer(elts[:3], occurrence_xl_terms(mean_loss, 50 * mean_loss), name="cat-xl")
    agg_layer = Layer(elts[3:], aggregate_xl_terms(5 * mean_loss, 200 * mean_loss), name="stop-loss")
    program = ReinsuranceProgram([occ_layer, agg_layer], name="e2e")

    yet = YETSimulator(catalog).simulate(300, rng=9)
    path = tmp_path_factory.mktemp("yet") / "e2e_yet"
    yet = load_yet(save_yet(yet, path))

    result = AggregateRiskEngine(EngineConfig(backend="vectorized")).run(program, yet)
    return catalog, program, yet, result


class TestPipeline:
    def test_ylt_shape(self, pipeline_outputs):
        _, program, yet, result = pipeline_outputs
        assert result.ylt.n_layers == program.n_layers
        assert result.ylt.n_trials == yet.n_trials

    def test_losses_respect_layer_limits(self, pipeline_outputs):
        _, program, _, result = pipeline_outputs
        for i, layer in enumerate(program):
            assert (result.ylt.losses[i] <= layer.terms.aggregate_limit + 1e-6).all()
            if np.isfinite(layer.terms.occurrence_limit):
                assert (
                    result.ylt.max_occurrence_losses[i] <= layer.terms.occurrence_limit + 1e-6
                ).all()

    def test_risk_metrics_and_report(self, pipeline_outputs):
        _, _, _, result = pipeline_outputs
        metrics = compute_risk_metrics(result.ylt.portfolio_losses())
        assert metrics.aal > 0
        assert metrics.pml[250.0] >= metrics.pml[10.0]
        report = format_metrics_report(metrics)
        assert "PML" in report

    def test_ep_curves_consistent(self, pipeline_outputs):
        _, _, _, result = pipeline_outputs
        aep = aep_curve(result.ylt.portfolio_losses())
        oep = oep_curve(result.ylt.portfolio_max_occurrence())
        # The aggregate annual loss dominates the largest single occurrence.
        assert aep.loss_at_return_period(100.0) >= oep.loss_at_return_period(100.0) - 1e-6

    def test_pricing_and_rollup(self, pipeline_outputs):
        _, program, _, result = pipeline_outputs
        pricing = price_layer(program[0], result.ylt.layer(0))
        assert pricing.technical_premium > pricing.expected_loss > 0
        rollup = portfolio_rollup(result.ylt, program)
        assert rollup.portfolio_metrics.aal == pytest.approx(
            sum(m.aal for m in rollup.layer_metrics.values()), rel=1e-9
        )
        assert 0.0 <= rollup.diversification_benefit <= 1.0

    def test_alternative_terms_reprice_quickly(self, pipeline_outputs):
        # The real-time pricing scenario: same exposure, alternative terms.
        _, program, yet, _ = pipeline_outputs
        base = program[0]
        engine = AggregateRiskEngine(EngineConfig(backend="vectorized"))
        alternatives = [
            base.with_terms(occurrence_xl_terms(base.terms.occurrence_retention * 2,
                                                base.terms.occurrence_limit), name="higher-retention"),
            base.with_terms(occurrence_xl_terms(base.terms.occurrence_retention,
                                                base.terms.occurrence_limit * 0.5), name="lower-limit"),
        ]
        base_aal = engine.run(base, yet).ylt.layer(0).mean()
        for alternative in alternatives:
            alt_aal = engine.run(alternative, yet).ylt.layer(0).mean()
            assert alt_aal <= base_aal + 1e-9
