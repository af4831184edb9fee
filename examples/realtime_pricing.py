#!/usr/bin/env python3
"""Real-time pricing: evaluate alternative contract terms while on the phone.

Section IV of the paper motivates the GPU engine with this scenario: "an
underwriter analyses different contractual terms and pricing while discussing
a deal with a client over the phone", using ~50 K trials per evaluation.

The script prices one cedant's proposed layer under four alternative term
structures (different retentions, limits and a stop-loss variant).  Each
alternative re-runs the aggregate analysis against the *same* Year Event
Table and the *same* ELTs — only the terms change — so the engine's layer
cache makes each re-evaluation cheap, and the loss distributions are directly
comparable trial by trial.

Run with::

    python examples/realtime_pricing.py
"""

from __future__ import annotations

import time

from repro import AggregateRiskEngine, EngineConfig
from repro.financial.contracts import aggregate_xl_terms, combined_xl_terms, occurrence_xl_terms
from repro.portfolio.pricing import price_layer
from repro.workloads import WorkloadGenerator, bench_spec
from repro.ylt.metrics import compute_risk_metrics
from repro.ylt.reporting import format_layer_comparison


def main() -> None:
    # A 10,000-trial workload: large enough for stable tail metrics, small
    # enough for interactive turnaround in pure Python.
    spec = bench_spec(seed=77).scaled(n_trials=10_000)
    workload = WorkloadGenerator(spec).generate()
    base_layer = workload.program[0]

    # The quote under discussion: a per-occurrence XL with increasing
    # retention, a cheaper low-limit variant, and a combined structure with an
    # annual stop-loss cap.
    reference_loss = base_layer.terms.occurrence_limit
    alternatives = {
        "quoted terms": base_layer,
        "higher retention": base_layer.with_terms(
            occurrence_xl_terms(base_layer.terms.occurrence_retention * 2.0, reference_loss),
            name="higher retention",
        ),
        "halved limit": base_layer.with_terms(
            occurrence_xl_terms(base_layer.terms.occurrence_retention, reference_loss * 0.5),
            name="halved limit",
        ),
        "with annual cap": base_layer.with_terms(
            combined_xl_terms(
                base_layer.terms.occurrence_retention,
                reference_loss,
                base_layer.terms.occurrence_retention * 4.0,
                reference_loss * 2.0,
            ),
            name="with annual cap",
        ),
        "pure stop-loss": base_layer.with_terms(
            aggregate_xl_terms(base_layer.terms.occurrence_retention * 5.0, reference_loss * 3.0),
            name="pure stop-loss",
        ),
    }

    engine = AggregateRiskEngine(EngineConfig(backend="chunked", chunk_events=65_536,
                                              record_max_occurrence=False))
    metrics_by_name = {}
    pricing_by_name = {}
    for name, layer in alternatives.items():
        start = time.perf_counter()
        result = engine.run(layer, workload.yet)
        elapsed = time.perf_counter() - start
        year_losses = result.ylt.layer(0)
        metrics_by_name[name] = compute_risk_metrics(year_losses)
        pricing_by_name[name] = price_layer(layer, year_losses,
                                            volatility_loading=0.3, expense_ratio=0.15)
        print(f"re-priced {name!r:<20} in {elapsed * 1000:7.1f} ms "
              f"({result.n_trials:,} trials)")

    print("\nLoss comparison (per alternative):")
    print(format_layer_comparison(metrics_by_name, return_period=100.0))

    print("\nTechnical pricing:")
    for name, pricing in pricing_by_name.items():
        print(f"  {name:<20} {pricing.summary()}")
    print("\nGPU re-evaluation at 50K trials (projected, not measured): "
          "benchmarks/bench_scenario_realtime_pricing.py")


if __name__ == "__main__":
    main()
