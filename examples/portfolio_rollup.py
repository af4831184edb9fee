#!/usr/bin/env python3
"""Portfolio roll-up: the weekly portfolio-update scenario.

Section IV of the paper: "Aggregate analysis using 50K trials on complete
portfolios consisting of 5000 contracts can be completed in around 24 hours
which may be sufficiently fast to support weekly portfolio updates performed
to account for changes such as currency fluctuations."

This example runs a (scaled-down) portfolio of layers of mixed contract types
through the multicore backend, rolls the per-layer Year Loss Tables up to
portfolio level, and prints the portfolio metrics, per-layer contributions,
group-level views and the diversification benefit — the quantities a portfolio
manager reviews in the weekly update.

Run with::

    python examples/portfolio_rollup.py
"""

from __future__ import annotations

from repro import AggregateRiskEngine, EngineConfig
from repro.core.multicore import available_cores
from repro.portfolio.rollup import portfolio_rollup
from repro.workloads import WorkloadGenerator, bench_spec
from repro.ylt.reporting import format_layer_comparison, format_metrics_report


def main() -> None:
    # A portfolio of 8 layers x 5 ELTs over 4000 trials.
    spec = bench_spec(seed=2026).scaled(n_trials=4000, n_layers=8, elts_per_layer=5)
    workload = WorkloadGenerator(spec).generate()
    program = workload.program
    print(f"Portfolio: {program.n_layers} layers, "
          f"{program.mean_elts_per_layer:.0f} ELTs/layer, "
          f"{workload.yet.n_trials:,} trials")
    print(f"Direct-access-table memory estimate: "
          f"{program.memory_estimate_bytes() / 1e6:.0f} MB\n")

    engine = AggregateRiskEngine(EngineConfig(
        backend="multicore",
        n_workers=max(available_cores(), 1),
    ))
    result = engine.run(program, workload.yet)
    print("Analysis :", result.summary(), "\n")

    rollup = portfolio_rollup(result.ylt, program, reference_return_period=100.0)

    print(format_metrics_report(rollup.portfolio_metrics, title="Portfolio (all layers combined)"))
    print()
    print("Per-layer view:")
    print(format_layer_comparison(rollup.layer_metrics, return_period=100.0))
    print()
    if rollup.group_metrics:
        print("By contract family:")
        print(format_layer_comparison(rollup.group_metrics, return_period=100.0))
        print()
    print(f"Diversification benefit at 100yr PML: {rollup.diversification_benefit:.1%}")


if __name__ == "__main__":
    main()
