#!/usr/bin/env python3
"""Quickstart: one aggregate analysis from synthetic data to risk metrics.

This is the 60-second tour of the library:

1. generate a synthetic workload (catalog -> exposure -> ELTs -> layers, plus
   a Year Event Table) from a single seed,
2. run the Aggregate Risk Engine with the default (vectorized) backend,
3. derive the standard portfolio risk metrics (AAL, PML, TVaR) from the
   resulting Year Loss Table and print a report,
4. batch-price several candidate-term variants of the program in one
   ``run_many`` invocation (the fused multi-layer path),
5. quote the program with secondary-uncertainty bands: every ELT loss becomes
   a distribution and all replications are priced in one replication-batched
   stacked pass (CLI equivalent: ``are uncertainty --replications 32``),
6. price a wider term sweep as one RiskService ``sweep`` request: the
   variants are concatenated into one program — identical ELT gathers are
   shared across variants — priced in row-bounded blocks, and a repeat is
   answered from the result cache (CLI equivalent:
   ``are sweep --variants 6 --block-rows 4``),
7. serve repeated requests from a warm RiskService: declarative JSON-able
   requests, a content-addressed cache of lowered plans and fused stacks,
   and cache/timing metadata on every response (CLI equivalents:
   ``are request --json '{...}'`` and the ``are serve`` NDJSON loop),
8. shard the run over disjoint trial ranges and merge the partial results
   *exactly* — then price the same workload out-of-core from a
   memory-mapped YET store, resident memory bounded by one shard (CLI
   equivalent: ``are run --shards 8``),
9. re-price after the Year Event Table *grows*: a result-caching service
   recognises that the new table's first trials are byte-identical to one
   it already priced, pushes only the appended trial range through the
   kernels and merges it into the cached year-loss blocks — bit-identical
   to a cold run of the whole extended table (CLI equivalent:
   ``are serve --result-cache``),
10. serve several clients *concurrently* from one warm process: an asyncio
    TCP front end multiplexes pipelined NDJSON clients over the same
    service, answers stay bit-identical to serial submission, and overload
    is rejected with a structured error instead of queueing unboundedly
    (CLI equivalent: ``are serve --listen 127.0.0.1:7332``),
11. distribute the run across a fleet: two worker processes listening on
    sockets each receive the plan once (digest-keyed), price disjoint
    trial shards pulled from a shared queue, and stream their partial
    results back into one accumulator — the merge is bit-identical to the
    monolithic run (CLI equivalent: ``are worker --listen 127.0.0.1:7401``
    on each box, then ``are run --fleet host1:7401,host2:7401``).

Every entry point above lowers to the same ExecutionPlan IR (one workload
description of tiles over trial blocks x stacked layer rows) that all five
backends schedule; power users can build plans directly with
``PlanBuilder`` and execute them via ``engine.run_plan(plan)``.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import AggregateRiskEngine, EngineConfig, RiskService
from repro.financial.terms import LayerTerms
from repro.portfolio import ReinsuranceProgram, batch_quote
from repro.uncertainty import (
    SecondaryUncertaintyAnalysis,
    UncertainEventLossTable,
    UncertainLayer,
)
from repro.workloads import WorkloadGenerator, bench_spec
from repro.ylt.metrics import compute_risk_metrics
from repro.ylt.reporting import format_metrics_report


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Build a workload: 2000 trials x 100 events/trial, one layer of 15
    #    ELTs over a 40,000-event catalog (a 1/500-scale version of the
    #    paper's headline configuration).
    # ------------------------------------------------------------------ #
    workload = WorkloadGenerator(bench_spec(seed=2012)).generate()
    print("Workload :", workload.summary())
    layer = workload.program[0]
    print("Layer    :", layer.name, "-", layer.contract_kind)
    print("Terms    :", layer.terms.describe())

    # ------------------------------------------------------------------ #
    # 2. Run the aggregate analysis.
    # ------------------------------------------------------------------ #
    engine = AggregateRiskEngine(EngineConfig(backend="vectorized", record_phases=True))
    result = engine.run(workload.program, workload.yet)
    print("\nAnalysis :", result.summary())
    print("Throughput: {:,.0f} (layer, trial) pairs / second".format(result.trials_per_second))
    if result.phase_breakdown is not None:
        print("\nWhere the time goes (measured):")
        print(result.phase_breakdown.format_table())

    # ------------------------------------------------------------------ #
    # 3. Portfolio risk metrics from the Year Loss Table.
    # ------------------------------------------------------------------ #
    year_losses = result.ylt.portfolio_losses()
    metrics = compute_risk_metrics(year_losses)
    print()
    print(format_metrics_report(metrics, title="Portfolio risk metrics"))

    # ------------------------------------------------------------------ #
    # 4. Batch pricing: quote several candidate-term variants in ONE engine
    #    invocation.  run_many concatenates the programs' layers and prices
    #    them all through the fused multi-layer kernel in a single pass over
    #    the Year Event Table; batch_quote turns the per-program year losses
    #    into technical premiums.
    # ------------------------------------------------------------------ #
    variants = []
    for scale in (0.9, 1.0, 1.1):
        layers = [
            lyr.with_terms(
                LayerTerms(
                    occurrence_retention=lyr.terms.occurrence_retention * scale,
                    occurrence_limit=lyr.terms.occurrence_limit,
                    aggregate_retention=lyr.terms.aggregate_retention * scale,
                    aggregate_limit=lyr.terms.aggregate_limit,
                )
            )
            for lyr in workload.program.layers
        ]
        variants.append(ReinsuranceProgram(layers, name=f"retention x{scale:.1f}"))

    quotes = batch_quote(variants, workload.yet, engine=AggregateRiskEngine())
    print("\nBatch pricing (one fused engine invocation, 3 term variants):")
    for quote in quotes:
        print("  ", quote.summary())

    # ------------------------------------------------------------------ #
    # 5. Banded quote under secondary uncertainty.  Each ELT loss becomes a
    #    Gamma distribution (CV = 0.5) and run_batched prices all 32 sampled
    #    replications as fused stack rows in a single pass over the YET —
    #    the percentile band around each metric is the price of the loss
    #    uncertainty, at roughly the cost of one batched pricing call.
    # ------------------------------------------------------------------ #
    uncertain_layers = [
        UncertainLayer(
            elts=[UncertainEventLossTable.from_elt(elt, cv=0.5) for elt in lyr.elts],
            terms=lyr.terms,
            name=lyr.name,
        )
        for lyr in workload.program.layers
    ]
    analysis = SecondaryUncertaintyAnalysis(
        uncertain_layers, config=EngineConfig(record_max_occurrence=False)
    )
    banded = analysis.quote(workload.yet, n_replications=32, rng=2012)
    print("\nBanded quote (32 replications, one stacked engine pass):")
    print("  ", banded.summary())
    aal_band = banded.band("aal")
    print(f"   AAL band: mean={aal_band.mean:,.0f} "
          f"p5={aal_band.low:,.0f} p95={aal_band.high:,.0f} "
          f"(relative spread {aal_band.relative_spread():.1%})")

    # ------------------------------------------------------------------ #
    # 6. Sweep: quote a wider term grid as one RiskService request.  The
    #    variants' layers share their ELT objects, so the concatenated plan
    #    dedupes their term-netted stack rows and the fused gather reads
    #    each distinct row once.  `max_rows_per_block` bounds one engine
    #    pass to 4 rows, and the result cache answers the repeat exactly.
    # ------------------------------------------------------------------ #
    sweep_service = RiskService(result_cache=True)
    sweep_service.register_yet("renewal", workload.yet)
    names = []
    for i in range(6):
        scale = 0.8 + 0.1 * i
        layers = [
            lyr.with_terms(
                LayerTerms(
                    occurrence_retention=lyr.terms.occurrence_retention * scale,
                    occurrence_limit=lyr.terms.occurrence_limit,
                    aggregate_retention=lyr.terms.aggregate_retention,
                    aggregate_limit=lyr.terms.aggregate_limit,
                )
            )
            for lyr in workload.program.layers
        ]
        names.append(f"grid x{scale:.1f}")
        sweep_service.register_program(names[-1], ReinsuranceProgram(layers, name=names[-1]))

    sweep = {"kind": "sweep", "programs": names, "yet": "renewal", "max_rows_per_block": 4}
    swept = sweep_service.submit(sweep)
    print("\nSweep (6 variants, <= 4 rows per engine pass):")
    for index, block in enumerate(swept.details["blocks"]):
        print(f"   block {index}: {block['rows']} rows "
              f"({block['n_unique_rows']} unique) in {block['wall_seconds']:.4f}s")
    for quote in swept.quotes:
        print("    ", quote.summary())
    repeat = sweep_service.submit(sweep)
    print(f"   repeat: result cache {repeat.result_cache['status']}, "
          f"{len(repeat.details['blocks'])} blocks priced")
    sweep_service.close()

    # ------------------------------------------------------------------ #
    # 7. Serve it: a warm RiskService answers declarative requests.  The
    #    request is pure data (dict/JSON); the service resolves the names
    #    against its registry, and a content-addressed PlanCache reuses the
    #    lowered plan + fused loss stack across requests — the second,
    #    warm submission skips every pre-kernel step and is bit-identical
    #    to the first.  `service.submit(json.dumps(request))` would behave
    #    identically, which is exactly what `are serve` does per stdin line.
    # ------------------------------------------------------------------ #
    risk_service = RiskService(EngineConfig(backend="vectorized"))
    risk_service.register_workload("renewal", workload)
    request = {"kind": "run", "program": "renewal"}
    cold = risk_service.submit(request)
    warm = risk_service.submit(request)
    print("\nRiskService request/response (same request twice):")
    print("   cold:", cold.summary())
    print("   warm:", warm.summary())
    print("  ", risk_service.cache_stats().summary())
    print("   warm == cold bit-for-bit:",
          bool((warm.result.ylt.losses == cold.result.ylt.losses).all()))
    risk_service.close()

    # ------------------------------------------------------------------ #
    # 8. Sharded + out-of-core execution.  Every backend runs a plan as a
    #    loop over disjoint trial shards whose PartialResults merge exactly
    #    (per-trial reductions are trial-local, so any shard count is
    #    bit-identical to the monolithic run).  Writing the YET to a store
    #    directory and pricing it through YetShardReader keeps only one
    #    shard's event columns resident — the out-of-core path for tables
    #    bigger than RAM.
    # ------------------------------------------------------------------ #
    import tempfile
    from pathlib import Path

    from repro.yet import YetShardReader, save_yet_store

    sharded_engine = AggregateRiskEngine(
        EngineConfig(backend="vectorized", trial_shards=8)
    )
    sharded = sharded_engine.run(workload.program, workload.yet)
    print("\nSharded run (8 trial shards, merged exactly):")
    print("  ", sharded.summary())
    print("   sharded == monolithic bit-for-bit:",
          bool((sharded.ylt.losses == result.ylt.losses).all()))

    with tempfile.TemporaryDirectory() as tmp:
        store = save_yet_store(workload.yet, Path(tmp) / "yet_store")
        with YetShardReader(store) as reader:
            out_of_core = AggregateRiskEngine(EngineConfig()).run_sharded(
                workload.program, reader, n_shards=8
            )
    print("   out-of-core (memory-mapped store, 8 shards):",
          out_of_core.details["sharded"])
    print("   out-of-core == monolithic bit-for-bit:",
          bool((out_of_core.ylt.losses == result.ylt.losses).all()))

    # ------------------------------------------------------------------ #
    # 9. Append-trials warm delta.  The catalog vendor ships 100 more
    #    simulated years; the result-caching service sees that the extended
    #    table's first 2000 trials hash to a YET it has already priced, so
    #    only the appended range goes through the kernels and its partial
    #    result merges into the cached blocks — bit-identical to pricing
    #    the whole extended table cold.
    # ------------------------------------------------------------------ #
    import numpy as np

    from repro.yet import YearEventTable

    rng = np.random.default_rng(2013)
    yet = workload.yet
    lengths = rng.integers(1, int(yet.mean_events_per_trial * 2) + 1, size=100)
    extra_offsets = np.concatenate([[0], np.cumsum(lengths)])
    extended_yet = YearEventTable(
        np.concatenate(
            [yet.event_ids, rng.integers(0, yet.catalog_size, size=int(lengths.sum()))]
        ),
        np.concatenate([yet.trial_offsets, extra_offsets[1:] + yet.n_occurrences]),
        yet.catalog_size,
        yet.timestamps if yet.timestamps is None else np.concatenate(
            [yet.timestamps, np.sort(rng.random(int(lengths.sum())))]
        ),
    )

    caching_service = RiskService(EngineConfig(backend="vectorized"), result_cache=True)
    caching_service.register_program("renewal", workload.program)
    caching_service.register_yet("renewal", yet)
    base = caching_service.submit({"kind": "run", "program": "renewal"})

    caching_service.register_yet("renewal", extended_yet)
    delta = caching_service.submit({"kind": "run", "program": "renewal"})
    cold = RiskService(EngineConfig(backend="vectorized"))
    cold.register_program("renewal", workload.program)
    cold.register_yet("renewal", extended_yet)
    cold_run = cold.submit({"kind": "run", "program": "renewal"})

    print("\nAppend-trials warm delta (+100 trials on a result-caching service):")
    print("   base    :", base.result_cache["status"],
          f"({yet.n_trials} trials priced, cached)")
    print("   delta   :", delta.result_cache["status"],
          f"({delta.result_cache['repriced_trials']} trials repriced, "
          f"{delta.result_cache['cached_trials']} served from cache)")
    print("  ", caching_service.result_cache_stats().summary())
    print("   delta == cold extended run bit-for-bit:",
          bool((delta.result.ylt.losses == cold_run.result.ylt.losses).all()))
    caching_service.close()
    cold.close()

    # ------------------------------------------------------------------ #
    # 10. Concurrent serving.  One warm service behind the asyncio TCP
    #     front end answers pipelined clients; request "id"s match answers
    #     to questions, and every answer is bit-identical to a serial
    #     submission of the same document.
    # ------------------------------------------------------------------ #
    from repro.service.server import ServeClient, ServerThread

    serving = RiskService(EngineConfig(backend="vectorized"))
    serving.register_program("book", workload.program)
    serving.register_yet("book", workload.yet)
    serial_aal = serving.submit({"kind": "run", "program": "book"}).to_dict()[
        "results"
    ][0]["portfolio_aal"]

    with ServerThread(serving, max_inflight=2, queue_depth=8) as handle:
        with ServeClient(handle.server.host, handle.server.port) as client:
            for i in range(4):  # pipelined: all four sent before any answer
                client.send({"kind": "run", "program": "book", "id": i})
            answers = [client.recv() for _ in range(4)]
            stats = client.request({"op": "stats"})["stats"]

    print("\nConcurrent serving (4 pipelined requests over one TCP connection):")
    print("   answers :", sorted(answer["id"] for answer in answers))
    print("   served == serial bit-for-bit:",
          all(a["results"][0]["portfolio_aal"] == serial_aal for a in answers))
    print(f"   server  : served {stats['served']} | "
          f"p99 {stats['p99_seconds'] * 1e3:.1f}ms")
    serving.close()

    # ------------------------------------------------------------------ #
    # 11. Distributed fleet execution.  Each worker listens on a socket
    #     (`are worker --listen ...` runs the same class as a process);
    #     the coordinator ships the program and YET once, workers pull
    #     trial shards from a shared queue — work stealing, so a fast
    #     worker prices more shards — and every PartialResult streams
    #     back into one accumulator the moment it is priced.  Placement
    #     is pure column assembly: the merged table is bit-identical to
    #     the monolithic run, and a worker lost mid-run only costs its
    #     unfinished shards a reassignment.
    # ------------------------------------------------------------------ #
    from repro.distributed import FleetWorker

    with FleetWorker(config=EngineConfig(backend="vectorized")) as w1, FleetWorker(
        config=EngineConfig(backend="vectorized")
    ) as w2:
        fleet = engine.run_distributed(
            workload.program,
            workload.yet,
            workers=[w1.address, w2.address],
            n_shards=8,
        )
    print("\nDistributed fleet (2 socket workers, 8 shards, work stealing):")
    print("  ", fleet.summary())
    print("   shards per worker:",
          dict(fleet.details["fleet"]["shards_per_worker"]))
    print("   fleet == monolithic bit-for-bit:",
          bool((fleet.ylt.losses == result.ylt.losses).all()))


if __name__ == "__main__":
    main()
