"""Distributed fleet execution over the PartialResult algebra.

The scaling axis beyond one box, and one more parallel mapping of the same
algorithm: the coordinator prices a plan through the shard driver
(:func:`repro.core.driver.run_plan`) like every backend, but its map ships
``(program digest, shard trial range, YET store reference)`` tuples to
worker processes over TCP.  Each worker prices its shard with ``run_plan``
on its configured backend, and the serialized
:class:`~repro.core.results.PartialResult` blocks stream back into the
driver as they arrive.  Because disjoint trial-shard merges are
bit-identical to monolithic runs, the fleet's answer is exactly the
single-process answer — whatever the backend, the shard count, or the
completion order.

* :mod:`repro.distributed.worker` — ``are worker``: a warm, digest-keyed
  artifact cache and one cached plan per workload, served as a role on
  :class:`~repro.service.server.RiskServer` (the one socket server, whose
  framing carries binary payloads after the control line);
* :mod:`repro.distributed.fleet` — the coordinator: a remote-map
  ``ShardRun`` with work stealing, per-worker timeout + one retry, and
  requeue of a dead worker's shard to the survivors.

Entry points: :meth:`repro.core.engine.AggregateRiskEngine.run_distributed`,
the ``workers`` field of :class:`~repro.service.request.AnalysisRequest`,
and the ``are worker`` CLI command.
"""

from repro.distributed.fleet import (
    FleetEngine,
    FleetError,
    MissingArtifact,
    WorkerClient,
    WorkerError,
)
from repro.distributed.worker import FleetWorker, WorkerProcess

__all__ = [
    "FleetEngine",
    "FleetError",
    "FleetWorker",
    "MissingArtifact",
    "WorkerClient",
    "WorkerError",
    "WorkerProcess",
]
