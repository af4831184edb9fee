"""Replicated aggregate analysis under secondary uncertainty.

Each replication draws one realisation of every uncertain ELT, prices the
resulting layers over the Year Event Table and records the risk metrics.
Across replications the metrics form empirical distributions whose spread
quantifies how much of the answer is driven by the loss uncertainty rather
than by the event sequence uncertainty already captured in the YET.

Two execution strategies produce those replications:

* **batched** (:meth:`SecondaryUncertaintyAnalysis.run_batched`, the default
  method) — all ``R`` replications are sampled up front from per-replication
  child streams (:func:`~repro.utils.rng.spawn_rngs`), stacked into one
  ``(R * n_layers, catalog_size)`` fused loss stack and priced in a single
  stacked engine pass (:meth:`~repro.core.engine.AggregateRiskEngine.run_stacked`,
  which lowers the rows to a synthetic
  :class:`~repro.core.plan.ExecutionPlan` executed by the backend's plan
  scheduler) over the YET.  A streamed variant (``replication_block``) draws
  and prices blocks of replications so the chunked/multicore backends keep
  their bounded working set.
* **replay** (``method="replay"``) — the original per-replication loop: one
  full engine invocation per replication.  It consumes the *same*
  per-replication child streams, so with a fixed seed the two methods produce
  identical draws and (backend for backend) identical metrics; replay is the
  conformance oracle the batched path is tested against.

Example — a banded quote from the command line or from Python::

    are uncertainty --preset bench --replications 64 --cv 0.6

    analysis = SecondaryUncertaintyAnalysis(uncertain_layers)
    bands = analysis.run_batched(yet, n_replications=64, rng=2012)
    print(bands["aal"].low, bands["aal"].mean, bands["aal"].high)
    quote = analysis.quote(yet, n_replications=64, rng=2012)  # ProgramQuote
    print(quote.summary())                     # includes the AAL band
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.kernels import replication_portfolio_losses
from repro.core.plan import PlanBuilder
from repro.elt.combined import scatter_net_losses
from repro.financial.terms import LayerTerms, LayerTermsVectors
from repro.portfolio.layer import Layer
from repro.portfolio.pricing import ProgramQuote, price_program
from repro.portfolio.program import ReinsuranceProgram
from repro.uncertainty.table import UncertainEventLossTable
from repro.utils.rng import RNGLike, derive_rng, spawn_rngs
from repro.ylt.metrics import compute_risk_metrics, compute_risk_metrics_batch
from repro.yet.table import YearEventTable

__all__ = ["UncertainLayer", "ReplicationSummary", "SecondaryUncertaintyAnalysis"]


@dataclass(frozen=True)
class UncertainLayer:
    """A layer whose ELTs carry loss distributions."""

    elts: Sequence[UncertainEventLossTable]
    terms: LayerTerms
    name: str = ""

    def __post_init__(self) -> None:
        if not self.elts:
            raise ValueError("an uncertain layer must cover at least one ELT")
        catalog_sizes = {elt.catalog_size for elt in self.elts}
        if len(catalog_sizes) != 1:
            raise ValueError("all ELTs of a layer must share one catalog size")

    @property
    def n_elts(self) -> int:
        """Number of uncertain ELTs the layer covers."""
        return len(self.elts)

    @property
    def catalog_size(self) -> int:
        """Size of the event catalog the layer's ELTs refer to."""
        return self.elts[0].catalog_size

    def expected_layer(self) -> Layer:
        """The layer built from the expected (mean) losses."""
        return Layer([elt.expected_elt() for elt in self.elts], self.terms, name=self.name)

    def sample_layer(self, rng: RNGLike = None) -> Layer:
        """One realisation of the layer's ELTs."""
        generator = derive_rng(rng)
        return Layer([elt.sample_elt(generator) for elt in self.elts], self.terms, name=self.name)

    def sample_net_row(self, rng: RNGLike = None, scratch: np.ndarray | None = None) -> np.ndarray:
        """One sampled realisation's combined term-netted dense loss row.

        Draws every ELT from ``rng`` in the same order as
        :meth:`sample_layer` and returns the ``(catalog_size,)`` loss vector
        net of the per-ELT financial terms, combined across the layer's ELTs
        — bit-identical to building the sampled
        :class:`~repro.portfolio.layer.Layer` and asking its loss matrix for
        :meth:`~repro.elt.combined.LayerLossMatrix.combined_net_losses`,
        because both scatter the netted records through
        :func:`~repro.elt.combined.scatter_net_losses` (``O(records)`` per
        replication).  ``scratch`` may supply a reusable ``(catalog_size,)``
        buffer.
        """
        generator = derive_rng(rng)
        if scratch is None:
            scratch = np.zeros(self.catalog_size, dtype=np.float64)
        else:
            if scratch.shape != (self.catalog_size,):
                raise ValueError(
                    f"scratch shape {scratch.shape} does not match ({self.catalog_size},)"
                )
            scratch.fill(0.0)
        return scatter_net_losses(
            ((elt.event_ids, elt.sample_losses(generator), elt.terms) for elt in self.elts),
            scratch,
        )


@dataclass(frozen=True)
class ReplicationSummary:
    """Distribution of a risk metric across replications.

    Attributes
    ----------
    mean, std:
        Moments of the metric over replications.
    low, high:
        The 5th and 95th percentiles over replications.
    values:
        The raw per-replication values.
    """

    mean: float
    std: float
    low: float
    high: float
    values: np.ndarray

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "ReplicationSummary":
        array = np.asarray(values, dtype=np.float64)
        if array.size == 0:
            raise ValueError("cannot summarise zero replications")
        return cls(
            mean=float(array.mean()),
            std=float(array.std(ddof=1)) if array.size > 1 else 0.0,
            low=float(np.percentile(array, 5.0)),
            high=float(np.percentile(array, 95.0)),
            values=array,
        )

    def relative_spread(self) -> float:
        """(p95 - p5) / mean; zero when the mean is zero."""
        if self.mean == 0.0:
            return 0.0
        return (self.high - self.low) / self.mean


class SecondaryUncertaintyAnalysis:
    """Replicated aggregate analysis over uncertain layers.

    :meth:`run_batched` is the production path: it samples every replication
    from its own child stream, stacks all sampled realisations into fused
    rows and prices them in one stacked engine pass over the YET (optionally
    streaming blocks of replications).  ``method="replay"`` runs the same
    draws through one engine invocation per replication and serves as the
    conformance oracle.  :meth:`run` is the legacy loop drawing from a single
    shared stream (kept for backward-compatible seeds).

    Parameters
    ----------
    layers:
        The uncertain layers forming the program.
    config:
        Engine configuration for each replication (vectorized by default).
        ``config.replication_block`` sets the default streaming block size of
        :meth:`run_batched`.
    engine:
        An existing engine to price replications on instead of constructing
        one from ``config`` — the :class:`~repro.service.service.RiskService`
        passes its *warm* engine here so banded quotes share the service's
        retained workspaces.  When given, its config wins over ``config``.
    """

    def __init__(self, layers: Sequence[UncertainLayer],
                 config: EngineConfig | None = None,
                 engine: "AggregateRiskEngine | None" = None) -> None:
        if not layers:
            raise ValueError("at least one uncertain layer is required")
        self.layers = tuple(layers)
        catalog_sizes = {layer.catalog_size for layer in self.layers}
        if len(catalog_sizes) != 1:
            raise ValueError(
                f"all uncertain layers must share one catalog size, got {sorted(catalog_sizes)}"
            )
        if engine is not None:
            self.config = engine.config
        else:
            self.config = config if config is not None else EngineConfig(
                backend="vectorized", record_max_occurrence=False
            )
        self._engine = engine

    @property
    def engine(self) -> AggregateRiskEngine:
        """The engine every replication is priced on (built lazily once)."""
        if self._engine is None:
            self._engine = AggregateRiskEngine(self.config)
        return self._engine

    @property
    def n_layers(self) -> int:
        """Number of uncertain layers in the program."""
        return len(self.layers)

    @property
    def catalog_size(self) -> int:
        """Size of the event catalog shared by every layer."""
        return self.layers[0].catalog_size

    def expected_program(self) -> ReinsuranceProgram:
        """The program built from expected losses (no secondary uncertainty)."""
        return ReinsuranceProgram(
            [layer.expected_layer() for layer in self.layers], name="expected"
        )

    # ------------------------------------------------------------------ #
    # Metric bookkeeping shared by every execution strategy
    # ------------------------------------------------------------------ #
    @staticmethod
    def _metric_names(return_periods: Sequence[float],
                      tvar_levels: Sequence[float]) -> List[str]:
        names = ["aal"]
        names.extend(f"pml_{rp:g}" for rp in return_periods)
        names.extend(f"tvar_{level:g}" for level in tvar_levels)
        return names

    @staticmethod
    def _collect_metrics(store: Mapping[str, list], portfolio_losses: np.ndarray,
                         return_periods: Sequence[float],
                         tvar_levels: Sequence[float]) -> None:
        """Append the metrics of every row of ``(n_replications, n_trials)`` losses."""
        for metrics in compute_risk_metrics_batch(portfolio_losses, return_periods, tvar_levels):
            store["aal"].append(metrics.aal)
            for return_period in return_periods:
                store[f"pml_{return_period:g}"].append(metrics.pml[return_period])
            for level in tvar_levels:
                store[f"tvar_{level:g}"].append(metrics.tvar[level])

    # ------------------------------------------------------------------ #
    # Replication engines
    # ------------------------------------------------------------------ #
    def run_batched(
        self,
        yet: YearEventTable,
        n_replications: int,
        rng: RNGLike = None,
        return_periods: Sequence[float] = (100.0, 250.0),
        tvar_levels: Sequence[float] = (0.99,),
        method: str = "batched",
        replication_block: int | None = None,
        trial_shards: int = 0,
    ) -> Dict[str, ReplicationSummary]:
        """Run the replicated analysis through the fused batch engine.

        Every replication ``r`` draws from child stream ``r`` of ``rng``
        (:func:`~repro.utils.rng.spawn_rngs`), so the draws — and therefore
        the metrics — do not depend on the execution strategy, the streaming
        block size or the backend's worker count.

        Parameters
        ----------
        method:
            ``"batched"`` (default) stacks all replications of every layer
            into ``R * n_layers`` fused rows and prices them in one stacked
            engine pass per replication block.  ``"replay"`` runs one full
            engine invocation per replication on the same draws — the
            conformance oracle.
        replication_block:
            Replications sampled and priced per fused pass (batched method
            only).  Defaults to ``config.replication_block``; ``0`` or
            ``None`` there means all replications in a single pass.
        trial_shards:
            Execute each engine pass as this many exactly-merged trial
            shards (``0`` = the engine config's ``trial_shards``), bounding
            the fused gather to one shard's events.  Sharding never moves a
            bit, so the bands are unchanged by it.

        Returns a mapping with keys ``"aal"``, ``"pml_<rp>"`` and
        ``"tvar_<level>"`` describing the distribution of each metric across
        replications.
        """
        if n_replications <= 0:
            raise ValueError(f"n_replications must be positive, got {n_replications}")
        if method not in ("batched", "replay"):
            raise ValueError(f"method must be 'batched' or 'replay', got {method!r}")
        n_replications = int(n_replications)
        rngs = spawn_rngs(rng, n_replications)
        metric_values: Dict[str, list] = {
            name: [] for name in self._metric_names(return_periods, tvar_levels)
        }
        engine = self.engine

        if method == "replay":
            for replication_rng in rngs:
                program = ReinsuranceProgram(
                    [layer.sample_layer(replication_rng) for layer in self.layers],
                    name="replication",
                )
                result = engine.run_plan(
                    PlanBuilder.from_program(program, yet, n_shards=trial_shards)
                )
                self._collect_metrics(
                    metric_values, result.ylt.portfolio_losses()[np.newaxis],
                    return_periods, tvar_levels,
                )
        else:
            if replication_block is None:
                replication_block = self.config.replication_block
            block = int(replication_block) if replication_block else n_replications
            if block <= 0:
                raise ValueError(f"replication_block must be positive, got {block}")
            block = min(block, n_replications)

            n_layers = self.n_layers
            terms_vectors = LayerTermsVectors.from_terms(
                [layer.terms for layer in self.layers]
            )
            # One reusable catalog-sized scratch: every sampled row is built
            # in it and copied into the block's stack, so the streamed
            # working set is the block's stack plus a single row buffer.
            scratch = np.zeros(self.catalog_size, dtype=np.float64)
            stack = np.empty((block * n_layers, self.catalog_size), dtype=np.float64)
            for start in range(0, n_replications, block):
                stop = min(start + block, n_replications)
                block_size = stop - start
                for index, replication_rng in enumerate(rngs[start:stop]):
                    for layer_index, layer in enumerate(self.layers):
                        stack[index * n_layers + layer_index] = layer.sample_net_row(
                            replication_rng, scratch=scratch
                        )
                result = engine.run_stacked(
                    stack[: block_size * n_layers],
                    terms_vectors.tile(block_size),
                    yet,
                    n_shards=trial_shards,
                )
                self._collect_metrics(
                    metric_values,
                    replication_portfolio_losses(result.ylt.losses, n_layers),
                    return_periods, tvar_levels,
                )

        return {name: ReplicationSummary.from_values(values)
                for name, values in metric_values.items()}

    def run(
        self,
        yet: YearEventTable,
        n_replications: int,
        rng: RNGLike = None,
        return_periods: Sequence[float] = (100.0, 250.0),
        tvar_levels: Sequence[float] = (0.99,),
    ) -> Dict[str, ReplicationSummary]:
        """Legacy replicated analysis drawing from one shared stream.

        All replications consume the single generator derived from ``rng``
        sequentially (so seeds from before the batched engine existed keep
        their meaning).  New code should prefer :meth:`run_batched`, which
        gives every replication its own child stream and prices all of them
        in one fused pass.

        Returns a mapping with keys ``"aal"``, ``"pml_<rp>"`` and
        ``"tvar_<level>"`` describing the distribution of each metric across
        replications.
        """
        if n_replications <= 0:
            raise ValueError(f"n_replications must be positive, got {n_replications}")
        generator = derive_rng(rng)
        engine = self.engine
        metric_values: Dict[str, list] = {
            name: [] for name in self._metric_names(return_periods, tvar_levels)
        }
        for _ in range(int(n_replications)):
            program = ReinsuranceProgram(
                [layer.sample_layer(generator) for layer in self.layers], name="replication"
            )
            result = engine.run(program, yet)
            self._collect_metrics(
                metric_values, result.ylt.portfolio_losses()[np.newaxis],
                return_periods, tvar_levels,
            )
        return {name: ReplicationSummary.from_values(values)
                for name, values in metric_values.items()}

    # ------------------------------------------------------------------ #
    # Deterministic reference & banded quoting
    # ------------------------------------------------------------------ #
    def expected_metrics(
        self,
        yet: YearEventTable,
        return_periods: Sequence[float] = (100.0, 250.0),
    ) -> Mapping[str, float]:
        """Metrics of the expected-loss (deterministic) analysis, for comparison."""
        engine = self.engine
        result = engine.run(self.expected_program(), yet)
        metrics = compute_risk_metrics(
            result.ylt.portfolio_losses(), return_periods, tvar_levels=()
        )
        return {
            "aal": metrics.aal,
            **{f"pml_{rp:g}": metrics.pml[rp] for rp in return_periods},
        }

    def quote(
        self,
        yet: YearEventTable,
        n_replications: int,
        rng: RNGLike = None,
        volatility_loading: float = 0.3,
        expense_ratio: float = 0.15,
        return_periods: Sequence[float] = (100.0, 250.0),
        tvar_levels: Sequence[float] = (0.99,),
        method: str = "batched",
        replication_block: int | None = None,
    ) -> ProgramQuote:
        """Banded quote: expected-loss pricing plus replication bands.

        Prices the expected (mean-loss) program the standard way and attaches
        the :meth:`run_batched` metric distributions, so the quote carries
        both the technical premium and how far secondary uncertainty moves
        the portfolio metrics (e.g. ``quote.band("aal").relative_spread()``).
        """
        program = self.expected_program()
        engine = self.engine
        result = engine.run(program, yet)
        uncertainty = self.run_batched(
            yet,
            n_replications,
            rng=rng,
            return_periods=return_periods,
            tvar_levels=tvar_levels,
            method=method,
            replication_block=replication_block,
        )
        return price_program(
            program,
            result.ylt,
            volatility_loading=volatility_loading,
            expense_ratio=expense_ratio,
            uncertainty=uncertainty,
        )
