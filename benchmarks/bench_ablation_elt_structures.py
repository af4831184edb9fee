"""Ablation — ELT lookup structures (Section III-B's design discussion).

The paper argues for direct access tables over compact representations
(sorted arrays with binary search, hash tables) because the aggregate analysis
is bound by random ELT lookups and the direct access table needs exactly one
memory access per lookup.  This ablation measures the batched random-lookup
throughput of the three structures on an ELT with the paper's sparsity
(20 K non-zero records against a much larger catalog) and records their memory
footprints.
"""

import numpy as np
import pytest

from repro.elt.direct_access import DirectAccessTable
from repro.elt.table import EventLossTable

from .paper.lookup_structures import HashedEventLossTable, SortedEventLossTable

CATALOG_SIZE = 500_000
N_RECORDS = 20_000
N_QUERIES = 200_000

STRUCTURES = {
    "direct_access": DirectAccessTable,
    "sorted_binary_search": SortedEventLossTable,
    "hashed_open_addressing": HashedEventLossTable,
}


@pytest.fixture(scope="module")
def elt() -> EventLossTable:
    rng = np.random.default_rng(42)
    event_ids = rng.choice(CATALOG_SIZE, size=N_RECORDS, replace=False)
    losses = rng.gamma(2.0, 1e5, size=N_RECORDS)
    return EventLossTable(event_ids, losses, CATALOG_SIZE, name="ablation")


@pytest.fixture(scope="module")
def queries() -> np.ndarray:
    # Uniform random event ids: the YET draws events from the whole catalog,
    # so most lookups miss (zero loss), exactly as in the real engine.
    return np.random.default_rng(7).integers(0, CATALOG_SIZE, size=N_QUERIES)


@pytest.mark.benchmark(group="ablation-elt-structures")
@pytest.mark.parametrize("name", list(STRUCTURES))
def test_ablation_lookup_throughput(benchmark, elt, queries, name):
    structure = STRUCTURES[name](elt)
    reference = DirectAccessTable(elt).lookup_many(queries)

    result = benchmark(lambda: structure.lookup_many(queries))

    np.testing.assert_allclose(result, reference)
    benchmark.extra_info["ablation"] = "elt-structures"
    benchmark.extra_info["structure"] = name
    benchmark.extra_info["memory_bytes"] = structure.memory_bytes
    benchmark.extra_info["n_queries"] = N_QUERIES
    benchmark.extra_info["catalog_size"] = CATALOG_SIZE
    benchmark.extra_info["n_records"] = N_RECORDS


def test_ablation_memory_tradeoff(elt):
    """Direct access trades memory for lookup speed, as the paper states."""
    direct = DirectAccessTable(elt)
    compact = SortedEventLossTable(elt)
    assert direct.memory_bytes > 10 * compact.memory_bytes
