"""The gathered-row store: same bits, no re-gather, bounded bytes, no leaks."""

import gc
import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import row_store
from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.row_store import RowStore, gather_rows
from repro.elt.table import EventLossTable
from repro.service.service import RiskService, candidate_variants
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from repro.yet.table import YearEventTable

CATALOG = 900


@pytest.fixture()
def store(monkeypatch):
    """A fresh process-wide store for one test."""
    fresh = RowStore()
    monkeypatch.setattr(row_store, "ROW_STORE", fresh)
    return fresh


def _book(seed: int = 11):
    spec = WorkloadSpec(
        n_trials=64, events_per_trial=15, n_layers=3, elts_per_layer=3,
        catalog_size=CATALOG, buildings_per_exposure=20, n_regions=4,
        fixed_trial_length=False, seed=seed,
    )
    return WorkloadGenerator(spec).generate()


def _yet(seed: int, n_trials: int = 40) -> YearEventTable:
    rng = np.random.default_rng(seed)
    offsets = np.concatenate(([0], np.cumsum(rng.integers(0, 20, n_trials))))
    return YearEventTable(rng.integers(0, CATALOG, int(offsets[-1])), offsets, CATALOG)


def _sha(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(result.ylt.losses.tobytes())
        digest.update(result.ylt.max_occurrence_losses.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("shards", [1, 8])
def test_cold_warm_and_bypassed_runs_hash_alike(store, monkeypatch, shards):
    book = _book()
    variants = candidate_variants(book.program, 6)

    def priced(backend="vectorized"):
        config = EngineConfig(backend=backend, trial_shards=shards, n_workers=1)
        engine = AggregateRiskEngine(config)
        return _sha(engine.run(variant, book.yet) for variant in variants)

    cold = priced()
    assert store.misses == shards and store.hits == shards * 5  # one block per window
    warm = priced()
    assert store.misses == shards
    monkeypatch.setattr(row_store, "ROW_STORE", RowStore(budget_bytes=0))
    bypassed = priced()
    # Streamed chunks, or one contiguous stack: paths that never use the store.
    assert cold == warm == bypassed == priced("chunked") == priced("multicore") == priced("native")


def test_a_warm_term_variant_gathers_no_row(store, monkeypatch):
    book = _book()
    base, variant = candidate_variants(book.program, 2)
    engine = AggregateRiskEngine(EngineConfig())
    engine.run(base, book.yet)
    takes = []
    real_take = np.take

    def spy(array, *args, **kwargs):
        takes.append(np.shape(array))
        return real_take(array, *args, **kwargs)

    monkeypatch.setattr(np, "take", spy)
    hits = store.hits
    engine.run(variant, book.yet)
    assert takes == []
    assert store.hits - hits == 1


def _row(seed: int) -> np.ndarray:
    """A read-only row owning its data, like a layer's combined net row."""
    row = np.random.default_rng(seed).random(CATALOG)
    row.flags.writeable = False
    return row


def test_lru_eviction_at_the_budget():
    yet = _yet(0)
    ids = yet.event_ids
    store = RowStore(budget_bytes=3 * ids.nbytes)
    rows = [_row(seed) for seed in range(4)]
    for row in rows:
        gathered = store.take([row], ids)
        np.testing.assert_array_equal(gathered, np.take(row, ids)[None])
        assert not gathered.flags.writeable
    assert store.stats()["entries"] == 3 and store.evictions == 1
    assert store.nbytes == 3 * ids.nbytes <= store.budget_bytes
    for row in rows[1:]:  # still resident
        store.take([row], ids)
    assert (store.hits, store.misses) == (3, 4)
    store.take(rows[:1], ids)  # the least recently used went first
    assert (store.hits, store.misses) == (3, 5)
    # An entry larger than the whole budget is never admitted.
    small = RowStore(budget_bytes=2 * ids.nbytes)
    np.testing.assert_array_equal(small.take(rows, ids), np.take(np.stack(rows), ids, axis=1))
    assert small.stats()["entries"] == 0 and small.misses == 0


def test_only_read_only_rows_over_read_only_windows_are_admitted():
    yet = _yet(1)
    store = RowStore()
    store.take([np.random.default_rng(0).random(CATALOG)], yet.event_ids)  # writeable row
    store.take([_row(0)], yet.event_ids.copy())  # writeable window
    stack = np.random.default_rng(0).random((2, CATALOG))
    stack.flags.writeable = False
    store.take(list(stack), yet.event_ids)  # views into a from_stack stack
    assert store.stats()["entries"] == 0


def test_dropping_the_yet_or_the_program_returns_the_bytes(store):
    book = _book(seed=12)
    program = book.program
    del book
    engine = AggregateRiskEngine(EngineConfig())
    yet = _yet(2)
    engine.run(program, yet)
    assert store.stats()["bytes"] == program.n_layers * yet.event_ids.nbytes
    del yet
    gc.collect()
    assert store.stats()["bytes"] == 0
    yet = _yet(3)
    engine.run(program, yet)
    assert store.stats()["bytes"] > 0
    del program
    gc.collect()
    assert store.stats()["bytes"] == store.stats()["entries"] == 0


def test_threads_price_variants_concurrently(monkeypatch):
    """More threads than cores, switching often: no lost update, same bytes."""
    book = _book()
    variants = candidate_variants(book.program, 8)
    engine = AggregateRiskEngine(EngineConfig())
    serial = [engine.run(variant, book.yet).ylt.losses.tobytes() for variant in variants]
    store = RowStore()
    monkeypatch.setattr(row_store, "ROW_STORE", store)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(engine.run, variant, book.yet) for variant in variants * 4]
            threaded = [future.result(timeout=60).ylt.losses.tobytes() for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 4
    assert store.hits + store.misses == len(futures)
    assert store.nbytes == sum(entry[0].nbytes for entry in store._entries.values())
    assert store.stats()["entries"] == 1


def test_a_cached_plan_holds_no_stack_after_a_vectorized_run(store):
    book = _book()
    with RiskService() as service:
        service.register_program("book", book.program)
        service.register_yet("book", book.yet)
        for _ in range(2):
            service.submit({"kind": "run", "program": "book", "yet": "book"})
        (plan,) = service.cache._entries.values()
    assert plan._stack is None and plan._stack_f32 is None
    combined = [layer.loss_matrix().combined_net_losses() for layer in book.program.layers]
    assert all(row is net for row, net in zip(plan.rows(), combined))  # referenced, not copied


@pytest.mark.parametrize("column", ["event_ids", "trial_offsets", "timestamps"])
def test_year_event_table_columns_are_read_only(column):
    yet = YearEventTable([1, 2, 3], [0, 2, 3], 10, timestamps=[0.1, 0.2, 0.5])
    with pytest.raises(ValueError, match="read-only"):
        getattr(yet, column)[0] = 0


@pytest.mark.parametrize("column", ["event_ids", "losses"])
def test_event_loss_table_columns_are_read_only(column):
    source = np.array([1, 4, 7])
    elt = EventLossTable(source, [1.0, 2.0, 3.0], 10)
    with pytest.raises(ValueError, match="read-only"):
        getattr(elt, column)[0] = 0
    source[0] = 2  # the caller's own array keeps its flags


def test_gather_rows_equals_take_from_the_stacked_rows():
    rng = np.random.default_rng(3)
    rows = [rng.random(CATALOG) for _ in range(3)]
    ids = rng.integers(0, CATALOG, 50)
    gathered = gather_rows(rows, ids)
    assert gathered.tobytes() == np.take(np.stack(rows), ids, axis=1).tobytes()
