"""A repeated ``run_many`` / ``sweep`` request reuses its resolved program set.

:class:`~repro.service.service.RiskService` derives a request's variants (or
concatenates its explicit programs) once per base-program set and keeps the
result, LRU-bounded by ``cache_size``.  A repeat builds no layer and hashes
nothing; a re-registered name is a new base and gets a new answer.
"""

import hashlib
import sys
import threading

import pytest

import repro.service.service as service_module
from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.portfolio.layer import Layer
from repro.service import RiskService
from repro.service.service import candidate_variants
from tests.service.test_result_cache import with_scaled_layer
from tests.service.test_service import assert_runs_equal


@pytest.fixture()
def work_counts(monkeypatch):
    """Counts of ``Layer`` constructions and sha256 hashers made while armed."""
    counts = {"layers": 0, "sha256": 0}
    layer_init, sha256 = Layer.__init__, hashlib.sha256

    def counting_init(self, *args, **kwargs):
        counts["layers"] += 1
        layer_init(self, *args, **kwargs)

    def counting_sha256(*args, **kwargs):
        counts["sha256"] += 1
        return sha256(*args, **kwargs)

    def arm():
        monkeypatch.setattr(Layer, "__init__", counting_init)
        monkeypatch.setattr(hashlib, "sha256", counting_sha256)
        return counts

    return arm


REPEATS = {
    "run_many": {"kind": "run_many", "program": "tiny", "variants": 8},
    "run_many-nocache": {"kind": "run_many", "program": "tiny", "variants": 8,
                         "result_cache": False},
    "run_many-programs": {"kind": "run_many", "programs": ["tiny", "other"]},
    "sweep-0": {"kind": "sweep", "program": "tiny", "variants": 8, "max_rows_per_block": 0},
    "sweep-3": {"kind": "sweep", "program": "tiny", "variants": 8, "max_rows_per_block": 3},
}


@pytest.mark.parametrize("form", list(REPEATS))
def test_a_repeat_builds_no_layer_and_hashes_nothing(tiny_workload, work_counts, form):
    with RiskService(EngineConfig(), result_cache=True) as service:
        service.register_workload("tiny", tiny_workload)
        service.register_program("other", with_scaled_layer(tiny_workload.program, 0))
        first = service.submit(REPEATS[form])
        counts = work_counts()
        second = service.submit(REPEATS[form])
    assert counts == {"layers": 0, "sha256": 0}
    for got, want in zip(second.results, first.results, strict=True):
        assert_runs_equal(got, want)


def test_reregistered_name_gets_the_new_answer(tiny_workload):
    engine = AggregateRiskEngine(EngineConfig())
    document = {"kind": "run_many", "program": "book", "variants": 4, "yet": "book"}
    changed = with_scaled_layer(tiny_workload.program, 1, scale=3.0)
    with RiskService(EngineConfig(), result_cache=True) as service:
        service.register_yet("book", tiny_workload.yet)
        service.register_program("book", tiny_workload.program)
        before = service.submit(document)
        service.register_program("book", changed)
        after = service.submit(document)
    assert after.result_cache["status"] != "exact"
    for got, variant in zip(after.results, candidate_variants(changed, 4), strict=True):
        assert_runs_equal(got, engine.run(variant, tiny_workload.yet))
    assert before.results[0].ylt.losses.tobytes() != after.results[0].ylt.losses.tobytes()


def test_the_memo_never_exceeds_cache_size(tiny_workload):
    with RiskService(EngineConfig(), cache_size=2) as service:
        service.register_workload("tiny", tiny_workload)
        service.submit({"kind": "run", "program": "tiny"})
        assert len(service._program_sets) == 0  # one program: nothing to derive
        for n in range(1, 6):
            service.submit({"kind": "run_many", "program": "tiny", "variants": n})
            assert len(service._program_sets) == min(n, 2)
        # An evicted set is derived again, and answers the same.
        again = service.submit({"kind": "run_many", "program": "tiny", "variants": 1})
    (only,) = again.results
    engine = AggregateRiskEngine(EngineConfig())
    assert_runs_equal(only, engine.run(tiny_workload.program, tiny_workload.yet))


def test_racing_first_requests_answer_byte_equal(tiny_workload, monkeypatch):
    """Both callers miss the memo and derive the set at once (a barrier in
    ``candidate_variants`` holds the first until the second arrives); the
    one set kept answers both, bit-identical to per-program runs."""
    barrier = threading.Barrier(2, timeout=30)
    derive = service_module.candidate_variants

    def racing_variants(program, n):
        barrier.wait()
        return derive(program, n)

    monkeypatch.setattr(service_module, "candidate_variants", racing_variants)
    document = {"kind": "run_many", "program": "tiny", "variants": 8}
    responses = [None, None]
    with RiskService(EngineConfig(), result_cache=True) as service:
        service.register_workload("tiny", tiny_workload)

        def caller(index):
            responses[index] = service.submit(document)

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(service._program_sets) == 1
    assert all(response is not None for response in responses)
    engine = AggregateRiskEngine(EngineConfig())
    variants = derive(tiny_workload.program, 8)
    for got_a, got_b, variant in zip(*(r.results for r in responses), variants, strict=True):
        assert_runs_equal(got_a, got_b)
        assert_runs_equal(got_a, engine.run(variant, tiny_workload.yet))


def test_stress_many_callers_keep_the_bound_and_the_answers(tiny_workload):
    """Four callers (more than the cores CI has) cycle through more variant
    counts than the memo holds, with a short switch interval: every answer
    stays equal to its reference and the memo never outgrows ``cache_size``."""
    engine = AggregateRiskEngine(EngineConfig())
    reference = {
        n: [engine.run(v, tiny_workload.yet).ylt.losses.tobytes()
            for v in candidate_variants(tiny_workload.program, n)]
        for n in (1, 2, 3)
    }
    wrong, sizes = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with RiskService(EngineConfig(), cache_size=2, result_cache=True) as service:
            service.register_workload("tiny", tiny_workload)

            def caller(offset):
                for i in range(24):
                    n = 1 + (i + offset) % 3
                    response = service.submit(
                        {"kind": "run_many", "program": "tiny", "variants": n})
                    got = [r.ylt.losses.tobytes() for r in response.results]
                    if got != reference[n]:
                        wrong.append(n)
                    with service._registry_lock:  # the LRU's insert-then-evict
                        sizes.append(len(service._program_sets))

            threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert len(sizes) == 96 and max(sizes) <= 2
