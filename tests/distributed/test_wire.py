"""The fleet wire: PartialResult round-trips, decode validation, config input.

The wire payload reuses the ``.npy`` block layout of ``PartialResult.save``/
``load`` behind a fixed ``ARPT`` header, so a corrupted or truncated frame
must fail loudly on decode — never produce a plausible but wrong block.  On
the request side, a ``run_shard`` config may carry only the plan-relevant
fields; anything else is refused by name, never silently applied.
"""

from __future__ import annotations

import io
import json
import pickle
import struct

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.results import (
    _WIRE_HEADER,
    _WIRE_MAGIC,
    _WIRE_U64,
    _WIRE_VERSION,
    PartialResult,
)
from repro.distributed import FleetWorker, WorkerError
from repro.distributed.fleet import WorkerClient
from repro.parallel.partitioner import TrialRange
from repro.service.digests import plan_relevant_config, program_digest, yet_digest
from repro.yet.io import yet_to_bytes


def make_partial(start=4, stop=9, n_rows=3, with_occurrence=True, details=None):
    rng = np.random.default_rng(start * 1000 + stop)
    losses = rng.random((n_rows, stop - start)) * 1e6
    occurrence = rng.random((n_rows, stop - start)) * 1e5 if with_occurrence else None
    return PartialResult(
        trials=TrialRange(start, stop),
        losses=losses,
        max_occurrence=occurrence,
        details=details if details is not None else {"worker": "w-1", "backend": "vectorized"},
    )


class TestRoundTrip:
    def test_round_trip_bit_identical(self):
        partial = make_partial()
        decoded = PartialResult.from_bytes(partial.to_bytes())
        assert decoded.trials == partial.trials
        assert np.array_equal(decoded.losses, partial.losses)
        assert np.array_equal(decoded.max_occurrence, partial.max_occurrence)
        assert dict(decoded.details) == dict(partial.details)

    def test_round_trip_without_occurrence(self):
        partial = make_partial(with_occurrence=False, details={})
        decoded = PartialResult.from_bytes(partial.to_bytes())
        assert decoded.max_occurrence is None
        assert np.array_equal(decoded.losses, partial.losses)
        assert dict(decoded.details) == {}

    def test_details_survive_the_wire(self):
        partial = make_partial(details={"worker": "fleet-7", "plan_cache_hit": True})
        decoded = PartialResult.from_bytes(partial.to_bytes())
        assert decoded.details["worker"] == "fleet-7"
        assert decoded.details["plan_cache_hit"] is True
        assert decoded.origin() == "worker=fleet-7"

    def test_wire_blocks_match_npy_save(self):
        # The array blocks on the wire are the identical bytes np.save
        # writes — the invariant that keeps the disk and wire formats from
        # drifting apart.
        partial = make_partial(with_occurrence=False, details={})
        payload = partial.to_bytes()
        buffer = io.BytesIO()
        np.save(buffer, partial.losses)
        assert payload.endswith(buffer.getvalue())

    def test_empty_range_round_trips(self):
        partial = PartialResult(
            trials=TrialRange(5, 5), losses=np.zeros((2, 0)), details={}
        )
        decoded = PartialResult.from_bytes(partial.to_bytes())
        assert decoded.trials == TrialRange(5, 5)
        assert decoded.losses.shape == (2, 0)


class TestDecodeValidation:
    def test_truncated_header(self):
        with pytest.raises(ValueError, match="truncated"):
            PartialResult.from_bytes(b"ARP")

    def test_truncated_block(self):
        payload = make_partial().to_bytes()
        with pytest.raises(ValueError, match="truncated"):
            PartialResult.from_bytes(payload[:-10])

    def test_bad_magic(self):
        payload = bytearray(make_partial().to_bytes())
        payload[:4] = b"NOPE"
        with pytest.raises(ValueError, match="magic"):
            PartialResult.from_bytes(bytes(payload))

    def test_unsupported_version(self):
        payload = bytearray(make_partial().to_bytes())
        payload[4] = _WIRE_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            PartialResult.from_bytes(bytes(payload))

    def test_trailing_bytes_rejected(self):
        payload = make_partial().to_bytes()
        with pytest.raises(ValueError, match="trailing"):
            PartialResult.from_bytes(payload + b"\x00")

    def test_width_mismatch_rejected(self):
        # Widen the framed trial range without touching the block: the
        # decoded losses no longer cover the claimed trials.
        payload = bytearray(make_partial(start=4, stop=9).to_bytes())
        stop_offset = _WIRE_HEADER.size + _WIRE_U64.size
        payload[stop_offset : stop_offset + 8] = _WIRE_U64.pack(10)
        with pytest.raises(ValueError, match="covers"):
            PartialResult.from_bytes(bytes(payload))

    @pytest.mark.parametrize(
        "array",
        [
            np.ones((2, 5), dtype=np.float32),
            np.ones(5, dtype=np.float64),
        ],
        ids=["float32", "1-D"],
    )
    def test_wrong_losses_block_rejected(self, array):
        out = io.BytesIO()
        out.write(_WIRE_HEADER.pack(_WIRE_MAGIC, _WIRE_VERSION, 0))
        out.write(_WIRE_U64.pack(0))
        out.write(_WIRE_U64.pack(5))
        details = json.dumps({}).encode()
        out.write(_WIRE_U64.pack(len(details)))
        out.write(details)
        block = io.BytesIO()
        np.save(block, array)
        blob = block.getvalue()
        out.write(_WIRE_U64.pack(len(blob)))
        out.write(blob)
        with pytest.raises(ValueError, match="2-D float64"):
            PartialResult.from_bytes(out.getvalue())

    def test_occurrence_shape_mismatch_rejected(self):
        partial = make_partial(with_occurrence=True)
        good = bytearray(partial.to_bytes())
        # Rebuild the frame with an occurrence block of the wrong shape.
        out = io.BytesIO()
        out.write(_WIRE_HEADER.pack(_WIRE_MAGIC, _WIRE_VERSION, 1))
        out.write(_WIRE_U64.pack(partial.trials.start))
        out.write(_WIRE_U64.pack(partial.trials.stop))
        details = json.dumps({}).encode()
        out.write(_WIRE_U64.pack(len(details)))
        out.write(details)
        for array in (partial.losses, partial.max_occurrence[:, :-1]):
            block = io.BytesIO()
            np.save(block, array)
            blob = block.getvalue()
            out.write(_WIRE_U64.pack(len(blob)))
            out.write(blob)
        with pytest.raises(ValueError, match="max-occurrence"):
            PartialResult.from_bytes(out.getvalue())
        # sanity: the untampered frame still decodes
        PartialResult.from_bytes(bytes(good))

    def test_pickle_blocks_refused(self):
        # An object-dtype block requires pickle, which the decoder forbids.
        out = io.BytesIO()
        out.write(_WIRE_HEADER.pack(_WIRE_MAGIC, _WIRE_VERSION, 0))
        out.write(_WIRE_U64.pack(0))
        out.write(_WIRE_U64.pack(1))
        details = json.dumps({}).encode()
        out.write(_WIRE_U64.pack(len(details)))
        out.write(details)
        block = io.BytesIO()
        np.save(block, np.array([[object()]], dtype=object), allow_pickle=True)
        blob = block.getvalue()
        out.write(_WIRE_U64.pack(len(blob)))
        out.write(blob)
        with pytest.raises(ValueError):
            PartialResult.from_bytes(out.getvalue())


class TestRunShardConfigInput:
    def test_non_plan_relevant_field_refused_by_name(self, tiny_workload):
        program, yet = tiny_workload.program, tiny_workload.yet
        config = EngineConfig(backend="vectorized")
        digest, ydigest = program_digest(program), yet_digest(yet)
        ref = {"kind": "inline", "digest": ydigest}
        with FleetWorker(config=config) as worker:
            with WorkerClient(worker.address, timeout=30.0) as client:
                client.put_program(digest, pickle.dumps(program))
                client.put_yet(ydigest, yet_to_bytes(yet))
                fields = {"backend": "vectorized", "record_phases": True}
                with pytest.raises(WorkerError, match="record_phases") as excinfo:
                    client.run_shard(digest, ref, fields, TrialRange(0, 8))
                assert excinfo.value.type == "ValueError"
                # The refusal is a structured reply: the connection still serves.
                partial = client.run_shard(
                    digest, ref, plan_relevant_config(config), TrialRange(0, 8)
                )
                assert partial.trials == TrialRange(0, 8)
