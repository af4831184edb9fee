"""The fleet wire protocol: NDJSON control lines framing binary payloads.

The control channel is the NDJSON idiom proven by
:mod:`repro.service.server` — one JSON document per line, ``"id"`` echoed
verbatim, errors as structured ``{"error": {...}}`` documents.  Binary
data (serialized :class:`~repro.core.results.PartialResult` blocks,
inline-shipped Year Event Tables, pickled programs) rides *under* the
control channel: a document carrying ``"nbytes": N`` is followed by
exactly ``N`` raw bytes on the same stream, in both directions.  Framing
lives here so the worker and the coordinator cannot disagree about it.

Requests (coordinator → worker)::

    {"op": "ping"}
    {"op": "status"}
    {"op": "put_program", "digest": d, "nbytes": N}   + pickled program
    {"op": "put_yet",     "digest": d, "nbytes": N}   + yet_to_bytes blob
    {"op": "run_shard",   "program": d, "yet": REF,
     "config": FIELDS, "trials": [start, stop]}
    {"op": "shutdown"}

``REF`` is a YET store reference (:mod:`repro.yet.stores`); ``FIELDS`` is
the plan-relevant config dict of :func:`repro.service.digests.plan_relevant_config`
(every value is already JSON-safe).  A worker applies those fields over its
own base config and answers any other key with a structured error naming it.
A successful ``run_shard`` answers ``{"ok": true, ..., "nbytes": N}``
followed by the :meth:`~repro.core.results.PartialResult.to_bytes` payload.

A worker that lacks a referenced artifact answers a structured
``MissingArtifact`` error naming every missing digest; the coordinator
ships the artifacts and resends — so the *first* request for a workload
carries the program (and, inline deployments, the YET) exactly once, and
every later request is digests only.

``put_program`` payloads are **pickled** program objects: the protocol is
for a trusted fleet (your own workers on your own network), the same trust
model as multiprocessing itself.  The worker re-derives the content digest
from the unpickled program and rejects a mismatch, so a corrupted or
mislabeled artifact can never silently price the wrong book.
"""

from __future__ import annotations

import json
from typing import Any, BinaryIO, Mapping, Tuple

__all__ = [
    "MissingArtifact",
    "WorkerError",
    "parse_address",
    "recv_frame",
    "send_frame",
]

#: Refuse to frame payloads beyond this (a corrupted length prefix must not
#: turn into an attempted multi-gigabyte allocation).
MAX_PAYLOAD_BYTES = 1 << 34


class MissingArtifact(LookupError):
    """The worker lacks an artifact the request references by digest.

    ``missing`` maps artifact kind (``"program"`` / ``"yet"``) to the
    missing digest.  On the wire this becomes ``{"error": {"type":
    "MissingArtifact", "missing": {...}}}``; the coordinator's reaction is
    to ship the artifacts and resend, not to fail.
    """

    def __init__(self, missing: Mapping[str, str]) -> None:
        self.missing = dict(missing)
        super().__init__(
            "worker is missing artifacts: "
            + ", ".join(f"{kind} {digest[:12]}…" for kind, digest in self.missing.items())
        )


class WorkerError(RuntimeError):
    """A worker answered a structured error (other than a missing artifact).

    Attributes
    ----------
    type:
        The remote exception's class name from the error payload.
    """

    def __init__(self, message: str, type: str = "WorkerError") -> None:
        super().__init__(message)
        self.type = type


def parse_address(address: str | Tuple[str, int]) -> Tuple[str, int]:
    """``"host:port"`` (or an already-split pair) → ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host, int(port)


def format_address(host: str, port: int) -> str:
    """The canonical ``"host:port"`` form of a worker address."""
    return f"{host}:{port}"


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #
def send_frame(
    stream: BinaryIO, document: Mapping[str, Any], payload: bytes | None = None
) -> None:
    """Write one control line (and its binary payload, if any) and flush.

    ``payload`` sets the document's ``"nbytes"`` key; a document must never
    carry that key itself — the framing owns it.
    """
    doc = dict(document)
    if payload is not None:
        doc["nbytes"] = len(payload)
    elif "nbytes" in doc:
        raise ValueError("'nbytes' is reserved for the framing layer")
    stream.write((json.dumps(doc, sort_keys=True) + "\n").encode("utf-8"))
    if payload is not None:
        stream.write(payload)
    stream.flush()


def recv_frame(stream: BinaryIO) -> Tuple[dict, bytes | None]:
    """Read one control line and its payload; ``ConnectionError`` on EOF."""
    line = stream.readline()
    if not line:
        raise ConnectionError("peer closed the connection")
    document = json.loads(line.decode("utf-8"))
    if not isinstance(document, dict):
        raise ValueError(f"expected a JSON object control line, got {type(document).__name__}")
    payload = None
    nbytes = document.get("nbytes")
    if nbytes is not None:
        nbytes = int(nbytes)
        if not 0 <= nbytes <= MAX_PAYLOAD_BYTES:
            raise ValueError(f"unreasonable payload length {nbytes}")
        payload = stream.read(nbytes)
        if payload is None or len(payload) != nbytes:
            raise ConnectionError(
                f"peer closed mid-payload ({0 if payload is None else len(payload)}"
                f"/{nbytes} bytes)"
            )
    return document, payload

