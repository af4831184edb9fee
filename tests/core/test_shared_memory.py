"""Tests for the shared-memory transport of repro.core.multicore.

Besides the in-process round-trips, this module covers the two contracts the
multicore plan scheduler depends on:

* descriptors reconstruct zero-copy views **across a spawn boundary** (a
  worker process that shares nothing with the parent);
* segments can never leak: the owner unlinks on every exit path — normal
  close, worker death mid-block, even an interpreter exit that skipped
  ``close()`` (the atexit guard).
"""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.multicore import SharedArray, SharedWorkspace

SHM_DIR = Path("/dev/shm")


def _shm_entries() -> set:
    """Names of the POSIX shared-memory segments currently alive."""
    if not SHM_DIR.exists():  # pragma: no cover - non-Linux fallback
        return set()
    return {p.name for p in SHM_DIR.iterdir() if p.name.startswith("psm_")}


def _spawn_roundtrip_child(descriptor, queue):
    """Spawn-target: attach by descriptor, verify, write a sentinel back."""
    attached = SharedArray.attach(descriptor)
    try:
        queue.put(float(attached.array[3]))
        attached.array[0] = 123.5  # visible to the parent: same physical pages
    finally:
        attached.close()


def _sigkill_attach_child(descriptor, ready):
    """Spawn-target: attach, signal readiness, then wait to be SIGKILLed."""
    attached = SharedArray.attach(descriptor)
    ready.put(True)
    while True:  # pragma: no cover - killed from outside
        time.sleep(0.05)
        assert attached.array is not None


class TestSharedArray:
    def test_roundtrip_through_descriptor(self):
        source = np.arange(100, dtype=np.float64).reshape(10, 10)
        owner = SharedArray.from_array(source)
        try:
            np.testing.assert_array_equal(owner.array, source)
            attached = SharedArray.attach(owner.descriptor)
            try:
                np.testing.assert_array_equal(attached.array, source)
                assert attached.array.dtype == source.dtype
            finally:
                attached.close()
        finally:
            owner.close()

    def test_writes_visible_through_attachment(self):
        owner = SharedArray.from_array(np.zeros(4))
        try:
            attached = SharedArray.attach(owner.descriptor)
            try:
                owner.array[2] = 42.0
                assert attached.array[2] == 42.0
            finally:
                attached.close()
        finally:
            owner.close()

    def test_close_idempotent(self):
        owner = SharedArray.from_array(np.ones(3))
        owner.close()
        owner.close()

    def test_context_manager(self):
        with SharedArray.from_array(np.ones(5)) as shared:
            assert shared.nbytes == 40

    def test_integer_dtype_preserved(self):
        source = np.arange(10, dtype=np.int32)
        with SharedArray.from_array(source) as owner:
            attached = SharedArray.attach(owner.descriptor)
            try:
                assert attached.array.dtype == np.int32
            finally:
                attached.close()


class TestSharedWorkspace:
    def test_add_and_get(self):
        with SharedWorkspace() as workspace:
            shared = workspace.add("events", np.arange(10))
            np.testing.assert_array_equal(shared.array, np.arange(10))

    def test_duplicate_name_rejected(self):
        with SharedWorkspace() as workspace:
            workspace.add("a", np.zeros(2))
            with pytest.raises(KeyError):
                workspace.add("a", np.zeros(2))

    def test_attach_all_descriptors(self):
        with SharedWorkspace() as workspace:
            workspace.add("x", np.arange(4, dtype=np.float64))
            workspace.add("y", np.arange(3, dtype=np.int64))
            attachments = SharedWorkspace.attach_all(workspace.descriptors())
            try:
                np.testing.assert_array_equal(attachments["x"].array, np.arange(4))
                np.testing.assert_array_equal(attachments["y"].array, np.arange(3))
            finally:
                for shared in attachments.values():
                    shared.close()


class TestCrossProcess:
    """Descriptor -> attach round-trips across a real process boundary."""

    def test_descriptor_attach_roundtrip_across_spawn(self):
        """A spawned worker (shares nothing) reconstructs the view by name."""
        ctx = mp.get_context("spawn")
        source = np.arange(16, dtype=np.float64)
        with SharedArray.from_array(source) as owner:
            queue = ctx.Queue()
            child = ctx.Process(
                target=_spawn_roundtrip_child, args=(owner.descriptor, queue)
            )
            child.start()
            try:
                assert queue.get(timeout=60) == 3.0
            finally:
                child.join(timeout=60)
            assert child.exitcode == 0
            # The child's write landed in the same physical pages.
            assert owner.array[0] == 123.5

    def test_worker_killed_mid_attachment_leaves_no_segment(self):
        """SIGKILLing an attached worker must not pin (or leak) the segment."""
        before = _shm_entries()
        ctx = mp.get_context("spawn")
        owner = SharedArray.from_array(np.zeros(1024))
        ready = ctx.Queue()
        child = ctx.Process(target=_sigkill_attach_child, args=(owner.descriptor, ready))
        child.start()
        try:
            assert ready.get(timeout=60)
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=60)
        finally:
            owner.close()
        assert child.exitcode == -signal.SIGKILL
        assert _shm_entries() - before == set()


class TestLifecycleGuarantees:
    """No exit path may leak a /dev/shm segment."""

    def test_close_unlinks_segment(self):
        before = _shm_entries()
        shared = SharedArray.from_array(np.zeros(256))
        name = shared.descriptor.shm_name.lstrip("/")
        assert name in _shm_entries()
        shared.close()
        assert _shm_entries() - before == set()

    def test_workspace_close_unlinks_all(self):
        before = _shm_entries()
        workspace = SharedWorkspace()
        workspace.add("a", np.zeros(128))
        workspace.add("b", np.zeros(128))
        workspace.close()
        assert _shm_entries() - before == set()

    def test_atexit_guard_unlinks_unclosed_owner(self):
        """An interpreter exit that skipped close() still unlinks the segment.

        The child deliberately leaks: it creates an owner, keeps a module
        global alive so GC cannot save the day, prints the segment name and
        exits.  The atexit guard must have unlinked it.
        """
        code = (
            "import numpy as np\n"
            "from repro.core.multicore import SharedArray\n"
            "leaked = SharedArray.from_array(np.zeros(512))\n"
            "print(leaked.descriptor.shm_name.lstrip('/'))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        name = proc.stdout.strip()
        assert name.startswith("psm_")
        assert name not in _shm_entries()
        # The guard (not the stderr-spamming resource tracker) did the work.
        assert "leaked shared_memory" not in proc.stderr

    def test_worker_dying_mid_block_leaks_no_segment(
        self, tiny_workload, monkeypatch, publish_under_fork
    ):
        """A worker raising mid-block: run fails, but every segment is gone."""
        from repro.core import multicore as multicore_module
        from repro.core.config import EngineConfig
        from repro.core.multicore import MulticoreEngine
        from repro.core.plan import PlanBuilder

        monkeypatch.setattr(multicore_module, "_analyse_block", _exploding_block)
        before = _shm_entries()
        engine = MulticoreEngine(
            EngineConfig(backend="multicore", n_workers=2, start_method="fork")
        )
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        with pytest.raises(RuntimeError, match="worker died mid-block"):
            engine.run_plan(plan)
        assert _shm_entries() - before == set()


def _exploding_block(context, block):
    """Module-level (hence picklable) block function simulating a dying worker."""
    raise RuntimeError("worker died mid-block")
