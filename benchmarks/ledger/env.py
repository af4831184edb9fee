"""Host description and run hygiene: work dir, wall cap, /dev/shm, peak RSS."""

from __future__ import annotations

import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[2]

#: Everything a run writes goes under here (inside the checkout, git-ignored).
WORK_ROOT = ROOT / ".ledger_work"

#: A run that is still going after this many seconds aborts, naming its workload.
WALL_CAP_SECONDS = 170.0


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.lower().startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def cache_sizes() -> dict[str, str]:
    """``{"L1d": "96K", ...}`` of cpu0 from sysfs (empty where sysfs has none)."""
    sizes: dict[str, str] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    if base.is_dir():
        for index in sorted(base.glob("index*")):
            level = _read(str(index / "level"))
            kind = _read(str(index / "type"))
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            size = _read(str(index / "size"))
            if level and size:
                sizes[f"L{level}{suffix}"] = size
    return sizes


def environment() -> dict[str, Any]:
    """The environment block printed with every result."""
    from repro.core.native.build import native_status

    native = native_status()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "compiler": native.get("compiler_version"),
        "native_available": native.get("available"),
        "native_openmp": native.get("openmp"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def shm_segments() -> int:
    """Entries in /dev/shm (0 where the platform has none)."""
    try:
        return len(os.listdir("/dev/shm"))
    except OSError:
        return 0


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class WorkDir:
    """A run's private scratch directory inside the checkout, removed on exit.

    Points ``ARE_NATIVE_CACHE`` at a sub-directory for its lifetime, so the
    native build cache never lands in the user's home directory, and keeps
    track of the child processes the run starts so that none outlives it.
    """

    def __init__(self, label: str) -> None:
        WORK_ROOT.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK_ROOT))
        self._saved_cache = os.environ.get("ARE_NATIVE_CACHE")
        self._count = 0
        self._children: list[subprocess.Popen] = []
        self.fresh_native_cache()

    def sub(self, name: str) -> Path:
        """A new empty sub-directory (a counter keeps names unique)."""
        self._count += 1
        path = self.path / f"{name}-{self._count}"
        path.mkdir()
        return path

    def fresh_native_cache(self) -> Path:
        """Point the native build cache at a new empty directory."""
        path = self.sub("native-cache")
        os.environ["ARE_NATIVE_CACHE"] = str(path)
        return path

    def track(self, child: subprocess.Popen) -> subprocess.Popen:
        """Remember a child process; :meth:`kill_children` reaps it if still alive."""
        self._children.append(child)
        return child

    def kill_children(self) -> None:
        for child in self._children:
            if child.poll() is None:
                child.kill()
                child.wait()

    def close(self) -> None:
        self.kill_children()
        if self._saved_cache is None:
            os.environ.pop("ARE_NATIVE_CACHE", None)
        else:
            os.environ["ARE_NATIVE_CACHE"] = self._saved_cache
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only succeeds when no other run is using it
        except OSError:
            pass

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class WallCap:
    """Abort the process, naming the workload, if a run outlives its cap.

    ``on_abort`` is called first (kill child processes); then the process
    exits with code 3 without printing a result line.
    """

    def __init__(self, workload: str, seconds: float = WALL_CAP_SECONDS,
                 on_abort: Callable[[], None] | None = None) -> None:
        self.workload = workload
        self.seconds = seconds
        self.on_abort = on_abort
        self._timer = threading.Timer(seconds, self._abort)
        self._timer.daemon = True

    def _abort(self) -> None:
        print(
            f"ledger: ABORT workload {self.workload!r} exceeded the "
            f"{self.seconds:.0f}s wall cap",
            file=sys.stderr,
            flush=True,
        )
        if self.on_abort is not None:
            try:
                self.on_abort()
            except Exception as exc:  # noqa: BLE001 - exiting anyway; say why cleanup failed
                print(f"ledger: abort cleanup failed: {exc!r}", file=sys.stderr, flush=True)
        os._exit(3)

    def __enter__(self) -> "WallCap":
        self._timer.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._timer.cancel()
