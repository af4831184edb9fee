"""Tests for repro.core.config."""

import pytest

from repro.core.config import BACKEND_NAMES, ELT_REPRESENTATIONS, EngineConfig
from repro.parallel.scheduling import SchedulingPolicy


class TestEngineConfig:
    def test_defaults_valid(self):
        config = EngineConfig()
        assert config.backend == "vectorized"
        assert config.elt_representation == "direct"

    def test_all_backends_accepted(self):
        for backend in BACKEND_NAMES:
            EngineConfig(backend=backend)

    def test_all_representations_accepted(self):
        for representation in ELT_REPRESENTATIONS:
            EngineConfig(elt_representation=representation)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(backend="quantum")

    def test_unknown_representation_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(elt_representation="btree")

    @pytest.mark.parametrize("kwargs", [
        dict(chunk_events=0),
        dict(n_workers=0),
        dict(oversubscription=0),
        dict(threads_per_block=0),
        dict(gpu_chunk_size=0),
    ])
    def test_invalid_numeric_fields(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    def test_all_platform_start_methods_accepted(self):
        import multiprocessing

        for method in multiprocessing.get_all_start_methods():
            EngineConfig(start_method=method)

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ValueError, match="start_method"):
            EngineConfig(start_method="teleport")

    def test_with_backend(self):
        config = EngineConfig(backend="vectorized", n_workers=4)
        updated = config.with_backend("multicore")
        assert updated.backend == "multicore"
        assert updated.n_workers == 4
        assert config.backend == "vectorized"  # original untouched

    def test_with_backend_overrides(self):
        updated = EngineConfig().with_backend("gpu", threads_per_block=128)
        assert updated.threads_per_block == 128

    def test_replace(self):
        updated = EngineConfig().replace(scheduling=SchedulingPolicy.DYNAMIC, oversubscription=8)
        assert updated.scheduling is SchedulingPolicy.DYNAMIC
        assert updated.oversubscription == 8

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EngineConfig().backend = "gpu"  # type: ignore[misc]
