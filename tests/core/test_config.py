"""Tests for repro.core.config."""

import dataclasses

import pytest

from repro.core.config import BACKEND_NAMES, EngineConfig


class TestEngineConfig:
    def test_defaults_valid(self):
        config = EngineConfig()
        assert config.backend == "vectorized"
        assert config.fused_layers

    def test_field_names_are_pinned(self):
        # Adding (or dropping) an option must show up as a diff here.
        assert [f.name for f in dataclasses.fields(EngineConfig)] == [
            "backend", "fused_layers", "record_max_occurrence",
            "record_phases", "trial_shards", "chunk_events", "replication_block",
            "n_workers", "oversubscription", "start_method",
            "dtype", "native_threads",
        ]

    def test_all_backends_accepted(self):
        assert BACKEND_NAMES == ("sequential", "vectorized", "chunked", "multicore", "native")
        for backend in BACKEND_NAMES:
            EngineConfig(backend=backend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(backend="gpu")

    @pytest.mark.parametrize("kwargs", [
        dict(chunk_events=0),
        dict(n_workers=0),
        dict(oversubscription=0),
        dict(trial_shards=0),
        dict(native_threads=-1),
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

    def test_replace(self):
        updated = EngineConfig().replace(n_workers=2, oversubscription=8)
        assert updated.n_workers == 2
        assert updated.oversubscription == 8

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EngineConfig().backend = "chunked"  # type: ignore[misc]
