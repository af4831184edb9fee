"""Tests for repro.workloads.generator."""

import numpy as np
import pytest

from repro.utils.rng import SeedSequenceFactory
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec


class TestWorkloadSpec:
    def test_defaults_valid(self):
        spec = WorkloadSpec()
        assert spec.n_elts_total == spec.n_layers * spec.elts_per_layer
        assert spec.total_lookups == spec.n_trials * spec.events_per_trial * spec.elts_per_layer

    def test_shape_conversion(self):
        spec = WorkloadSpec(n_trials=100, events_per_trial=10, n_layers=2, elts_per_layer=3)
        shape = spec.shape()
        assert shape.n_trials == 100
        assert shape.n_elts == 3
        assert shape.n_layers == 2

    def test_scaled_override(self):
        spec = WorkloadSpec().scaled(n_trials=5)
        assert spec.n_trials == 5

    @pytest.mark.parametrize("kwargs", [
        dict(n_trials=0),
        dict(events_per_trial=0),
        dict(elts_per_layer=0),
        dict(catalog_size=0),
        dict(elt_share=-0.1),
    ])
    def test_invalid_spec(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)


class TestWorkloadGenerator:
    @pytest.fixture(scope="class")
    def workload(self):
        spec = WorkloadSpec(n_trials=50, events_per_trial=30, n_layers=2, elts_per_layer=4,
                            catalog_size=800, buildings_per_exposure=30, n_regions=8, seed=99)
        return WorkloadGenerator(spec).generate()

    def test_shapes_match_spec(self, workload):
        assert workload.yet.n_trials == 50
        assert workload.yet.mean_events_per_trial == pytest.approx(30.0)
        assert workload.program.n_layers == 2
        assert all(layer.n_elts == 4 for layer in workload.program)
        assert workload.catalog.size == 800

    def test_deterministic_for_same_seed(self):
        spec = WorkloadSpec(n_trials=20, events_per_trial=10, n_layers=1, elts_per_layer=2,
                            catalog_size=300, buildings_per_exposure=20, n_regions=8, seed=5)
        a = WorkloadGenerator(spec).generate()
        b = WorkloadGenerator(spec).generate()
        np.testing.assert_array_equal(a.yet.event_ids, b.yet.event_ids)
        np.testing.assert_allclose(a.elts[0].losses, b.elts[0].losses)

    def test_different_seeds_differ(self):
        base = WorkloadSpec(n_trials=20, events_per_trial=10, n_layers=1, elts_per_layer=2,
                            catalog_size=300, buildings_per_exposure=20, n_regions=8)
        a = WorkloadGenerator(base.scaled(seed=1)).generate()
        b = WorkloadGenerator(base.scaled(seed=2)).generate()
        assert not np.array_equal(a.yet.event_ids, b.yet.event_ids)

    def test_build_yet_alone_reproduces_the_generated_yet(self, workload):
        """Each stage draws from its own named stream, so stages replay alone."""
        generator = WorkloadGenerator(workload.spec)
        seeds = SeedSequenceFactory(workload.spec.seed)
        yet = generator.build_yet(workload.catalog, seeds)
        np.testing.assert_array_equal(yet.event_ids, workload.yet.event_ids)
        np.testing.assert_array_equal(yet.trial_offsets, workload.yet.trial_offsets)

    def test_build_elts_alone_reproduces_the_generated_elts(self, workload):
        generator = WorkloadGenerator(workload.spec)
        elts = generator.build_elts(workload.catalog, SeedSequenceFactory(workload.spec.seed))
        assert len(elts) == workload.spec.n_elts_total
        for built, generated in zip(elts, workload.elts):
            np.testing.assert_array_equal(built.event_ids, generated.event_ids)
            np.testing.assert_array_equal(built.losses, generated.losses)

    def test_build_layers_covers_the_given_elts_in_order(self, workload):
        generator = WorkloadGenerator(workload.spec)
        program = generator.build_layers(
            workload.elts, SeedSequenceFactory(workload.spec.seed), workload.catalog
        )
        assert program.n_layers == workload.spec.n_layers
        covered = [elt for layer in program for elt in layer.elts]
        assert all(a is b for a, b in zip(covered, workload.elts))
        assert len(covered) == len(workload.elts)

    def test_elts_reference_catalog(self, workload):
        for elt in workload.elts:
            assert elt.catalog_size == workload.catalog.size
            assert elt.size > 0

    def test_elts_sparse(self, workload):
        densities = [elt.density for elt in workload.elts]
        assert max(densities) < 0.9

    def test_layer_terms_bind(self, workload):
        for layer in workload.program:
            assert layer.terms.has_occurrence_terms
            assert layer.terms.has_aggregate_terms

    def test_elt_share_propagated(self, workload):
        for elt in workload.elts:
            assert elt.terms.share == pytest.approx(workload.spec.elt_share)

    def test_variable_trial_length_mode(self):
        spec = WorkloadSpec(n_trials=200, events_per_trial=20, n_layers=1, elts_per_layer=2,
                            catalog_size=300, buildings_per_exposure=20, n_regions=8,
                            fixed_trial_length=False, seed=3)
        workload = WorkloadGenerator(spec).generate()
        lengths = workload.yet.events_per_trial
        assert lengths.std() > 0  # Poisson lengths vary
        assert workload.yet.mean_events_per_trial == pytest.approx(20.0, rel=0.15)

    def test_summary_and_shape(self, workload):
        assert "trials=50" in workload.summary()
        assert workload.shape.n_trials == 50
