"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import SeedSequenceFactory, derive_rng, spawn_rngs


class TestDeriveRng:
    def test_int_seed_is_deterministic(self):
        a = derive_rng(42).random(5)
        b = derive_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = derive_rng(1).random(5)
        b = derive_rng(2).random(5)
        assert not np.allclose(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(3)
        assert derive_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(11)
        a = derive_rng(seq).random(3)
        b = derive_rng(np.random.SeedSequence(11)).random(3)
        np.testing.assert_array_equal(a, b)

    def test_none_gives_generator(self):
        assert isinstance(derive_rng(None), np.random.Generator)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            derive_rng(-1)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            derive_rng("seed")  # type: ignore[arg-type]


class TestSpawnRngs:
    def test_count_and_independence(self):
        rngs = spawn_rngs(7, 4)
        assert len(rngs) == 4
        draws = [rng.random() for rng in rngs]
        assert len(set(draws)) == 4

    def test_deterministic_across_calls(self):
        a = [r.random() for r in spawn_rngs(5, 3)]
        b = [r.random() for r in spawn_rngs(5, 3)]
        assert a == b

    def test_zero_count(self):
        assert spawn_rngs(5, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(5, -1)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(5, 1, start=-1)


class TestSpawnRngsDeterminism:
    """Regression: child streams are prefix-stable, so the streamed
    replication path draws identically for any block size / worker count."""

    def test_child_streams_independent_of_count(self):
        full = [rng.random(4) for rng in spawn_rngs(123, 8)]
        short = [rng.random(4) for rng in spawn_rngs(123, 3)]
        for a, b in zip(short, full):
            np.testing.assert_array_equal(a, b)

    def test_start_slices_the_same_streams(self):
        full = [rng.random(4) for rng in spawn_rngs(123, 8)]
        for start in (0, 2, 5, 7):
            tail = [rng.random(4) for rng in spawn_rngs(123, 8 - start, start=start)]
            for offset, draws in enumerate(tail):
                np.testing.assert_array_equal(draws, full[start + offset])

    def test_blocked_spawning_reproduces_all_at_once(self):
        """Drawing replications block by block equals one up-front spawn."""
        all_at_once = [rng.random() for rng in spawn_rngs(9, 12)]
        for block in (1, 3, 5, 12):
            blocked = []
            for start in range(0, 12, block):
                count = min(block, 12 - start)
                blocked.extend(r.random() for r in spawn_rngs(9, count, start=start))
            assert blocked == all_at_once

    def test_matches_numpy_seedsequence_spawn(self):
        """Children agree with numpy's own SeedSequence.spawn layout."""
        ours = [rng.random() for rng in spawn_rngs(31, 5)]
        reference = [
            np.random.default_rng(child).random()
            for child in np.random.SeedSequence(31).spawn(5)
        ]
        assert ours == reference

    def test_seed_sequence_input_not_mutated(self):
        seq = np.random.SeedSequence(17)
        first = [rng.random() for rng in spawn_rngs(seq, 4)]
        second = [rng.random() for rng in spawn_rngs(seq, 4)]
        assert first == second
        assert seq.n_children_spawned == 0


class TestSeedSequenceFactory:
    def test_same_name_same_stream(self):
        f1, f2 = SeedSequenceFactory(9), SeedSequenceFactory(9)
        assert f1.rng("yet").random() == f2.rng("yet").random()

    def test_different_names_differ(self):
        factory = SeedSequenceFactory(9)
        assert factory.rng("yet").random() != factory.rng("elt").random()

    def test_name_order_irrelevant(self):
        f1, f2 = SeedSequenceFactory(9), SeedSequenceFactory(9)
        _ = f1.rng("first")
        value_after_other_use = f1.rng("target").random()
        value_direct = f2.rng("target").random()
        assert value_after_other_use == value_direct

    def test_rngs_mapping(self):
        factory = SeedSequenceFactory(3)
        streams = factory.rngs(["a", "b"])
        assert set(streams) == {"a", "b"}

    def test_generator_seed_supported(self):
        factory = SeedSequenceFactory(np.random.default_rng(5))
        assert isinstance(factory.rng("x"), np.random.Generator)

    def test_entropy_is_the_root_seed(self):
        assert SeedSequenceFactory(9).entropy == 9
        assert SeedSequenceFactory(9).entropy != SeedSequenceFactory(10).entropy

    def test_rng_draws_from_the_named_seed_sequence(self):
        factory = SeedSequenceFactory(9)
        direct = np.random.default_rng(factory.seed_sequence("yet")).random(4)
        np.testing.assert_array_equal(factory.rng("yet").random(4), direct)

    def test_bad_seed_type_rejected(self):
        with pytest.raises(TypeError):
            SeedSequenceFactory(3.5)  # type: ignore[arg-type]
