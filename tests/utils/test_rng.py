"""Tests for repro.utils.rng: deterministic seeding and spawning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import (
    resolve_rng,
    spawn_rngs,
    spawn_seed_sequences,
    stable_hash_seed,
)


class TestResolveRng:
    def test_none_gives_generator(self):
        assert isinstance(resolve_rng(None), np.random.Generator)

    def test_int_is_deterministic(self):
        assert resolve_rng(42).random() == resolve_rng(42).random()

    def test_distinct_ints_differ(self):
        assert resolve_rng(1).random() != resolve_rng(2).random()

    def test_generator_passthrough(self):
        g = np.random.default_rng(3)
        assert resolve_rng(g) is g

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(5)
        a = resolve_rng(ss).random()
        b = resolve_rng(np.random.SeedSequence(5)).random()
        assert a == b

    def test_numpy_integer_accepted(self):
        assert resolve_rng(np.int64(7)).random() == resolve_rng(7).random()

    @pytest.mark.parametrize("bad", ["seed", 1.5, [1, 2]])
    def test_invalid_types_raise(self, bad):
        with pytest.raises(TypeError, match="seed must be"):
            resolve_rng(bad)


class TestSpawning:
    def test_spawn_count(self):
        assert len(spawn_rngs(0, 5)) == 5
        assert len(spawn_seed_sequences(0, 0)) == 0

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            spawn_seed_sequences(0, -1)

    def test_children_are_independent_streams(self):
        a, b = spawn_rngs(123, 2)
        assert a.random() != b.random()

    def test_spawn_is_stable_across_calls(self):
        first = [g.random() for g in spawn_rngs(9, 3)]
        second = [g.random() for g in spawn_rngs(9, 3)]
        assert first == second

    def test_prefix_property(self):
        """Trial i's stream must not depend on how many trials there are."""
        few = [g.random() for g in spawn_rngs(9, 2)]
        many = [g.random() for g in spawn_rngs(9, 8)]
        assert few == many[:2]

    def test_accepts_seed_sequence_master(self):
        ss = np.random.SeedSequence(77)
        vals = [g.random() for g in spawn_rngs(ss, 2)]
        vals2 = [g.random() for g in spawn_rngs(np.random.SeedSequence(77), 2)]
        assert vals == vals2


class TestStableHashSeed:
    def test_deterministic(self):
        assert stable_hash_seed("a", 1) == stable_hash_seed("a", 1)

    def test_order_sensitive(self):
        assert stable_hash_seed("a", "b") != stable_hash_seed("b", "a")

    def test_fits_in_63_bits(self):
        for parts in [("x",), ("table1", 2**24, 4)]:
            s = stable_hash_seed(*parts)
            assert 0 <= s < 2**63

    @given(st.text(max_size=30), st.integers(0, 2**32))
    @settings(max_examples=30)
    def test_always_valid_numpy_seed(self, text, num):
        np.random.default_rng(stable_hash_seed(text, num))
