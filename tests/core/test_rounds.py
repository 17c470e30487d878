"""Tests for round-based (stale-load) placement."""

import numpy as np
import pytest

from repro.core.ring import RingSpace
from repro.core.rounds import place_balls_in_rounds, staleness_penalty
from repro.core.placement import place_balls


class TestRounds:
    def test_conserves_balls(self, small_ring):
        loads = place_balls_in_rounds(small_ring, 200, 2, round_size=32, seed=1)
        assert loads.sum() == 200

    def test_round_size_one_matches_sequential(self, small_ring):
        """b = 1: every ball sees fresh loads = the exact process.

        Bitwise equality requires the same RNG consumption layout;
        rng_block=1 makes the sequential engine draw per ball exactly
        as the rounds process does.
        """
        a = place_balls_in_rounds(small_ring, 300, 2, round_size=1, seed=5)
        b = place_balls(small_ring, 300, 2, seed=5, rng_block=1).loads
        assert np.array_equal(a, b)

    def test_full_parallel_round(self, small_ring):
        """round_size = m: decisions all from the empty snapshot.

        Every candidate load is then 0, all d candidates tie, and the
        process degenerates to a weighted random throw."""
        loads = place_balls_in_rounds(small_ring, 500, 3, round_size=500, seed=2)
        assert loads.sum() == 500

    def test_zero_balls(self, small_ring):
        loads = place_balls_in_rounds(small_ring, 0, 2, round_size=8, seed=3)
        assert loads.sum() == 0

    def test_rejects_bad_round_size(self, small_ring):
        with pytest.raises(ValueError):
            place_balls_in_rounds(small_ring, 10, 2, round_size=0)

    def test_strategies_accepted(self, small_ring):
        for strategy in ("random", "first", "smaller", "larger"):
            loads = place_balls_in_rounds(
                small_ring, 100, 2, round_size=16, strategy=strategy, seed=4
            )
            assert loads.sum() == 100

    def test_deterministic(self, small_ring):
        a = place_balls_in_rounds(small_ring, 128, 2, round_size=16, seed=9)
        b = place_balls_in_rounds(small_ring, 128, 2, round_size=16, seed=9)
        assert np.array_equal(a, b)


class TestStalenessEffect:
    def test_staleness_costs_little(self):
        """The parallel-arrival claim: round sizes up to ~n add O(1)."""
        n = 2048
        penalties = staleness_penalty(
            lambda s: RingSpace.random(n, seed=s),
            n,
            2,
            round_sizes=(1, 64, n),
            trials=6,
            seed=11,
        )
        assert penalties[64] <= penalties[1] + 1.0
        # the fully parallel extreme degrades toward d=1 behaviour but
        # stays far below Theta(log n)
        assert penalties[n] <= 3.5 * penalties[1]

    def test_monotone_in_round_size(self):
        """Staler information can only hurt (statistically)."""
        n = 1024
        penalties = staleness_penalty(
            lambda s: RingSpace.random(n, seed=s),
            n,
            2,
            round_sizes=(1, n),
            trials=8,
            seed=13,
        )
        assert penalties[1] <= penalties[n] + 0.25
