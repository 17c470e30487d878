"""Tests for the place_balls facade and PlacementResult."""

import numpy as np
import pytest
from helpers import build_space

from repro.core import RingSpace, TieBreak, place_balls
from repro.core.engine import DEFAULT_RNG_BLOCK, run_sequential
from repro.core.placement import PlacementResult
from repro.utils.rng import resolve_rng


class TestPlaceBalls:
    @pytest.mark.parametrize("kind, n, space_seed, m, strategy, seed", [
        pytest.param("ring", 64, 7, 100, "random", 1, id="ring-n64"),
        pytest.param("ring", 1 << 16, 0, 1 << 16, "random", 1, id="ring-n65536"),
        pytest.param("torus", 1 << 16, 0, 1 << 16, "random", 1,
                     id="torus-n65536"),
        pytest.param("ring", 1 << 16, 0, 1 << 14, "smaller", 4,
                     id="ring-n65536-smaller"),
    ])
    def test_result_fields(self, kind, n, space_seed, m, strategy, seed):
        space = build_space(kind, n, space_seed)
        res = place_balls(space, m, 2, strategy=strategy, seed=seed)
        assert res.m == m and res.d == 2
        assert res.n == n
        assert res.loads.sum() == m
        assert res.strategy is TieBreak(strategy)

    def test_engine_is_fused(self, small_ring, medium_ring):
        assert place_balls(small_ring, 10, 2, seed=0).engine == "fused"
        assert place_balls(medium_ring, 10, 2, seed=0).engine == "fused"

    def test_explicit_engines_agree(self, medium_ring):
        a = place_balls(medium_ring, 1000, 2, seed=3, record_heights=True)
        loads, heights = run_sequential(
            medium_ring, 1000, 2, TieBreak.RANDOM, resolve_rng(3),
            record_heights=True,
        )
        assert np.array_equal(a.loads, loads)
        assert np.array_equal(a.heights, heights)

    def test_rng_block_sets_the_draws_and_engines_agree(self):
        """The block size is part of the result: another size moves the
        loads of the same seed, and the fused and reference engines
        agree at each size."""
        ring = RingSpace.random(4096, seed=1)
        default = place_balls(ring, 4096, 2, seed=2).loads
        blocked = place_balls(ring, 4096, 2, seed=2, rng_block=1024).loads
        assert not np.array_equal(default, blocked)
        for block, loads in ((DEFAULT_RNG_BLOCK, default), (1024, blocked)):
            ref, _ = run_sequential(ring, 4096, 2, TieBreak.RANDOM,
                                    resolve_rng(2), rng_block=block)
            assert np.array_equal(loads, ref)

    def test_strategy_string_coerced(self, small_ring):
        res = place_balls(small_ring, 10, 2, strategy="smaller", seed=0)
        assert res.strategy is TieBreak.SMALLER

    def test_record_heights(self, small_ring):
        res = place_balls(small_ring, 50, 2, seed=1, record_heights=True)
        assert res.heights is not None and res.heights.shape == (50,)

    def test_heights_none_by_default(self, small_ring):
        assert place_balls(small_ring, 50, 2, seed=1).heights is None

    def test_more_choices_never_hurt_much(self, medium_ring):
        """Statistical sanity: d=2 beats d=1 by a wide margin at n=4096."""
        d1 = place_balls(medium_ring, medium_ring.n, 1, seed=5).max_load
        d2 = place_balls(medium_ring, medium_ring.n, 2, seed=5).max_load
        assert d2 < d1

    def test_seed_reproducibility(self, small_ring):
        a = place_balls(small_ring, 64, 2, seed=42)
        b = place_balls(small_ring, 64, 2, seed=42)
        assert np.array_equal(a.loads, b.loads)


class TestPlacementResult:
    def test_accounting_check(self):
        with pytest.raises(ValueError, match="accounting"):
            PlacementResult(
                loads=np.array([1, 1]), m=3, d=2, strategy=TieBreak.RANDOM
            )

    def test_statistics(self, small_ring):
        res = place_balls(small_ring, 128, 2, seed=2)
        hist = res.load_histogram()
        nu = res.nu_profile()
        assert hist.sum() == small_ring.n
        assert nu[0] == small_ring.n
        assert res.max_load == len(hist) - 1
        assert res.imbalance == pytest.approx(res.max_load / (128 / small_ring.n))

    def test_height_counts_match_nu(self, small_ring):
        res = place_balls(small_ring, 128, 2, seed=2)
        nu = res.nu_profile()
        hc = res.height_counts()
        assert hc[0] == 0
        assert np.array_equal(hc[1:], nu[1:])
