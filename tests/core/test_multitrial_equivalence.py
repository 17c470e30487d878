"""Property tests: the trial-fused engine is bit-for-bit sequential.

The fused engine may reorganize arithmetic across trials, never change
results.  Each fused
trial must equal a standalone :func:`run_sequential` run with the same
space and generator state — loads *and* per-ball heights — across
spaces, strategies, d, partitioned sampling, chunk sizes, and the
T=1 / m=0 / m≠n edge cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.uniform import UniformSpace
from repro.core.engine import run_sequential
from repro.core.multitrial import auto_fused_batch_size, fused_trial_chunk, run_fused
from repro.core.placement import place_balls
from repro.core.ring import RingSpace
from repro.core.strategies import TieBreak
from repro.core.torus import TorusSpace
from repro.utils.rng import resolve_rng


def _space(kind: str, n: int, seed: int):
    if kind == "ring":
        return RingSpace.random(n, seed=seed)
    if kind == "torus":
        return TorusSpace.random(n, dim=2, seed=seed)
    return UniformSpace(n)


def _spaces(kind: str, n: int, n_trials: int, seed: int):
    return [_space(kind, n, seed + k) for k in range(n_trials)]


def _assert_fused_matches_sequential(
    spaces, m, d, strategy, ball_seed, *, partitioned=False, batch_size=None
):
    rngs = [resolve_rng(ball_seed + k) for k in range(len(spaces))]
    fused_loads, fused_heights = run_fused(
        spaces, m, d, strategy, rngs,
        partitioned=partitioned, batch_size=batch_size, record_heights=True,
    )
    for k, space in enumerate(spaces):
        seq_loads, seq_heights = run_sequential(
            space, m, d, strategy, resolve_rng(ball_seed + k),
            partitioned=partitioned, record_heights=True,
        )
        assert np.array_equal(fused_loads[k], seq_loads), f"trial {k} loads"
        assert np.array_equal(fused_heights[k], seq_heights), f"trial {k} heights"


@st.composite
def _scenario(draw):
    kind = draw(st.sampled_from(["ring", "torus", "uniform"]))
    n = draw(st.integers(1, 300))
    m = draw(st.integers(0, 400))
    d = draw(st.integers(1, 4))
    n_trials = draw(st.integers(1, 9))
    strategy = draw(st.sampled_from(list(TieBreak)))
    partitioned = draw(st.booleans())
    batch_size = draw(st.sampled_from([1, 2, 7, 64, 1024, None]))
    space_seed = draw(st.integers(0, 2**16))
    ball_seed = draw(st.integers(0, 2**16))
    return (kind, n, m, d, n_trials, strategy, partitioned, batch_size,
            space_seed, ball_seed)


class TestFusedEquivalence:
    @given(_scenario())
    @settings(max_examples=50, deadline=None)
    def test_bitwise_identical_per_trial(self, scenario):
        (kind, n, m, d, n_trials, strategy, partitioned, batch_size,
         space_seed, ball_seed) = scenario
        spaces = _spaces(kind, n, n_trials, space_seed)
        _assert_fused_matches_sequential(
            spaces, m, d, strategy, ball_seed,
            partitioned=partitioned, batch_size=batch_size,
        )

    @pytest.mark.parametrize("strategy", list(TieBreak))
    def test_medium_scale_all_strategies(self, strategy):
        spaces = _spaces("ring", 1024, 12, seed=5)
        _assert_fused_matches_sequential(spaces, 1024, 2, strategy, 17)

    @pytest.mark.parametrize("kind", ["ring", "torus", "uniform"])
    def test_single_trial_matches(self, kind):
        """T=1 degenerates to an ordinary (if oddly batched) run."""
        spaces = _spaces(kind, 200, 1, seed=3)
        _assert_fused_matches_sequential(spaces, 350, 2, TieBreak.RANDOM, 11)

    def test_m_not_equal_n(self):
        spaces = _spaces("ring", 128, 5, seed=1)
        _assert_fused_matches_sequential(spaces, 1000, 3, TieBreak.RANDOM, 2)

    def test_partitioned_arc_left(self):
        """The paper's arc-left scheme: partitioned + FIRST."""
        spaces = _spaces("ring", 256, 6, seed=9)
        _assert_fused_matches_sequential(
            spaces, 256, 2, TieBreak.FIRST, 4, partitioned=True
        )

    def test_chunk_size_one_matches(self):
        """batch_size=1 degenerates to per-ball stepping."""
        spaces = _spaces("ring", 64, 4, seed=2)
        _assert_fused_matches_sequential(
            spaces, 200, 2, TieBreak.RANDOM, 8, batch_size=1
        )

    def test_heavy_conflicts(self):
        """Tiny n forces constant intra-chunk repairs."""
        spaces = _spaces("ring", 4, 6, seed=7)
        _assert_fused_matches_sequential(spaces, 300, 2, TieBreak.RANDOM, 3)

    def test_rng_block_boundary_crossing(self):
        spaces = _spaces("ring", 100, 3, seed=4)
        rngs = [resolve_rng(50 + k) for k in range(3)]
        fused_loads, _ = run_fused(
            spaces, 5 * 1000 + 37, 2, TieBreak.RANDOM, rngs, rng_block=1000
        )
        for k, space in enumerate(spaces):
            seq_loads, _ = run_sequential(
                space, 5 * 1000 + 37, 2, TieBreak.RANDOM, resolve_rng(50 + k),
                rng_block=1000,
            )
            assert np.array_equal(fused_loads[k], seq_loads)

    def test_mismatched_bin_counts_rejected(self):
        spaces = [_space("ring", 64, 1), _space("ring", 65, 2)]
        with pytest.raises(ValueError, match="share a bin count"):
            run_fused(spaces, 10, 2, TieBreak.RANDOM,
                      [resolve_rng(0), resolve_rng(1)])

    def test_mismatched_rngs_rejected(self):
        spaces = _spaces("ring", 64, 2, seed=1)
        with pytest.raises(ValueError, match="generators"):
            run_fused(spaces, 10, 2, TieBreak.RANDOM, [resolve_rng(0)])

    def test_no_trials_rejected(self):
        with pytest.raises(ValueError, match="at least one trial"):
            run_fused([], 10, 2, TieBreak.RANDOM, [])


class TestFusedFleet:
    """Eight 2^16-server rings: one fused pass against one ``place_balls``
    call per trial (the table hot path and its per-trial twin)."""

    N, TRIALS = 1 << 16, 8

    @pytest.fixture(scope="class")
    def ring_fleet(self):
        return _spaces("ring", self.N, self.TRIALS, seed=100)

    def _fused(self, ring_fleet):
        rngs = [resolve_rng(1 + k) for k in range(self.TRIALS)]
        return run_fused(ring_fleet, self.N, 2, TieBreak.RANDOM, rngs)[0]

    def test_fused_loads_account_for_every_ball(self, ring_fleet):
        loads = self._fused(ring_fleet)
        assert loads.shape == (self.TRIALS, self.N)
        assert loads.sum() == self.TRIALS * self.N

    def test_per_trial_loads_account_for_every_ball(self, ring_fleet):
        total = sum(
            place_balls(space, self.N, 2, seed=1 + k).loads.sum()
            for k, space in enumerate(ring_fleet)
        )
        assert total == self.TRIALS * self.N

    def test_fused_equals_per_trial(self, ring_fleet):
        fused = self._fused(ring_fleet)
        for k, space in enumerate(ring_fleet):
            single = place_balls(space, self.N, 2, seed=1 + k).loads
            assert np.array_equal(fused[k], single)


class TestFusedTuning:
    def test_auto_batch_grows_with_trials(self):
        assert (auto_fused_batch_size(1 << 16, 2, 100)
                > auto_fused_batch_size(1 << 16, 2, 1))

    def test_auto_batch_bounded(self):
        assert 256 <= auto_fused_batch_size(1, 4, 1) <= 1 << 14
        assert 256 <= auto_fused_batch_size(1 << 24, 1, 10**6) <= 1 << 14

    def test_trial_chunk_bounded_memory(self):
        # candidate cap: rows × d × chunk stays bounded
        chunk = fused_trial_chunk(1 << 16, 1 << 16, 2)
        assert chunk >= 1
        assert min(1 << 16, 1 << 16) * 2 * chunk <= 1 << 23
        # bin cap: T·n stays bounded
        assert fused_trial_chunk(1 << 24, 1 << 24, 2) * (1 << 24) <= 1 << 24

    def test_chunking_never_changes_results(self):
        from repro.stats.trials import CellSpec, run_cell
        from repro.utils.rng import spawn_seed_sequences

        spec = CellSpec("ring", 64, 2)
        maxima = []
        for ss in spawn_seed_sequences(0, 9):
            rng = np.random.default_rng(ss)
            space = RingSpace.random(64, seed=rng)
            loads, _ = run_sequential(space, 64, 2, TieBreak.RANDOM, rng)
            maxima.append(int(loads.max()))
        fused = run_cell(spec, trials=9, seed=0)
        assert fused.counts == {k: maxima.count(k) for k in sorted(set(maxima))}
