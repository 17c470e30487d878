"""Property tests: the two dynamic engines are bit-for-bit the same.

Extends the static engine-equivalence guarantee to the dynamic process:
the batched engine may only reorganize arithmetic, never change the
*trajectory*.  We drive both engines over random spaces, strategies,
delete policies, batch sizes and churn patterns and require exact
equality of the final loads, the active mask, and every per-epoch
series (max load, total load, live bins, ν-profiles, full snapshots).
"""

import numpy as np
import pytest
from helpers import assert_dynamics_equal as _assert_results_identical
from helpers import build_space as _space
from helpers import build_trace as _trace
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import run_sequential
from repro.core.ring import RingSpace
from repro.core.strategies import TieBreak
from repro.dynamics.engine import (
    mixed_conflict_prefix,
    run_batched_dynamic,
    run_sequential_dynamic,
    simulate_dynamics,
)
from repro.dynamics.events import churn_storm_trace, poisson_trace, steady_state_trace
from repro.utils.rng import resolve_rng


@st.composite
def _scenario(draw):
    kind = draw(st.sampled_from(["ring", "torus", "uniform"]))
    gen = draw(st.sampled_from(["steady", "poisson", "bursts", "storm"]))
    n = draw(st.integers(2, 150))
    m = draw(st.integers(1, 200))
    d = draw(st.integers(1, 3))
    strategy = draw(st.sampled_from(list(TieBreak)))
    policy = draw(st.sampled_from(["random", "fifo", "lifo"]))
    partitioned = draw(st.booleans())
    batch_size = draw(st.sampled_from([1, 2, 7, 64, 1024]))
    space_seed = draw(st.integers(0, 2**16))
    trace_seed = draw(st.integers(0, 2**16))
    ball_seed = draw(st.integers(0, 2**16))
    return (kind, gen, n, m, d, strategy, policy, partitioned, batch_size,
            space_seed, trace_seed, ball_seed)


class TestDynamicEngineEquivalence:
    @given(_scenario())
    @settings(max_examples=50, deadline=None)
    def test_bitwise_identical_trajectories(self, scenario):
        (kind, gen, n, m, d, strategy, policy, partitioned, batch_size,
         space_seed, trace_seed, ball_seed) = scenario
        space = _space(kind, n, space_seed)
        trace = _trace(gen, n, m, policy, trace_seed)
        seq = run_sequential_dynamic(
            space, trace, d, strategy, resolve_rng(ball_seed),
            partitioned=partitioned, record_loads=True,
        )
        bat = run_batched_dynamic(
            space, trace, d, strategy, resolve_rng(ball_seed),
            partitioned=partitioned, batch_size=batch_size, record_loads=True,
        )
        _assert_results_identical(seq, bat)

    @given(_scenario())
    @settings(max_examples=50, deadline=None)
    def test_trajectory_invariants(self, scenario):
        """Loads never go negative; totals track inserts - deletes."""
        (kind, gen, n, m, d, strategy, policy, partitioned, batch_size,
         space_seed, trace_seed, ball_seed) = scenario
        space = _space(kind, n, space_seed)
        trace = _trace(gen, n, m, policy, trace_seed)
        res = run_batched_dynamic(
            space, trace, d, strategy, resolve_rng(ball_seed),
            partitioned=partitioned, batch_size=batch_size, record_loads=True,
        )
        assert res.inserts == trace.num_inserts
        assert res.deletes == trace.num_deletes
        for snap, total in zip(res.load_snapshots, res.total_load_over_time):
            assert (snap >= 0).all()
            assert int(snap.sum()) == int(total)
        assert (res.total_load_over_time >= 0).all()
        assert int(res.loads.sum()) == trace.final_occupancy

    def test_insert_only_matches_static_engine(self, medium_ring):
        """A pure-arrival trace IS the static process, bit for bit."""
        m = 3000
        trace = steady_state_trace(m, pairs=0, seed=1)
        dyn = run_sequential_dynamic(
            medium_ring, trace, 2, TieBreak.RANDOM, resolve_rng(5)
        )
        static_loads, _ = run_sequential(
            medium_ring, m, 2, TieBreak.RANDOM, resolve_rng(5)
        )
        assert np.array_equal(dyn.loads, static_loads)

    def test_insert_only_batched_matches_static_engine(self, medium_ring):
        m = 3000
        trace = steady_state_trace(m, pairs=0, seed=1)
        dyn = run_batched_dynamic(
            medium_ring, trace, 2, TieBreak.RANDOM, resolve_rng(5)
        )
        static_loads, _ = run_sequential(
            medium_ring, m, 2, TieBreak.RANDOM, resolve_rng(5)
        )
        assert np.array_equal(dyn.loads, static_loads)

    def test_batch_size_one_matches(self, small_ring):
        trace = poisson_trace(600, 100, seed=3)
        a = run_batched_dynamic(
            small_ring, trace, 2, TieBreak.RANDOM, resolve_rng(1), batch_size=1
        )
        b = run_sequential_dynamic(
            small_ring, trace, 2, TieBreak.RANDOM, resolve_rng(1)
        )
        assert np.array_equal(a.loads, b.loads)
        assert np.array_equal(a.max_load_over_time, b.max_load_over_time)

    def test_rng_block_boundary_crossing(self, small_ring):
        trace = steady_state_trace(2000, pairs=1500, seed=4)
        a = run_sequential_dynamic(
            small_ring, trace, 2, TieBreak.RANDOM, resolve_rng(4), rng_block=1000
        )
        b = run_batched_dynamic(
            small_ring, trace, 2, TieBreak.RANDOM, resolve_rng(4), rng_block=1000
        )
        assert np.array_equal(a.loads, b.loads)


class TestChurnSemantics:
    def test_departed_bin_is_empty_and_inactive(self, small_ring):
        trace = churn_storm_trace(
            small_ring.n, 200, waves=1, leave_fraction=0.25, rejoin=False, seed=7
        )
        res = run_sequential_dynamic(
            small_ring, trace, 2, TieBreak.RANDOM, resolve_rng(2)
        )
        assert not res.active.all()
        assert (res.loads[~res.active] == 0).all()
        # displaced balls survive the departure
        assert int(res.loads.sum()) == trace.final_occupancy

    def test_rejoined_bins_active_but_empty_until_new_inserts(self, small_ring):
        trace = churn_storm_trace(
            small_ring.n, 100, waves=1, leave_fraction=0.25, rejoin=True, seed=8
        )
        res = run_sequential_dynamic(
            small_ring, trace, 2, TieBreak.RANDOM, resolve_rng(3)
        )
        assert res.active.all()
        assert res.live_bins_over_time.tolist()[-1] == small_ring.n
        # the degraded epoch shows fewer live bins
        assert res.live_bins_over_time.min() < small_ring.n

    def test_churn_preserves_occupancy(self, small_torus):
        trace = churn_storm_trace(
            small_torus.n, 150, waves=3, leave_fraction=0.3, seed=9
        )
        res = run_batched_dynamic(
            small_torus, trace, 2, TieBreak.RANDOM, resolve_rng(4)
        )
        assert (res.total_load_over_time == 150).all()

    def test_measure_aware_strategy_under_churn(self, small_ring):
        """smaller/larger strategies stay well-defined as arcs merge."""
        trace = churn_storm_trace(
            small_ring.n, 120, waves=2, leave_fraction=0.3, seed=10
        )
        a = run_sequential_dynamic(
            small_ring, trace, 2, TieBreak.SMALLER, resolve_rng(6)
        )
        b = run_batched_dynamic(
            small_ring, trace, 2, TieBreak.SMALLER, resolve_rng(6), batch_size=16
        )
        assert np.array_equal(a.loads, b.loads)

    def test_slot_universe_mismatch_rejected(self, small_ring):
        trace = churn_storm_trace(small_ring.n + 1, 10, waves=1, seed=0)
        with pytest.raises(ValueError, match="slots"):
            run_sequential_dynamic(
                small_ring, trace, 2, TieBreak.RANDOM, resolve_rng(0)
            )


#: Server count of the at-scale runs below.
SCALE_N = 1 << 14


class TestOccupancyAtScale:
    @pytest.mark.parametrize("engine, make_trace, seed, occupancy", [
        pytest.param(
            run_batched_dynamic,
            lambda: steady_state_trace(SCALE_N, pairs=SCALE_N, epochs=8, seed=1),
            3, SCALE_N, id="batched-steady"),
        pytest.param(
            run_sequential_dynamic,
            lambda: steady_state_trace(SCALE_N // 8, pairs=SCALE_N // 8,
                                       epochs=4, seed=4),
            3, SCALE_N // 8, id="sequential-steady"),
        pytest.param(
            run_batched_dynamic,
            lambda: churn_storm_trace(SCALE_N, SCALE_N, waves=2,
                                      leave_fraction=0.05,
                                      pairs_per_wave=SCALE_N // 8, seed=2),
            5, SCALE_N, id="batched-storm"),
    ])
    def test_final_occupancy(self, engine, make_trace, seed, occupancy):
        ring = RingSpace.random(SCALE_N, seed=0)
        res = engine(ring, make_trace(), 2, TieBreak.RANDOM, resolve_rng(seed))
        assert res.occupancy == occupancy


class TestMixedConflictPrefix:
    def test_disjoint_inserts_full_prefix(self):
        touched = np.array([[0, 1], [2, 3], [4, 5]])
        assert mixed_conflict_prefix(touched, np.array([True] * 3)) == 3

    def test_insert_conflicts_with_earlier_insert(self):
        touched = np.array([[0, 1], [1, 2]])
        assert mixed_conflict_prefix(touched, np.array([True, True])) == 1

    def test_insert_conflicts_with_earlier_delete(self):
        touched = np.array([[5, 5], [5, 2]])
        assert mixed_conflict_prefix(touched, np.array([False, True])) == 1

    def test_delete_never_conflicts(self):
        touched = np.array([[0, 1], [0, 0], [1, 1]])
        assert mixed_conflict_prefix(touched, np.array([True, False, False])) == 3

    def test_sentinel_deletes_do_not_conflict(self):
        touched = np.array([[-1, -1], [-1, -1], [3, 4]])
        is_insert = np.array([False, False, True])
        assert mixed_conflict_prefix(touched, is_insert) == 3

    def test_intra_row_repeat_is_not_a_conflict(self):
        touched = np.array([[2, 2], [3, 4]])
        assert mixed_conflict_prefix(touched, np.array([True, True])) == 2

    def test_empty(self):
        assert mixed_conflict_prefix(np.empty((0, 2), dtype=np.int64),
                                     np.array([], dtype=bool)) == 0


class TestFacade:
    def test_engine_choice_is_invisible(self, small_ring):
        trace = steady_state_trace(200, pairs=100, seed=11)
        a = simulate_dynamics(small_ring, trace, 2, seed=12, engine="sequential")
        b = simulate_dynamics(small_ring, trace, 2, seed=12, engine="batched")
        assert np.array_equal(a.loads, b.loads)
        assert a.engine == "sequential" and b.engine == "batched"

    def test_rejects_unknown_engine(self, small_ring):
        trace = steady_state_trace(10, pairs=0, seed=0)
        with pytest.raises(ValueError, match="engine"):
            simulate_dynamics(small_ring, trace, 2, engine="quantum")

    def test_strategy_coercion(self, small_ring):
        trace = steady_state_trace(50, pairs=20, seed=1)
        res = simulate_dynamics(small_ring, trace, 2, strategy="smaller", seed=2)
        assert res.strategy is TieBreak.SMALLER

    def test_rejects_non_trace(self, small_ring):
        with pytest.raises(TypeError, match="EventTrace"):
            simulate_dynamics(small_ring, [1, 2, 3], 2)
