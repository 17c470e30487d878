"""Parity: the incremental core vs the batch dynamics engines.

The serving tier's contract — a replayed trace produces final loads
AND per-epoch trajectories bit-identical to
``simulate_dynamics`` (sequential and batched), for any micro-batch
size, backend, and across a mid-trace checkpoint/restore.
"""

import numpy as np
import pytest
from helpers import assert_dynamics_equal as _assert_matches
from helpers import named_scenarios as _traces

from repro.core.incremental import IncrementalState
from repro.core.ring import RingSpace
from repro.dynamics import simulate_dynamics
from repro.dynamics.events import EventKind, churn_storm_trace, steady_state_trace
from repro.kernels import available_backends
from repro.serve import replay_trace

BACKENDS = [name for name, ok in available_backends().items() if ok]


class TestReplayParity:
    @pytest.mark.parametrize("name,space,trace", _traces(),
                             ids=["steady", "burst", "storm"])
    def test_matches_sequential_engine(self, name, space, trace):
        ref = simulate_dynamics(space, trace, d=2, seed=7, batch_size=None)
        result = replay_trace(space, trace, d=2, seed=7, max_batch=64)
        _assert_matches(result, ref)

    @pytest.mark.parametrize("name,space,trace", _traces(),
                             ids=["steady", "burst", "storm"])
    def test_matches_batched_engine(self, name, space, trace):
        ref = simulate_dynamics(space, trace, d=2, seed=7, batch_size=128)
        result = replay_trace(space, trace, d=2, seed=7, max_batch=1024)
        _assert_matches(result, ref)

    @pytest.mark.parametrize("max_batch", [1, 3, 64, 4096])
    def test_batch_size_invariant(self, max_batch):
        space = RingSpace.random(48, seed=8)
        trace = steady_state_trace(150, 100, policy="random", epochs=4, seed=9)
        ref = simulate_dynamics(space, trace, d=2, seed=10, batch_size=None)
        result = replay_trace(space, trace, d=2, seed=10, max_batch=max_batch)
        _assert_matches(result, ref)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_invariant(self, backend):
        space = RingSpace.random(48, seed=8)
        trace = churn_storm_trace(48, 120, waves=2, pairs_per_wave=40,
                                  policy="random", seed=11)
        ref = simulate_dynamics(space, trace, d=2, seed=12, batch_size=64)
        result = replay_trace(space, trace, d=2, seed=12, backend=backend)
        _assert_matches(result, ref)

    def test_strategy_and_d_sweep(self):
        space = RingSpace.random(32, seed=13)
        trace = steady_state_trace(100, 80, policy="fifo", epochs=3, seed=14)
        for d in (1, 3):
            for strategy in ("random", "smaller"):
                ref = simulate_dynamics(space, trace, d=d, strategy=strategy,
                                        seed=15, batch_size=None)
                result = replay_trace(space, trace, d=d, strategy=strategy,
                                      seed=15)
                _assert_matches(result, ref)


class TestCheckpointResume:
    @pytest.mark.parametrize("name,space,trace", _traces(),
                             ids=["steady", "burst", "storm"])
    def test_resume_matches_uninterrupted(self, name, space, trace, tmp_path):
        full = replay_trace(space, trace, d=2, seed=16, max_batch=17)
        ck = tmp_path / "ck.npz"
        ats = {1, trace.num_events // 2, trace.num_events - 1,
               int(trace.epoch_ends[1])}
        churn = np.flatnonzero(trace.kinds >= EventKind.BIN_LEAVE)
        if churn.size:
            ats.add(int(churn[0]))
        for at in sorted(ats):
            part = replay_trace(space, trace, d=2, seed=16, max_batch=17,
                                checkpoint=ck, checkpoint_at=at)
            assert part.checkpointed
            assert part.events == at
            resumed = replay_trace(space, trace, d=2, seed=16, max_batch=17,
                                   resume_from=ck)
            _assert_matches(resumed, full)

    def test_resume_with_different_knobs_is_identical(self, tmp_path):
        # engine knobs cannot change results, so a resume may re-pick them
        space = RingSpace.random(32, seed=4)
        trace = churn_storm_trace(32, 120, waves=3, leave_fraction=0.25,
                                  pairs_per_wave=30, policy="fifo", seed=5)
        full = replay_trace(space, trace, d=2, seed=17)
        ck = tmp_path / "ck.npz"
        replay_trace(space, trace, d=2, seed=17, checkpoint=ck,
                     checkpoint_at=trace.num_events // 3)
        for backend in BACKENDS:
            resumed = replay_trace(space, trace, d=2, seed=17, max_batch=5,
                                   backend=backend, resume_from=ck)
            _assert_matches(resumed, full)

    def test_resume_applies_its_own_max_batch(self, tmp_path, monkeypatch):
        # the checkpoint was saved at max_batch=1024; the resume must cut
        # its blocks at the max_batch it is given and reports
        space = RingSpace.random(32, seed=4)
        trace = steady_state_trace(150, 100, policy="random", epochs=4, seed=9)
        full = replay_trace(space, trace, d=2, seed=19)
        ck = tmp_path / "ck.npz"
        replay_trace(space, trace, d=2, seed=19, checkpoint=ck,
                     checkpoint_at=trace.num_events // 3)
        blocks = []
        apply_window = IncrementalState.apply_window

        def spy(self, kinds, args, a, b, *rest, **kwargs):
            blocks.append(b - a)
            return apply_window(self, kinds, args, a, b, *rest, **kwargs)

        monkeypatch.setattr(IncrementalState, "apply_window", spy)
        resumed = replay_trace(space, trace, d=2, seed=19, max_batch=7,
                               resume_from=ck)
        assert resumed.max_batch == 7
        assert blocks and max(blocks) <= 7
        _assert_matches(resumed, full)

    def test_resume_takes_stream_from_checkpoint(self, tmp_path):
        # the checkpoint carries the candidate stream: a resume given a
        # different seed still finishes the uninterrupted run
        space = RingSpace.random(32, seed=4)
        trace = churn_storm_trace(32, 120, waves=3, leave_fraction=0.25,
                                  pairs_per_wave=30, policy="fifo", seed=5)
        full = replay_trace(space, trace, d=2, seed=18)
        ck = tmp_path / "ck.npz"
        replay_trace(space, trace, d=2, seed=18, checkpoint=ck,
                     checkpoint_at=trace.num_events // 3)
        resumed = replay_trace(space, trace, d=2, seed=999, resume_from=ck)
        _assert_matches(resumed, full)

    def test_checkpoint_requires_path(self):
        space = RingSpace.random(16, seed=0)
        trace = steady_state_trace(30, 20, policy="random", epochs=2, seed=1)
        with pytest.raises(ValueError, match="checkpoint path"):
            replay_trace(space, trace, seed=2, checkpoint_at=5)

    def test_wrong_trace_rejected(self, tmp_path):
        space = RingSpace.random(16, seed=0)
        trace = steady_state_trace(30, 20, policy="random", epochs=2, seed=1)
        other = steady_state_trace(30, 40, policy="random", epochs=2, seed=1)
        ck = tmp_path / "ck.npz"
        replay_trace(space, trace, seed=2, checkpoint=ck, checkpoint_at=5)
        with pytest.raises(ValueError, match="trace"):
            replay_trace(space, other, seed=2, resume_from=ck)

    def test_slot_count_mismatch_rejected(self, tmp_path):
        """A trace over 32 bin slots does not replay on 64 bins, fresh
        or resumed, just as the dynamic engines refuse it."""
        trace = churn_storm_trace(32, 100, waves=2, seed=2)
        wide = RingSpace.random(64, seed=0)
        with pytest.raises(ValueError, match="expects 32 bin slots"):
            simulate_dynamics(wide, trace, d=2, seed=3)
        with pytest.raises(ValueError, match="expects 32 bin slots"):
            replay_trace(wide, trace, seed=3)
        ck = tmp_path / "ck.npz"
        replay_trace(RingSpace.random(32, seed=0), trace, seed=3, checkpoint=ck,
                     checkpoint_at=50)
        with pytest.raises(ValueError, match="expects 32 bin slots"):
            replay_trace(wide, trace, seed=3, resume_from=ck)

    def test_non_replay_checkpoint_rejected(self, tmp_path):
        from repro.serve import PlacementServer

        space = RingSpace.random(16, seed=0)
        server = PlacementServer(space, seed=1)
        server.insert("k")
        path = tmp_path / "srv.npz"
        server.save(path)
        trace = steady_state_trace(30, 20, policy="random", epochs=2, seed=1)
        with pytest.raises(ValueError, match="not a replay checkpoint"):
            replay_trace(space, trace, seed=2, resume_from=path)
