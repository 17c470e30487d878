"""IncrementalState: O(d) single-op updates, growth, snapshots."""

import numpy as np
import pytest

from repro.core.incremental import KIND_DELETE, KIND_INSERT, IncrementalState
from repro.core.ring import RingSpace


def _state(n=16, d=2, seed=0, **kwargs):
    space = RingSpace.random(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    return space, rng, IncrementalState(
        space, d, "random", aux_rng=rng.spawn(1)[0], **kwargs
    )


def _draw(space, rng, count, d=2):
    cands = space.sample_choice_bins(rng, count, d)
    us = rng.random(count)
    return cands, us


class TestSingleOps:
    def test_insert_tracks_loads(self):
        space, rng, st = _state()
        cands, us = _draw(space, rng, 10)
        bins = [st.insert(i, cands[i], float(us[i])) for i in range(10)]
        assert st.occupancy == 10
        assert st.loads.sum() == 10
        for i, b in enumerate(bins):
            assert st.lookup(i) == b
            assert b in cands[i]

    def test_delete_vacates(self):
        space, rng, st = _state()
        cands, us = _draw(space, rng, 3)
        placed = st.insert(0, cands[0], float(us[0]))
        assert st.delete(0) == placed
        assert st.occupancy == 0
        assert st.lookup(0) == -1

    def test_delete_unplaced_raises(self):
        _, _, st = _state()
        with pytest.raises(RuntimeError):
            st.delete(5)

    def test_lookup_out_of_range(self):
        _, _, st = _state()
        assert st.lookup(999) == -1

    def test_ball_index_grows(self):
        space, rng, st = _state()  # expect_balls defaults to 0
        cands, us = _draw(space, rng, 100)
        for i in range(100):
            st.insert(i, cands[i], float(us[i]))
        assert st.occupancy == 100

    def test_churn_needs_aux_rng(self):
        space = RingSpace.random(16, seed=0)
        st = IncrementalState(space, 2, "random")
        rng = np.random.default_rng(1)
        cands, us = _draw(space, rng, 5)
        for i in range(5):
            st.insert(i, cands[i], float(us[i]))
        victim = int(np.flatnonzero(st.loads > 0)[0])
        loads = st.loads.copy()
        with pytest.raises(RuntimeError, match="aux_rng"):
            st.bin_leave(victim)
        assert st.active.all() and np.array_equal(st.loads, loads)


class TestInvalidChurn:
    """Churn a trace could not contain raises and changes nothing."""

    def _loaded(self, n=4, balls=8):
        space, rng, st = _state(n=n)
        cands, us = _draw(space, rng, balls)
        for i in range(balls):
            st.insert(i, cands[i], float(us[i]))
        return st

    def _assert_rejected(self, st, call, match):
        before = (st.loads.copy(), st.active.copy(), st.ball_bin.copy(),
                  st.aux_rng.bit_generator.state)
        with pytest.raises(ValueError, match=match):
            call()
        assert np.array_equal(st.loads, before[0])
        assert np.array_equal(st.active, before[1])
        assert np.array_equal(st.ball_bin, before[2])
        assert st.aux_rng.bit_generator.state == before[3]

    @pytest.mark.parametrize("slot", [-1, 4, 100])
    def test_slot_out_of_range(self, slot):
        st = self._loaded()
        self._assert_rejected(st, lambda: st.bin_leave(slot), "outside")
        st.bin_leave(0)
        self._assert_rejected(st, lambda: st.bin_join(slot), "outside")

    def test_inactive_bin_cannot_leave(self):
        st = self._loaded()
        st.bin_leave(1)
        self._assert_rejected(st, lambda: st.bin_leave(1), "already inactive")

    def test_active_bin_cannot_join(self):
        st = self._loaded()
        self._assert_rejected(st, lambda: st.bin_join(0), "already active")

    def test_last_active_bin_cannot_leave(self):
        st = self._loaded()
        for slot in (0, 1, 2):
            st.bin_leave(slot)
        assert st.loads[3] == 8
        self._assert_rejected(st, lambda: st.bin_leave(3), "last active bin")


class TestApplyWindow:
    @pytest.mark.parametrize("rows", [1, 8, 16, 17, 200])
    def test_window_matches_scalar(self, rows):
        # below/above SMALL_WINDOW_CUTOFF both equal the scalar loop
        space, rng, st1 = _state(seed=3)
        cands, us = _draw(space, rng, rows)
        kinds = np.full(rows, KIND_INSERT, dtype=np.int8)
        kinds[1::4] = KIND_DELETE
        kinds[0] = KIND_INSERT
        args = np.empty(rows, dtype=np.int64)
        nxt = 0
        live = []
        for i in range(rows):
            if kinds[i] == KIND_INSERT or not live:
                kinds[i] = KIND_INSERT
                args[i] = nxt
                live.append(nxt)
                nxt += 1
            else:
                args[i] = live.pop(0)
        # scalar reference
        for i in range(rows):
            if kinds[i] == KIND_INSERT:
                st1.insert(args[i], cands[args[i]], float(us[args[i]]))
            else:
                st1.delete(args[i])
        space2, rng2, st2 = _state(seed=3)
        st2.apply_window(kinds, args, 0, rows, cands, us, batch_size=64)
        assert np.array_equal(st1.loads, st2.loads)
        assert np.array_equal(st1.live_loads(), st2.live_loads())

    def test_partition_invariance(self):
        space, rng, ref = _state(seed=4)
        cands, us = _draw(space, rng, 50)
        kinds = np.full(50, KIND_INSERT, dtype=np.int8)
        args = np.arange(50, dtype=np.int64)
        ref.apply_window(kinds, args, 0, 50, cands, us, batch_size=64)
        for cut in (1, 13, 49):
            _, _, st = _state(seed=4)
            st.apply_window(kinds, args, 0, cut, cands, us, batch_size=64)
            st.apply_window(kinds, args, cut, 50, cands, us, batch_size=64)
            assert np.array_equal(ref.loads, st.loads)


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        space, rng, st = _state(seed=5)
        cands, us = _draw(space, rng, 20)
        for i in range(20):
            st.insert(i, cands[i], float(us[i]))
        st.delete(3)
        path = tmp_path / "core.npz"
        st.save(path)
        restored, extra = IncrementalState.load(path)
        assert np.array_equal(restored.loads, st.loads)
        assert np.array_equal(restored.ball_bin[:20], st.ball_bin[:20])
        assert restored.inserts_done == 20 and restored.deletes_done == 1
        assert restored.strategy == st.strategy
        assert extra["meta"] == {}

    def test_restored_churn_rng_continues_identically(self, tmp_path):
        space, rng, st = _state(seed=6)
        cands, us = _draw(space, rng, 30)
        for i in range(30):
            st.insert(i, cands[i], float(us[i]))
        path = tmp_path / "core.npz"
        st.save(path)
        restored, _ = IncrementalState.load(path)
        victim = int(np.flatnonzero(st.loads > 0)[0])
        st.bin_leave(victim)
        restored.bin_leave(victim)
        assert np.array_equal(st.loads, restored.loads)
        assert np.array_equal(st.ball_bin[:30], restored.ball_bin[:30])

    def test_core_prefix_reserved(self, tmp_path):
        _, _, st = _state()
        with pytest.raises(ValueError, match="core_"):
            st.save(tmp_path / "x.npz",
                    extra_arrays={"core_evil": np.zeros(1)})

    def test_space_mismatch_rejected(self, tmp_path):
        space, rng, st = _state(n=16)
        st.save(tmp_path / "x.npz")
        with pytest.raises(ValueError):
            IncrementalState.load(tmp_path / "x.npz",
                                  space=RingSpace.random(8, seed=0))
