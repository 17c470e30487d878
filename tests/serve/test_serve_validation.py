"""PlacementServer input validation: str keys only, trace-legal churn.

Every rejection must happen before the server touches its state, so a
bad request can be retried or dropped without corrupting placements.
"""

import numpy as np
import pytest

from repro.core.ring import RingSpace
from repro.serve import OP_INSERT, OP_LOOKUP, PlacementServer

BAD_KEYS = [5, b"ab", None, 1.5, ("a",), np.int64(3)]


def _server(n=4, keys=8, seed=3):
    server = PlacementServer(RingSpace.random(n, seed=1), d=2, seed=seed,
                             max_batch=4)
    for i in range(keys):
        server.insert(f"key-{i}")
    return server


def _fingerprint(server):
    state = server.state
    return (state.loads.copy(), state.active.copy(), state.ball_bin.copy(),
            dict(server._key_ball), server.pending)


def _assert_unchanged(server, before):
    after = _fingerprint(server)
    for a, b in zip(before[:3], after[:3]):
        assert np.array_equal(a, b)
    assert before[3:] == after[3:]


class TestStrKeys:
    @pytest.mark.parametrize("key", BAD_KEYS, ids=repr)
    def test_insert_rejects(self, key):
        server = _server()
        before = _fingerprint(server)
        with pytest.raises(TypeError, match="must be str"):
            server.insert(key)
        _assert_unchanged(server, before)

    @pytest.mark.parametrize("key", BAD_KEYS, ids=repr)
    def test_submit_rejects_whole_batch(self, key):
        server = _server()
        server.enqueue(OP_INSERT, "queued")
        before = _fingerprint(server)
        kinds = np.array([OP_INSERT, OP_INSERT, OP_LOOKUP], dtype=np.int8)
        with pytest.raises(TypeError, match="must be str"):
            server.submit(kinds, ["fresh", key, "key-0"])
        _assert_unchanged(server, before)

    @pytest.mark.parametrize("key", BAD_KEYS, ids=repr)
    def test_enqueue_rejects(self, key):
        server = _server()
        before = _fingerprint(server)
        with pytest.raises(TypeError, match="must be str"):
            server.enqueue(OP_INSERT, key)
        _assert_unchanged(server, before)

    def test_save_load_roundtrip(self, tmp_path):
        server = _server(n=16, keys=0)
        keys = ["5", "ab", "", "key with spaces", "ключ", "🙂", "a" * 300]
        kinds = np.full(len(keys), OP_INSERT, dtype=np.int8)
        bins = server.submit(kinds, keys)
        server.delete("ab")
        server.save(tmp_path / "ck.npz")
        restored, _ = PlacementServer.load(tmp_path / "ck.npz")
        assert sorted(restored._key_ball) == sorted(k for k in keys if k != "ab")
        for key, bin_ in zip(keys, bins.tolist()):
            if key != "ab":
                assert restored.lookup(key) == bin_
        assert np.array_equal(restored.loads, server.loads)
        assert restored.insert("ab") == server.insert("ab")


class TestChurnRules:
    """The four-bin server of the bug report: 8 keys, then bad churn."""

    def test_double_leave_rejected(self):
        server = _server()
        server.bin_leave(1)
        before = _fingerprint(server)
        with pytest.raises(ValueError, match="already inactive"):
            server.bin_leave(1)
        _assert_unchanged(server, before)

    def test_join_of_live_slot_rejected(self):
        server = _server()
        before = _fingerprint(server)
        with pytest.raises(ValueError, match="already active"):
            server.bin_join(0)
        _assert_unchanged(server, before)

    @pytest.mark.parametrize("slot", [-1, 4])
    def test_out_of_range_slot_rejected(self, slot):
        server = _server()
        before = _fingerprint(server)
        with pytest.raises(ValueError, match="outside"):
            server.bin_leave(slot)
        _assert_unchanged(server, before)

    def test_last_bin_cannot_leave(self):
        server = _server()
        for slot in (0, 1, 2):
            server.bin_leave(slot)
        before = _fingerprint(server)
        with pytest.raises(ValueError, match="last active bin"):
            server.bin_leave(3)
        _assert_unchanged(server, before)
        assert server.insert("late") == 3

    def test_rejected_churn_does_not_flush_queue(self):
        server = _server()
        server.enqueue(OP_INSERT, "queued")
        with pytest.raises(ValueError):
            server.bin_join(0)
        assert server.pending == 1
