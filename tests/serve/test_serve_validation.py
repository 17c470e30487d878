"""PlacementServer input validation: str keys, op codes, trace-legal churn.

Every rejection must happen before the server touches its state, so a
bad request can be retried or dropped without corrupting placements.
"""

import numpy as np
import pytest

from repro.core.ring import RingSpace
from repro.kernels import available_backends
from repro.serve import OP_DELETE, OP_INSERT, OP_LOOKUP, PlacementServer

BAD_KEYS = [5, b"ab", None, 1.5, ("a",), np.int64(3)]
BACKENDS = [
    "numpy",
    pytest.param(
        "cext",
        marks=pytest.mark.skipif(
            not available_backends().get("cext", False), reason="no C compiler"
        ),
    ),
]


def _server(n=4, keys=8, seed=3):
    server = PlacementServer(RingSpace.random(n, seed=1), d=2, seed=seed,
                             max_batch=4)
    for i in range(keys):
        server.insert(f"key-{i}")
    return server


def _fingerprint(server):
    state = server.state
    return (state.loads.copy(), state.active.copy(), state.ball_bin.copy(),
            dict(server._key_ball))


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
        before = _fingerprint(server)
        kinds = np.array([OP_INSERT, OP_INSERT, OP_LOOKUP], dtype=np.int8)
        with pytest.raises(TypeError, match="must be str"):
            server.submit(kinds, ["fresh", key, "key-0"])
        _assert_unchanged(server, before)

    @pytest.mark.parametrize("key", BAD_KEYS, ids=repr)
    def test_delete_and_lookup_reject(self, key):
        # only str keys are ever live, so the scalar paths meet any
        # other key as unknown
        server = _server()
        before = _fingerprint(server)
        for call in (server.delete, server.lookup):
            with pytest.raises(KeyError):
                call(key)
        _assert_unchanged(server, before)
        assert server.occupancy == 8

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

    def test_save_load_roundtrips_nul_and_surrogate_keys(self, tmp_path):
        # a numpy ``U`` array strips trailing NULs: "a\x00" came back "a"
        server = _server(n=16, keys=0)
        keys = ["", "\x00", "a\x00", "a", "é", "\ud800", "🙂"]
        bins = server.submit(np.full(len(keys), OP_INSERT, dtype=np.int8), keys)
        server.save(tmp_path / "ck.npz")
        restored, _ = PlacementServer.load(tmp_path / "ck.npz")
        assert restored._key_ball == server._key_ball
        assert len(restored._key_ball) == restored.occupancy == len(keys)
        for key, bin_ in zip(keys, bins.tolist()):
            assert restored.lookup(key) == bin_


class TestOpValidation:
    """Bad op codes and length mismatches raise before any change."""

    def _rejects(self, server, call, match):
        before = _fingerprint(server)
        with pytest.raises(ValueError, match=match):
            call()
        _assert_unchanged(server, before)

    def test_submit_rejects_unknown_op(self):
        server = _server()
        self._rejects(
            server, lambda: server.submit([7], ["key-0"]), "invalid op code"
        )
        assert server.lookup("key-0") >= 0

    def test_submit_ids_rejects_unknown_op(self):
        server = _server()
        self._rejects(
            server, lambda: server.submit_ids([5], [0]), "invalid op code"
        )
        assert server.state.lookup(0) >= 0

    def test_submit_rejects_more_keys_than_kinds(self):
        server = _server()
        kinds = [OP_DELETE, OP_DELETE]
        self._rejects(
            server,
            lambda: server.submit(kinds, ["key-0", "key-1", "key-2"]),
            "do not match 3 keys",
        )

    def test_submit_rejects_fewer_keys_than_kinds(self):
        server = _server()
        kinds = [OP_INSERT, OP_INSERT, OP_INSERT]
        self._rejects(
            server, lambda: server.submit(kinds, ["x"]), "do not match 1 keys"
        )
        assert "x" not in server._key_ball

    def test_submit_ids_rejects_length_mismatch(self):
        server = _server()
        self._rejects(
            server,
            lambda: server.submit_ids([OP_LOOKUP, OP_LOOKUP], [0]),
            "do not match 1 args",
        )


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


class TestChurnCheckedOnce:
    """A served leave or join runs the churn rules once, in the state."""

    @pytest.fixture
    def checks(self, monkeypatch):
        from repro.core.incremental import IncrementalState

        calls = []
        original = IncrementalState.check_churn

        def counted(self, slot, *, leaving):
            calls.append((slot, leaving))
            return original(self, slot, leaving=leaving)

        monkeypatch.setattr(IncrementalState, "check_churn", counted)
        return calls

    def test_one_check_per_leave_and_join(self, checks):
        server = _server()
        server.bin_leave(1)
        assert checks == [(1, True)]
        server.bin_join(1)
        assert checks == [(1, True), (1, False)]

    def test_invalid_churn_still_raises_unchanged(self, checks):
        server = _server()
        server.bin_leave(1)
        before = _fingerprint(server)
        with pytest.raises(ValueError, match="already inactive"):
            server.bin_leave(1)
        with pytest.raises(ValueError, match="already active"):
            server.bin_join(0)
        _assert_unchanged(server, before)
        assert len(checks) == 3


class TestSubmitIds:
    """Ids that break the trace discipline raise before any change.

    A 64-bin ring holds balls 0–39; each bad block is padded with
    lookups to 4 or 40 ops, so that it takes the scalar tier or, at 40,
    the kernel or the numpy tier.
    """

    BAD = {
        "double-delete": [(OP_DELETE, 7), (OP_LOOKUP, 7), (OP_DELETE, 7)],
        "negative-id": [(OP_LOOKUP, -1)],
        "id-past-inserts": [(OP_INSERT, 40), (OP_LOOKUP, 41)],
        "delete-before-insert": [(OP_DELETE, 40), (OP_INSERT, 40)],
        "delete-of-deleted": [(OP_DELETE, 5)],
    }

    def _server(self, backend):
        server = PlacementServer(RingSpace.random(64, seed=1), d=2, seed=3,
                                 backend=backend)
        server.submit_ids(np.zeros(40, dtype=np.int8), np.arange(40))
        server.submit_ids([OP_DELETE], [5])
        return server

    @staticmethod
    def _block(ops, size):
        kinds = np.full(size, OP_LOOKUP, dtype=np.int8)
        args = np.arange(size, dtype=np.int64) % 40
        for i, (kind, arg) in enumerate(ops):
            kinds[i], args[i] = kind, arg
        return kinds, args

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("size", [4, 40])
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_rejected_before_any_change(self, case, size, backend):
        server = self._server(backend)
        state = server.state
        before = (state.loads.copy(), state.ball_bin.copy(), server._next_ball,
                  state.occupancy)
        with pytest.raises(ValueError, match="submit_ids"):
            server.submit_ids(*self._block(self.BAD[case], size))
        assert np.array_equal(state.loads, before[0])
        assert np.array_equal(state.ball_bin, before[1])
        assert (server._next_ball, state.occupancy) == before[2:]
        assert server.submit_ids([OP_INSERT], [40]).tolist() == [
            state.lookup(40)]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("size", [4, 40])
    def test_unplaced_lookups_and_same_block_deletes_accepted(self, size, backend):
        server = self._server(backend)
        ops = [(OP_LOOKUP, 5), (OP_INSERT, 40), (OP_DELETE, 40)]
        res = server.submit_ids(*self._block(ops, size))
        assert res[0] == -1 and res[1] >= 0 and res[2] == -1
        assert server.state.occupancy == 39
        assert server.state.loads.sum() == 39
