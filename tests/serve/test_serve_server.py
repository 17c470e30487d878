"""PlacementServer semantics: batching, queueing, keys, snapshots."""

import dataclasses

import numpy as np
import pytest
from helpers import check_state

from repro.core.ring import RingSpace
from repro.kernels import available_backends, get_backend
from repro.serve import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    CandidateStream,
    PlacementServer,
)

HAS_CEXT = available_backends().get("cext", False)
needs_cext = pytest.mark.skipif(not HAS_CEXT, reason="no C compiler")
BACKENDS = ["numpy", pytest.param("cext", marks=needs_cext)]


def _server(seed=7, **kwargs):
    kwargs.setdefault("max_batch", 8)
    return PlacementServer(RingSpace.random(16, seed=9), d=2, seed=seed, **kwargs)


def _scalar_run(server):
    for i in range(40):
        server.insert(f"k{i}")
    outs = [server.lookup(f"k{i}") for i in range(40)]
    for i in range(0, 40, 3):
        server.delete(f"k{i}")
    return outs


class TestBatchingEquivalence:
    def test_scalar_vs_submit(self):
        s1 = _server()
        outs1 = _scalar_run(s1)
        s2 = _server()
        kinds = np.array([OP_INSERT] * 40 + [OP_LOOKUP] * 40
                         + [OP_DELETE] * 14, dtype=np.int8)
        keys = ([f"k{i}" for i in range(40)] * 2
                + [f"k{i}" for i in range(0, 40, 3)])
        res = s2.submit(kinds, keys)
        assert list(res[40:80]) == outs1
        assert np.array_equal(s1.loads, s2.loads)

    @pytest.mark.parametrize("max_batch", [1, 2, 7, 4096])
    def test_any_batch_size_identical(self, max_batch):
        ref = _server(max_batch=4096)
        _scalar_run(ref)
        s = _server(max_batch=max_batch)
        kinds = np.array([OP_INSERT] * 40 + [OP_LOOKUP] * 40
                         + [OP_DELETE] * 14, dtype=np.int8)
        keys = ([f"k{i}" for i in range(40)] * 2
                + [f"k{i}" for i in range(0, 40, 3)])
        s.submit(kinds, keys)
        assert np.array_equal(ref.loads, s.loads)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("max_batch", [1, 2, 3, 7, 4096])
    def test_insert_deleted_in_same_batch_reports_its_bin(self, max_batch, backend):
        # a later delete in the same block must not hide the insert's
        # bin; 22 ops pass SMALL_WINDOW_CUTOFF, so at 4096 the block
        # reaches the kernel or the numpy tier's conflict-free prefixes
        ref = _server()
        fill = [ref.insert(f"k{i}") for i in range(16)]
        a, b = ref.insert("a"), ref.insert("b")
        ref.delete("a")
        c = ref.insert("c")
        ref.delete("b")
        s = _server(max_batch=max_batch, backend=backend)
        kinds = np.array([OP_INSERT] * 16 + [OP_INSERT, OP_INSERT, OP_DELETE,
                         OP_INSERT, OP_DELETE, OP_LOOKUP], dtype=np.int8)
        keys = [f"k{i}" for i in range(16)] + ["a", "b", "a", "c", "b", "c"]
        res = s.submit(kinds, keys)
        assert res.tolist() == fill + [a, b, -1, c, -1, c]
        assert np.array_equal(ref.loads, s.loads)

    @needs_cext
    def test_block_is_one_kernel_call(self):
        # one 4096-op submit_ids block of lookups, inserts and deletes,
        # some deleting balls inserted earlier in the block, is one
        # dynamic_window call whose results equal max_batch=1's
        rng = np.random.default_rng(0)
        warm = 512
        kinds, args, nxt, live = [], [], warm, list(range(warm))
        for _ in range(4096):
            kind = rng.choice([OP_INSERT, OP_DELETE, OP_LOOKUP], p=[0.3, 0.2, 0.5])
            if kind == OP_INSERT:
                live.append(nxt)
                args.append(nxt)
                nxt += 1
            elif kind == OP_DELETE:
                args.append(live.pop(int(rng.integers(len(live)))))
            else:
                args.append(int(rng.integers(nxt)))
            kinds.append(kind)
        kinds = np.array(kinds, dtype=np.int8)
        args = np.array(args, dtype=np.int64)
        same_block = np.isin(args[kinds == OP_DELETE], args[kinds == OP_INSERT])
        assert same_block.any()
        outs = []
        for max_batch, calls in ((4096, []), (1, None)):
            s = _server(max_batch=max_batch, backend="cext")
            s.submit_ids(np.zeros(warm, dtype=np.int8), np.arange(warm))
            if calls is not None:
                cext = get_backend("cext")

                def counted(*a, **kw):
                    calls.append(a[2:4])
                    return cext.dynamic_window(*a, **kw)

                s.backend = dataclasses.replace(cext, dynamic_window=counted)
            outs.append((s.submit_ids(kinds, args), s.loads.copy()))
            if calls is not None:
                assert calls == [(0, 4096)]
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])

    def test_enqueue_flush_matches_submit(self):
        s1 = _server()
        outs1 = _scalar_run(s1)
        s2 = _server(max_pending=16)
        for i in range(40):
            s2.enqueue(OP_INSERT, f"k{i}")
        for i in range(40):
            s2.enqueue(OP_LOOKUP, f"k{i}")
        for i in range(0, 40, 3):
            s2.enqueue(OP_DELETE, f"k{i}")
        res = s2.flush()
        assert list(res[40:80]) == outs1
        assert np.array_equal(s1.loads, s2.loads)

    def test_backpressure_drains_at_capacity(self):
        s = _server(max_pending=8)
        for i in range(8):
            s.enqueue(OP_INSERT, f"k{i}")
        assert s.pending == 0  # the queue drained itself
        assert s.occupancy == 8
        assert s.flush().size == 8

    def test_scalar_ops_flush_queue_first(self):
        s = _server()
        s.enqueue(OP_INSERT, "a")
        assert s.pending == 1
        assert s.lookup("a") >= 0  # visible: the queue flushed
        assert s.flush().size == 1


class TestKeySemantics:
    def test_duplicate_insert_raises(self):
        s = _server()
        s.insert("a")
        with pytest.raises(KeyError):
            s.insert("a")

    def test_unknown_delete_and_lookup_raise(self):
        s = _server()
        with pytest.raises(KeyError):
            s.delete("ghost")
        with pytest.raises(KeyError):
            s.lookup("ghost")

    def test_delete_returns_freed_bin(self):
        s = _server()
        placed = s.insert("a")
        assert s.delete("a") == placed
        assert s.occupancy == 0
        s.insert("a")  # the key can come back
        assert s.occupancy == 1

    def test_batch_results_shape(self):
        s = _server()
        res = s.submit(
            np.array([OP_INSERT, OP_LOOKUP, OP_DELETE], dtype=np.int8),
            ["a", "a", "a"],
        )
        assert res[0] == res[1]  # insert and lookup agree on the bin
        assert res[2] == -1  # deletes report -1 in batch results

    def test_failing_block_leaves_key_map_unchanged(self):
        # the block maps "a" and drops "c" before "ghost" fails; both
        # must be undone, so the next insert cannot reuse a's ball id
        s = _server()
        c = s.insert("c")
        s.insert("d")
        before = dict(s._key_ball)
        kinds = np.array([OP_INSERT, OP_DELETE, OP_LOOKUP], dtype=np.int8)
        with pytest.raises(KeyError, match="ghost"):
            s.submit(kinds, ["a", "c", "ghost"])
        assert s._key_ball == before
        assert s.lookup("c") == c
        s.insert("b")
        s.insert("a")
        assert len(set(s._key_ball.values())) == len(s._key_ball) == s.occupancy
        s.delete("a")
        s.delete("b")
        assert check_state(s.state) == []

    def test_enqueue_refuses_an_op_the_queue_could_not_apply(self):
        # a drain that met "ghost" used to lose the whole queue: "a" and
        # "b" stayed placed, but their results and every later op were
        # dropped.  Now the op is refused before it is queued.
        s = _server(max_batch=2)
        s.enqueue(OP_INSERT, "a")
        s.enqueue(OP_INSERT, "b")
        with pytest.raises(KeyError, match="ghost"):
            s.enqueue(OP_DELETE, "ghost")
        assert s.pending == 2 and s.occupancy == 0
        placed = s.flush()
        assert placed.tolist() == [s.lookup("a"), s.lookup("b")]
        assert s.pending == 0 and s.flush().size == 0

    def test_enqueue_checks_keys_as_the_queue_leaves_them(self):
        s = _server()
        s.insert("a")
        s.enqueue(OP_DELETE, "a")
        for kind in (OP_DELETE, OP_LOOKUP):
            with pytest.raises(KeyError):
                s.enqueue(kind, "a")  # deleted by the queue
        s.enqueue(OP_INSERT, "b")
        with pytest.raises(KeyError, match="already live"):
            s.enqueue(OP_INSERT, "b")  # inserted by the queue
        s.enqueue(OP_INSERT, "a")
        s.enqueue(OP_LOOKUP, "b")
        res = s.flush()
        assert res[0] == -1 and res[1] == res[3] == s.lookup("b")
        assert res[2] == s.lookup("a") and s.occupancy == 2

    def test_submit_ids_requires_consecutive_inserts(self):
        s = _server()
        with pytest.raises(ValueError, match="consecutive"):
            s.submit_ids(
                np.array([OP_INSERT], dtype=np.int8),
                np.array([5], dtype=np.int64),
            )


class TestChurn:
    def test_bin_leave_relocates(self):
        s = _server()
        for i in range(30):
            s.insert(f"k{i}")
        victim = int(np.flatnonzero(s.loads > 0)[0])
        before = s.occupancy
        s.bin_leave(victim)
        assert s.occupancy == before  # balls moved, none lost
        assert s.loads[victim] == 0
        s.bin_join(victim)
        assert s.state.active[victim]

    def test_decisions_independent_of_arrival_pattern(self):
        # the online stream draws whole RNG blocks, so interleaving
        # reads between inserts cannot shift later decisions
        s1 = _server(seed=21)
        bins1 = [s1.insert(f"k{i}") for i in range(20)]
        s2 = _server(seed=21)
        bins2 = []
        for i in range(20):
            bins2.append(s2.insert(f"k{i}"))
            for j in range(i + 1):
                s2.lookup(f"k{j}")
        assert bins1 == bins2


class TestSnapshot:
    def test_save_load_roundtrip_continues_identically(self, tmp_path):
        path = tmp_path / "srv.npz"
        a = _server(seed=5)
        for i in range(20):
            a.insert(f"k{i}")
        a.save(path)
        b, _ = PlacementServer.load(path)
        for i in range(20, 45):
            assert a.insert(f"k{i}") == b.insert(f"k{i}")
        assert np.array_equal(a.loads, b.loads)
        assert a.lookup("k3") == b.lookup("k3")

    def test_load_restores_key_map_and_knobs(self, tmp_path):
        path = tmp_path / "srv.npz"
        a = _server(seed=5, max_batch=4, max_pending=32)
        a.insert("hello")
        a.save(path)
        b, _ = PlacementServer.load(path)
        assert b.max_batch == 4 and b.max_pending == 32
        assert b.lookup("hello") == a.lookup("hello")
        with pytest.raises(KeyError):
            b.insert("hello")

    def test_save_flushes_queue(self, tmp_path):
        path = tmp_path / "srv.npz"
        a = _server(seed=5)
        a.enqueue(OP_INSERT, "queued")
        a.save(path)
        b, _ = PlacementServer.load(path)
        assert b.lookup("queued") >= 0

    def test_extra_payload_roundtrip(self, tmp_path):
        path = tmp_path / "srv.npz"
        a = _server(seed=5)
        a.insert("x")
        a.save(path, extra_arrays={"series": np.arange(3)},
               extra_meta={"tag": "t1"})
        _, extra = PlacementServer.load(path)
        assert extra["meta"]["tag"] == "t1"
        assert np.array_equal(extra["arrays"]["series"], np.arange(3))


class TestLatencyStats:
    def test_counts_and_ordering(self):
        s = _server()
        for i in range(10):
            s.insert(f"k{i}")
        st = s.latency_stats()
        assert st.count == 10
        assert 0 < st.p50_s <= st.p95_s <= st.p99_s <= st.max_s
        assert st.ops_per_s > 0
        assert "ops/s" in st.format()

    def test_empty_stats(self):
        st = _server().latency_stats()
        assert st.count == 0 and st.ops_per_s == 0.0

    def test_reset(self):
        s = _server()
        s.insert("a")
        s.reset_latency()
        assert s.latency_stats().count == 0


class TestValidation:
    def test_pending_must_cover_batch(self):
        with pytest.raises(ValueError, match="max_pending"):
            _server(max_batch=64, max_pending=8)

    def test_prebuilt_state_needs_stream(self):
        from repro.core.incremental import IncrementalState

        space = RingSpace.random(16, seed=9)
        state = IncrementalState(space, 2, "random")
        with pytest.raises(ValueError, match="stream"):
            PlacementServer(space, 2, state=state)

    def test_exhausted_stream_leaves_the_server_unchanged(self):
        # a replay-shaped server on a 3-row stream: 4 inserts used to
        # advance the next ball id to 4 before the stream raised, so a
        # retry of the same ids failed the consecutive-insert check
        from repro.core.incremental import IncrementalState

        space = RingSpace.random(16, seed=9)
        s = PlacementServer(
            space, 2, max_batch=1, state=IncrementalState(space, 2, "random"),
            stream=CandidateStream(space, np.random.default_rng(0), 2, total=3),
        )
        inserts = np.full(4, OP_INSERT, dtype=np.int8)
        with pytest.raises(RuntimeError, match="exhausted"):
            s.submit_ids(inserts, np.arange(4))
        assert (s._next_ball, s.occupancy) == (0, 0)
        assert s.submit_ids(inserts[:2], np.arange(2)).min() >= 0
        with pytest.raises(RuntimeError, match="exhausted"):
            s.submit(inserts[:2], ["a", "b"])
        assert (s._next_ball, s.occupancy, s._key_ball) == (2, 2, {})
        s.insert("a")
        with pytest.raises(RuntimeError, match="exhausted"):
            s.insert("b")
        assert (s._next_ball, s.occupancy, s._key_ball) == (3, 3, {"a": 2})
        # a drain applies the lookup, then keeps the insert queued
        s.enqueue(OP_LOOKUP, "a")
        s.enqueue(OP_INSERT, "b")
        with pytest.raises(RuntimeError, match="exhausted"):
            s.flush()
        assert (s.pending, s._next_ball, s.occupancy) == (1, 3, 3)
        assert [r.tolist() for r in s._delivered] == [[s.state.lookup(2)]]
        assert check_state(s.state) == []

    def test_bounded_stream_exhaustion(self):
        space = RingSpace.random(16, seed=9)
        stream = CandidateStream(space, np.random.default_rng(0), 2, total=2)
        stream.ensure(2)
        with pytest.raises(RuntimeError, match="exhausted"):
            stream.ensure(3)
        assert stream.drawn == 2
