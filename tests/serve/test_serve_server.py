"""PlacementServer semantics: batching, keys, snapshots, latency."""

import dataclasses
import json

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
from repro.serve.server import _LatencyRecorder

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

    def test_max_batch_has_no_upper_bound(self):
        ops = np.zeros(300, dtype=np.int8), np.arange(300)
        big = _server(max_batch=1 << 17)
        res = big.submit_ids(*ops)
        one = _server(max_batch=1)
        assert np.array_equal(res, one.submit_ids(*ops))
        assert np.array_equal(big.loads, one.loads)


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

    # ops 0-4 are valid; op 5 fails only because of "x", held before the
    # batch, or of ops 0-4 themselves
    PREFIX = [(OP_INSERT, "a"), (OP_DELETE, "x"), (OP_INSERT, "b"),
              (OP_DELETE, "a"), (OP_LOOKUP, "b")]
    FAILING = {
        "unknown-key": (OP_DELETE, "ghost"),
        "deleted-in-batch": (OP_LOOKUP, "a"),
        "inserted-in-batch": (OP_INSERT, "b"),
    }

    @pytest.mark.parametrize("max_batch", [1, 3, 4096])
    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_failing_block_keeps_earlier_blocks(self, case, max_batch):
        # blocks before the failing one stay applied; the failing block,
        # alone, mid-batch or the whole batch, is undone with its key map
        # entries and ball ids, and nothing after it runs
        ops = [*self.PREFIX, self.FAILING[case], (OP_INSERT, "z")]
        kinds = np.array([kind for kind, _ in ops], dtype=np.int8)
        s = _server(max_batch=max_batch)
        s.insert("x")
        with pytest.raises(KeyError):
            s.submit(kinds, [key for _, key in ops])
        ref = _server()
        ref.insert("x")
        scalar = {OP_INSERT: ref.insert, OP_DELETE: ref.delete,
                  OP_LOOKUP: ref.lookup}
        applied = 5 // max_batch * max_batch
        for kind, key in self.PREFIX[:applied]:
            scalar[kind](key)
        assert s._key_ball == ref._key_ball
        assert s._next_ball == ref._next_ball
        assert np.array_equal(s.loads, ref.loads)
        assert check_state(s.state) == []
        assert s.insert("z") == ref.insert("z")
        assert np.array_equal(s.loads, ref.loads)

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
        a = _server(seed=5, max_batch=4)
        a.insert("hello")
        a.save(path)
        b, _ = PlacementServer.load(path)
        assert b.max_batch == 4
        assert b.lookup("hello") == a.lookup("hello")
        with pytest.raises(KeyError):
            b.insert("hello")

    def test_load_ignores_a_stored_max_pending(self, tmp_path):
        # checkpoints written while the server kept a pending queue
        # also store the queue's capacity, max_pending
        path = tmp_path / "srv.npz"
        a = _server(seed=5, max_batch=4)
        for i in range(10):
            a.insert(f"k{i}")
        a.save(path)
        with np.load(path) as payload:
            arrays = dict(payload)
        meta = json.loads(arrays["core_meta"].tobytes())
        meta["extra"]["server"]["max_pending"] = 65536
        arrays["core_meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
        np.savez(path, **arrays)
        b, _ = PlacementServer.load(path)
        assert b.max_batch == 4 and b._key_ball == a._key_ball
        for i in range(10, 30):
            assert a.insert(f"k{i}") == b.insert(f"k{i}")
        assert np.array_equal(a.loads, b.loads)

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

    def test_recorder_is_bounded_and_its_quantiles_near_exact(self):
        # 10^5 blocks of 1-4096 ops, per-op times spread over nine decades
        rng = np.random.default_rng(3)
        ops = rng.integers(1, 4097, size=100_000)
        seconds = 10.0 ** rng.uniform(-9, 0, size=ops.size) * ops
        rec = _LatencyRecorder()
        total = 0.0
        for sec, n in zip(seconds.tolist(), ops.tolist()):
            rec.record(sec, n)
            total += sec
        assert len(rec.buckets) <= 200
        st = rec.stats()
        per_op = seconds / ops
        assert st.count == ops.sum()
        assert st.mean_s == total / ops.sum()
        assert st.max_s == per_op.max()
        order = np.argsort(per_op, kind="stable")
        cum = np.cumsum(ops[order])
        for q, got in ((0.50, st.p50_s), (0.95, st.p95_s), (0.99, st.p99_s)):
            exact = per_op[order][np.searchsorted(cum, q * st.count)]
            assert abs(np.log2(got / exact)) <= 0.25 + 1e-12, (q, got, exact)

    def test_one_per_op_time_reads_exactly(self):
        # estimates are clamped to the exact [min, max], so blocks whose
        # per-op times are all equal give that time at every quantile
        rec = _LatencyRecorder()
        for ops in (1, 7, 4096):
            rec.record(ops * 2.0**-18, ops)
        st = rec.stats()
        assert st.count == 4104
        assert st.p50_s == st.p95_s == st.p99_s == st.max_s == 2.0**-18
        assert st.mean_s == 2.0**-18

    def test_zero_time_blocks_read_as_zero(self):
        # a clock too coarse to see a block records 0 s, which lands in
        # the non-positive bucket rather than in log2
        rec = _LatencyRecorder()
        rec.record(0.0, 60)
        rec.record(40 * 2.0**-20, 40)
        st = rec.stats()
        assert (st.count, st.total_s, st.max_s) == (100, 40 * 2.0**-20, 2.0**-20)
        assert st.mean_s == st.total_s / 100
        assert st.p50_s == 0.0
        assert 2.0**-20.25 < st.p95_s <= st.p99_s <= st.max_s


class TestValidation:
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
        assert check_state(s.state) == []

    def test_bounded_stream_exhaustion(self):
        space = RingSpace.random(16, seed=9)
        stream = CandidateStream(space, np.random.default_rng(0), 2, total=2)
        stream.ensure(2)
        with pytest.raises(RuntimeError, match="exhausted"):
            stream.ensure(3)
        assert stream.drawn == 2
