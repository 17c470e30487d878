"""Tests for event traces, delete policies and generators."""

import numpy as np
import pytest

from repro.dynamics.events import (
    DeletePolicy,
    EventKind,
    EventTrace,
    TraceBuilder,
    adversarial_burst_trace,
    churn_storm_trace,
    poisson_trace,
    steady_state_trace,
)
from repro.utils.rng import resolve_rng


class TestTraceBuilder:
    def test_insert_ids_sequential(self):
        b = TraceBuilder()
        assert [b.insert() for _ in range(4)] == [0, 1, 2, 3]

    def test_fifo_deletes_oldest(self):
        b = TraceBuilder()
        for _ in range(3):
            b.insert()
        assert b.delete("fifo", resolve_rng(0)) == 0
        assert b.delete("fifo", resolve_rng(0)) == 1

    def test_lifo_deletes_newest(self):
        b = TraceBuilder()
        for _ in range(3):
            b.insert()
        assert b.delete("lifo", resolve_rng(0)) == 2
        b.insert()  # ball 3
        assert b.delete("lifo", resolve_rng(0)) == 3

    def test_random_delete_is_live_and_deterministic(self):
        def run():
            rng = resolve_rng(42)
            b = TraceBuilder()
            for _ in range(10):
                b.insert()
            return [b.delete("random", rng) for _ in range(5)]

        a, c = run(), run()
        assert a == c
        assert len(set(a)) == 5

    def test_delete_empty_raises(self):
        with pytest.raises(ValueError, match="no live balls"):
            TraceBuilder().delete("random", resolve_rng(0))

    def test_unknown_policy_raises(self):
        b = TraceBuilder()
        b.insert()
        with pytest.raises(ValueError, match="unknown delete policy"):
            b.delete("newest", resolve_rng(0))

    def test_churn_requires_slots(self):
        with pytest.raises(ValueError, match="n_slots"):
            TraceBuilder().bin_leave(0)

    def test_cannot_drop_last_bin(self):
        b = TraceBuilder(n_slots=2)
        b.insert()
        b.bin_leave(0)
        with pytest.raises(ValueError, match="last active"):
            b.bin_leave(1)

    def test_double_leave_and_join_rejected(self):
        b = TraceBuilder(n_slots=3)
        b.bin_leave(1)
        with pytest.raises(ValueError, match="already inactive"):
            b.bin_leave(1)
        b.bin_join(1)
        with pytest.raises(ValueError, match="already active"):
            b.bin_join(1)

    def test_mark_epoch_idempotent(self):
        b = TraceBuilder()
        b.mark_epoch()  # before any event: ignored
        b.insert()
        b.mark_epoch()
        b.mark_epoch()
        t = b.build()
        assert t.epoch_ends.tolist() == [1]


class TestEventTraceValidation:
    def test_rejects_dangling_delete(self):
        with pytest.raises(ValueError, match="not live"):
            EventTrace(
                kinds=np.array([EventKind.INSERT, EventKind.DELETE], dtype=np.int8),
                args=np.array([0, 5]),
                epoch_ends=np.array([2]),
            )

    def test_rejects_double_delete(self):
        kinds = np.array(
            [EventKind.INSERT, EventKind.DELETE, EventKind.DELETE], dtype=np.int8
        )
        with pytest.raises(ValueError, match="not live"):
            EventTrace(kinds=kinds, args=np.array([0, 0, 0]), epoch_ends=np.array([3]))

    def test_rejects_non_sequential_insert_ids(self):
        with pytest.raises(ValueError, match="consecutive"):
            EventTrace(
                kinds=np.array([EventKind.INSERT], dtype=np.int8),
                args=np.array([7]),
                epoch_ends=np.array([1]),
            )

    def test_rejects_unclosed_epochs(self):
        with pytest.raises(ValueError, match="epoch_ends"):
            EventTrace(
                kinds=np.array([EventKind.INSERT], dtype=np.int8),
                args=np.array([0]),
                epoch_ends=np.array([], dtype=np.int64),
            )

    def test_rejects_churn_without_slots(self):
        with pytest.raises(ValueError, match="n_slots"):
            EventTrace(
                kinds=np.array([EventKind.BIN_LEAVE], dtype=np.int8),
                args=np.array([0]),
                epoch_ends=np.array([1]),
            )

    def test_arrays_read_only(self):
        t = steady_state_trace(4, pairs=0, seed=0)
        with pytest.raises(ValueError):
            t.kinds[0] = 3

    def test_caller_arrays_not_frozen_in_place(self):
        kinds = np.array([EventKind.INSERT, EventKind.INSERT], dtype=np.int8)
        args = np.array([0, 1], dtype=np.int64)
        ends = np.array([2], dtype=np.int64)
        t = EventTrace(kinds=kinds, args=args, epoch_ends=ends)
        kinds[0] = EventKind.DELETE  # caller keeps ownership...
        assert t.kinds[0] == EventKind.INSERT  # ...trace is unaffected

    def test_empty_trace_allowed(self):
        t = EventTrace(
            kinds=np.array([], dtype=np.int8),
            args=np.array([], dtype=np.int64),
            epoch_ends=np.array([], dtype=np.int64),
        )
        assert t.num_events == 0 and t.final_occupancy == 0


def _edge_trace() -> EventTrace:
    """Churn first, on an epoch end, back to back, closing an epoch, last."""
    b = TraceBuilder(n_slots=4)
    b.bin_leave(0)  # 0: the first event
    b.insert()  # 1
    b.insert()  # 2
    b.mark_epoch()  # epoch 0 ends at 3
    b.bin_join(0)  # 3: right on epoch 0's end
    b.bin_leave(1)  # 4: back to back with 3
    b.mark_epoch()  # epoch 1 ends at 5, right after churn
    b.insert()  # 5
    b.delete("fifo", resolve_rng(0))  # 6
    b.mark_epoch()  # epoch 2 ends at 7
    b.insert()  # 7
    b.bin_join(1)  # 8: the last event; epoch 3 ends at 9
    return b.build()


def _merge_runs(steps):
    """Join ``events`` steps that abut, undoing a cut inside a run."""
    out = []
    for step in steps:
        if out and step[0] == out[-1][0] == "events" and out[-1][2] == step[1]:
            out[-1] = ("events", out[-1][1], step[2])
        else:
            out.append(step)
    return out


class TestWindows:
    def test_whole_trace(self):
        assert list(_edge_trace().windows()) == [
            ("leave", 0, 0),
            ("events", 1, 3),
            ("epoch", 0, 3),
            ("join", 3, 0),
            ("leave", 4, 1),
            ("epoch", 1, 5),
            ("events", 5, 7),
            ("epoch", 2, 7),
            ("events", 7, 8),
            ("join", 8, 1),
            ("epoch", 3, 9),
        ]

    def test_start_and_stop_inside_runs(self):
        assert list(_edge_trace().windows(2, 6)) == [
            ("events", 2, 3),
            ("epoch", 0, 3),
            ("join", 3, 0),
            ("leave", 4, 1),
            ("epoch", 1, 5),
            ("events", 5, 6),
        ]

    def test_start_and_stop_on_epoch_ends(self):
        # the epoch ending at start was sampled by the walk that stopped there
        assert list(_edge_trace().windows(3, 7)) == [
            ("join", 3, 0),
            ("leave", 4, 1),
            ("epoch", 1, 5),
            ("events", 5, 7),
            ("epoch", 2, 7),
        ]

    def test_cut_anywhere_resumes_the_same_walk(self):
        trace = _edge_trace()
        whole = list(trace.windows())
        for cut in range(trace.num_events + 1):
            halves = list(trace.windows(0, cut)) + list(trace.windows(cut))
            assert _merge_runs(halves) == whole, cut

    def test_empty_range_and_empty_trace(self):
        assert list(_edge_trace().windows(4, 4)) == []
        empty = EventTrace(kinds=[], args=[], epoch_ends=[])
        assert list(empty.windows()) == []

    @pytest.mark.parametrize("start,stop", [(-1, 3), (5, 4), (0, 10)])
    def test_rejects_bad_range(self, start, stop):
        with pytest.raises(ValueError, match="start <= stop"):
            list(_edge_trace().windows(start, stop))


class TestGenerators:
    @pytest.mark.parametrize("m, pairs, epochs, seed", [
        (100, 50, 5, 1),
        (1 << 14, 1 << 14, 8, 6),
    ], ids=["m100", "m16384"])
    def test_steady_state_shape(self, m, pairs, epochs, seed):
        t = steady_state_trace(m, pairs=pairs, epochs=epochs, seed=seed)
        assert t.num_events == m + 2 * pairs
        assert t.num_inserts == m + pairs and t.num_deletes == pairs
        assert t.final_occupancy == m
        assert not t.has_churn
        # warm-up epoch plus the churn-phase epochs
        assert t.epoch_ends[0] == m and int(t.epoch_ends[-1]) == t.num_events

    def test_steady_state_policies_differ(self):
        fifo = steady_state_trace(20, pairs=10, policy="fifo", seed=3)
        lifo = steady_state_trace(20, pairs=10, policy="lifo", seed=3)
        assert not np.array_equal(fifo.args, lifo.args)
        first_delete = np.nonzero(fifo.kinds == EventKind.DELETE)[0][0]
        assert fifo.args[first_delete] == 0  # oldest
        assert lifo.args[first_delete] == 19  # newest

    def test_poisson_counts_and_determinism(self):
        a = poisson_trace(500, 100, seed=9)
        b = poisson_trace(500, 100, seed=9)
        assert np.array_equal(a.kinds, b.kinds) and np.array_equal(a.args, b.args)
        assert a.num_events == 500
        assert a.num_inserts + a.num_deletes == 500
        # occupancy hovers near the target: grossly more inserts early on
        assert 0 < a.final_occupancy <= 250

    def test_adversarial_burst_structure(self):
        t = adversarial_burst_trace(40, 10, rounds=3, policy="lifo", seed=0)
        assert t.num_events == 40 + 2 * 10 * 3
        assert t.final_occupancy == 40
        # LIFO drains exactly the burst it just inserted
        deletes = t.args[t.kinds == EventKind.DELETE]
        assert deletes.max() == t.num_inserts - 1

    def test_churn_storm_balanced_leave_join(self):
        t = churn_storm_trace(32, 64, waves=2, leave_fraction=0.25, seed=5)
        assert t.has_churn and t.n_slots == 32
        leaves = int(np.count_nonzero(t.kinds == EventKind.BIN_LEAVE))
        joins = int(np.count_nonzero(t.kinds == EventKind.BIN_JOIN))
        assert leaves == joins == 2 * 8

    def test_churn_storm_no_rejoin(self):
        t = churn_storm_trace(16, 16, waves=2, leave_fraction=0.25, rejoin=False, seed=5)
        leaves = int(np.count_nonzero(t.kinds == EventKind.BIN_LEAVE))
        # wave 1 removes 4 of 16; wave 2 removes int(0.25 * 12) = 3
        assert leaves == 7
        assert int(np.count_nonzero(t.kinds == EventKind.BIN_JOIN)) == 0

    def test_churn_storm_with_pairs(self):
        t = churn_storm_trace(16, 32, waves=1, pairs_per_wave=5, seed=2)
        assert t.num_deletes == 5
        assert t.final_occupancy == 32

    def test_leave_fraction_bounds(self):
        with pytest.raises(ValueError, match="leave_fraction"):
            churn_storm_trace(16, 8, leave_fraction=1.5, seed=0)

    def test_policy_coerce_accepts_enum(self):
        t = steady_state_trace(8, pairs=2, policy=DeletePolicy.FIFO, seed=0)
        assert t.num_deletes == 2
