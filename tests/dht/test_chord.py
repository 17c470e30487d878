"""Tests for the Chord overlay: ownership, routing, membership."""

import math

import numpy as np
import pytest

from repro.dht.chord import ChordRing, in_interval
from repro.dht.hashing import RING_BITS


class TestInInterval:
    def test_plain_interval(self):
        assert in_interval(5, 3, 7)
        assert not in_interval(3, 3, 7)
        assert not in_interval(7, 3, 7)
        assert in_interval(7, 3, 7, inclusive_right=True)

    def test_wrapping_interval(self):
        assert in_interval(1, 6, 3)
        assert in_interval(7, 6, 3)
        assert not in_interval(5, 6, 3)

    def test_full_circle(self):
        assert in_interval(1, 4, 4)
        assert not in_interval(4, 4, 4)
        assert in_interval(4, 4, 4, inclusive_right=True)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ChordRing([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            ChordRing([5, 5])

    def test_rejects_oversized_ids(self):
        with pytest.raises(ValueError, match="bits"):
            ChordRing([1 << RING_BITS])

    def test_random_count_and_uniqueness(self):
        ring = ChordRing.random(100, seed=0)
        assert ring.n == 100
        assert len(set(ring.node_ids.tolist())) == 100

    def test_from_names_deterministic(self):
        a = ChordRing.from_names([f"srv{i}" for i in range(10)])
        b = ChordRing.from_names([f"srv{i}" for i in range(10)])
        assert np.array_equal(a.node_ids, b.node_ids)


class TestOwnership:
    def test_successor_semantics(self):
        ring = ChordRing([100, 200, 300])
        assert ring.successor_index(150) == 1
        assert ring.successor_index(200) == 1
        assert ring.successor_index(301) == 0  # wraps
        assert ring.successor_index(50) == 0

    def test_vectorized_matches_scalar(self):
        ring = ChordRing.random(50, seed=1)
        idents = np.random.default_rng(2).integers(0, 1 << 63, 100).astype(np.uint64)
        vec = ring.successor_index(idents)
        assert vec.tolist() == [ring.successor_index(int(i)) for i in idents]

    def test_arc_lengths_sum_to_one(self):
        ring = ChordRing.random(64, seed=3)
        assert ring.arc_lengths().sum() == pytest.approx(1.0)


class TestRouting:
    def test_lookup_owner_correct(self):
        ring = ChordRing.random(128, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(200):
            ident = int(rng.integers(0, 1 << 63)) * 2 + 1
            start = int(rng.integers(128))
            res = ring.lookup(ident, start)
            assert res.owner_index == ring.successor_index(ident)
            assert res.owner_id == int(ring.node_ids[res.owner_index])

    def test_hops_logarithmic(self):
        n = 512
        ring = ChordRing.random(n, seed=6)
        rng = np.random.default_rng(7)
        hops = [
            ring.lookup(int(rng.integers(0, 1 << 63)) * 2, int(rng.integers(n))).hops
            for _ in range(300)
        ]
        assert max(hops) <= 2 * math.log2(n)
        assert np.mean(hops) <= math.log2(n)

    def test_mean_hops_within_log2_n(self):
        n = 1024
        ring = ChordRing.random(n, seed=0)
        rng = np.random.default_rng(1)
        idents = rng.integers(0, 1 << 63, size=512).astype(np.uint64) * np.uint64(2)
        starts = rng.integers(0, n, size=512)
        hops = [ring.lookup(int(i), int(s)).hops for i, s in zip(idents, starts)]
        assert np.mean(hops) <= math.log2(n)

    def test_lookup_own_id_zero_hops(self):
        ring = ChordRing([100, 200])
        res = ring.lookup(100, 0)
        assert res.owner_index == 0 and res.hops == 0

    def test_single_node_ring(self):
        ring = ChordRing([42])
        res = ring.lookup(7)
        assert res.owner_index == 0 and res.hops == 0

    def test_path_starts_at_start(self):
        ring = ChordRing.random(64, seed=8)
        res = ring.lookup(12345, 10)
        assert res.path[0] == 10
        assert res.path[-1] == res.owner_index

    def test_rejects_bad_start(self):
        ring = ChordRing([1, 2])
        with pytest.raises(ValueError, match="start_index"):
            ring.lookup(5, 9)

    def test_rejects_oversized_ident(self):
        ring = ChordRing([1, 2])
        with pytest.raises(ValueError, match="bits"):
            ring.lookup(1 << RING_BITS)

    @pytest.mark.parametrize("n, seed", [(32, 9), (1024, 2)], ids=["n32", "n1024"])
    def test_finger_table_shape_and_semantics(self, n, seed):
        ring = ChordRing.random(n, seed=seed)
        fingers = ring.finger_table()
        assert fingers.shape == (n, RING_BITS)
        # spot-check: finger k of node i owns id_i + 2^k
        ids = ring.node_ids
        for i in (0, 7, 31):
            for k in (0, 10, 40, 63):
                target = (int(ids[i]) + (1 << k)) % (1 << RING_BITS)
                assert fingers[i, k] == ring.successor_index(target)


class TestMembership:
    def test_join_inserts_sorted(self):
        ring = ChordRing([100, 300])
        idx = ring.join(200)
        assert idx == 1
        assert ring.node_ids.tolist() == [100, 200, 300]

    def test_join_rejects_duplicate(self):
        ring = ChordRing([100])
        with pytest.raises(ValueError, match="already present"):
            ring.join(100)

    def test_leave_returns_ident(self):
        ring = ChordRing([100, 200])
        assert ring.leave(0) == 100
        assert ring.n == 1

    def test_cannot_empty_ring(self):
        ring = ChordRing([100])
        with pytest.raises(ValueError, match="last node"):
            ring.leave(0)

    def test_routing_correct_after_churn(self):
        ring = ChordRing.random(64, seed=10)
        rng = np.random.default_rng(11)
        for _ in range(10):
            ring.join(int(rng.integers(0, 1 << 63)) * 2 + 1)
            ring.leave(int(rng.integers(ring.n)))
        for _ in range(50):
            ident = int(rng.integers(0, 1 << 63)) * 2
            res = ring.lookup(ident, int(rng.integers(ring.n)))
            assert res.owner_index == ring.successor_index(ident)
