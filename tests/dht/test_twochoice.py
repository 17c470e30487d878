"""Tests for the two-choice DHT refinement."""

import numpy as np
import pytest

from repro.dht.chord import ChordRing
from repro.dht.twochoice import TwoChoiceDHT
from repro.dht.workload import generate_keys


@pytest.fixture
def dht():
    return TwoChoiceDHT(ChordRing.random(64, seed=0), d=2, seed=1)


class TestBasicOperations:
    def test_insert_then_lookup(self, dht):
        dht.insert("k1", "v1")
        assert dht.lookup("k1") == "v1"

    def test_lookup_probe_all(self, dht):
        dht.insert("k1", "v1")
        assert dht.lookup("k1", probe_all=True) == "v1"

    def test_missing_key_raises(self, dht):
        dht.insert("k1", "v1")
        with pytest.raises(KeyError):
            dht.lookup("nope")
        with pytest.raises(KeyError):
            dht.lookup("nope", probe_all=True)
        assert dht.stats.failed_lookups == 2

    def test_bytes_keys(self, dht):
        dht.insert(b"bk", 7)
        assert dht.lookup(b"bk") == 7

    def test_remove(self, dht):
        dht.insert("k1", "v1")
        dht.remove("k1")
        with pytest.raises(KeyError):
            dht.lookup("k1")

    def test_remove_missing_raises(self, dht):
        with pytest.raises(KeyError):
            dht.remove("ghost")

    def test_remove_clears_redirects(self, dht):
        dht.insert("k1", "v1")
        dht.remove("k1")
        assert dht.storage_overhead() == 0.0

    def test_rejects_non_ring(self):
        with pytest.raises(TypeError, match="ChordRing"):
            TwoChoiceDHT("not a ring")

    def test_all_keys_retrievable(self, dht):
        keys = generate_keys(300, seed=2)
        for k in keys:
            dht.insert(k, k[::-1])
        for k in keys:
            assert dht.lookup(k) == k[::-1]

    @pytest.mark.parametrize("n, seed, items", [(64, 1, 200), (1024, 4, 500)],
                             ids=["n64", "n1024"])
    def test_loads_conserve_items(self, n, seed, items):
        dht = TwoChoiceDHT(ChordRing.random(n, seed=0), d=2, seed=seed)
        for k in generate_keys(items, seed=3):
            dht.insert(k)
        assert dht.loads().sum() == items


class TestBalancing:
    def test_d2_beats_d1(self):
        """The headline effect, at the DHT layer."""
        maxima = {1: [], 2: []}
        for d in (1, 2):
            for seed in range(5):
                dht = TwoChoiceDHT(ChordRing.random(64, seed=seed), d=d, seed=seed)
                for k in generate_keys(640, seed=100 + seed):
                    dht.insert(k)
                maxima[d].append(dht.max_load())
        assert np.mean(maxima[2]) < np.mean(maxima[1])

    def test_storage_overhead_bounded(self, dht):
        for k in generate_keys(200, seed=4):
            dht.insert(k)
        # d - 1 = 1 pointer per item, minus hash collisions into the
        # same owner
        assert 0.0 <= dht.storage_overhead() <= 1.0

    def test_d1_zero_overhead(self):
        dht = TwoChoiceDHT(ChordRing.random(32, seed=5), d=1, seed=6)
        for k in generate_keys(100, seed=7):
            dht.insert(k)
        assert dht.storage_overhead() == 0.0


class TestStats:
    def test_hop_accounting(self, dht):
        keys = generate_keys(50, seed=8)
        for k in keys:
            dht.insert(k)
        for k in keys:
            dht.lookup(k)
        assert dht.stats.inserts == 50
        assert dht.stats.lookups == 50
        assert dht.stats.mean_insert_hops > 0
        # lookups: one route + at most one redirect
        assert dht.stats.mean_lookup_hops <= dht.stats.mean_insert_hops

    def test_insert_costs_d_lookups(self):
        a = TwoChoiceDHT(ChordRing.random(64, seed=9), d=1, seed=10)
        b = TwoChoiceDHT(ChordRing.random(64, seed=9), d=3, seed=10)
        for k in generate_keys(80, seed=11):
            a.insert(k)
            b.insert(k)
        assert b.stats.mean_insert_hops > 1.5 * a.stats.mean_insert_hops


class TestUpsert:
    def test_reinsert_updates_in_place(self, dht):
        """Found by the stateful model: re-insert must not create a
        second primary copy."""
        a = dht.insert("k", 1)
        b = dht.insert("k", 2)
        assert a == b
        assert dht.lookup("k") == 2
        assert int(dht.loads().sum()) == 1

    def test_reinsert_keeps_redirects_valid(self, dht):
        dht.insert("k", 1)
        dht.insert("k", 2)
        assert dht.lookup("k", probe_all=True) == 2
        dht.remove("k")
        assert dht.storage_overhead() == 0.0
