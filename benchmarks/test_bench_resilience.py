"""Benchmarks for the resilience layer and conflict-prefix primitive."""

import numpy as np
import pytest

from repro.core.incremental import mixed_conflict_prefix
from repro.dht.chord import ChordRing
from repro.dht.resilience import ResilientChord


ALL_INSERTS = np.ones(2048, dtype=bool)


def test_conflict_prefix_large_batch(benchmark):
    """The batched dynamic engine's hot primitive at a realistic batch shape."""
    rng = np.random.default_rng(0)
    cand = rng.integers(0, 1 << 20, size=(2048, 2))
    prefix = benchmark(mixed_conflict_prefix, cand, ALL_INSERTS)
    assert 1 <= prefix <= 2048


def test_conflict_prefix_dense_conflicts(benchmark):
    """Small bin space: prefixes are short, the scalar fallback reigns."""
    rng = np.random.default_rng(1)
    cand = rng.integers(0, 64, size=(2048, 2))
    prefix = benchmark(mixed_conflict_prefix, cand, ALL_INSERTS)
    assert 1 <= prefix <= 64


@pytest.fixture(scope="module")
def failed_ring():
    rc = ResilientChord(ChordRing.random(512, seed=0))
    rc.fail_random(128, seed=1)
    rc.ring.finger_table()
    return rc


def test_lookup_under_failures(benchmark, failed_ring):
    rng = np.random.default_rng(2)
    live = np.nonzero(failed_ring.alive)[0]
    idents = rng.integers(0, 1 << 63, size=256).astype(np.uint64) * np.uint64(2)
    starts = rng.choice(live, size=256)

    def route_all():
        total = 0
        for ident, start in zip(idents, starts):
            total += failed_ring.lookup_live(int(ident), int(start)).hops
        return total / idents.size

    mean_hops = benchmark(route_all)
    assert mean_hops <= 4 * np.log2(512)
