"""Engine throughput benchmarks: the guide's "measure before optimizing".

Times the sequential reference, the trial-fused engine (one trial
through ``place_balls``, and a fleet of trials in one pass) and the
geometry substrate primitives so regressions are caught as numbers,
not vibes.  ``run_benchmarks.py`` in this directory turns the same
engine comparison into the tracked ``BENCH_engine.json`` artifact.
"""

import numpy as np
import pytest

from repro.core.engine import run_sequential
from repro.core.multitrial import run_fused
from repro.core.placement import place_balls
from repro.core.ring import RingSpace
from repro.core.strategies import TieBreak
from repro.core.torus import TorusSpace
from repro.utils.rng import resolve_rng

N = 1 << 16

#: Trials fused per benchmark round — enough to show the cross-trial
#: amortization without blowing up suite runtime.
FUSED_TRIALS = 8


@pytest.fixture(scope="module")
def big_ring():
    return RingSpace.random(N, seed=0)


@pytest.fixture(scope="module")
def big_torus():
    return TorusSpace.random(N, seed=0)


@pytest.fixture(scope="module")
def ring_fleet():
    return [RingSpace.random(N, seed=100 + k) for k in range(FUSED_TRIALS)]


def test_ring_single_run(benchmark, big_ring):
    loads = benchmark(lambda: place_balls(big_ring, N, 2, seed=1).loads)
    assert loads.sum() == N


def test_ring_sequential_engine(benchmark, big_ring):
    m = N // 8  # the reference loop is ~1.5x slower; keep rounds short
    loads = benchmark(
        lambda: run_sequential(big_ring, m, 2, TieBreak.RANDOM, resolve_rng(1))[0]
    )
    assert loads.sum() == m


def test_torus_single_run(benchmark, big_torus):
    loads = benchmark(lambda: place_balls(big_torus, N, 2, seed=1).loads)
    assert loads.sum() == N


def test_ring_assign_throughput(benchmark, big_ring):
    queries = np.random.default_rng(2).random(1 << 20)
    owners = benchmark(big_ring.assign, queries)
    assert owners.shape == queries.shape


def test_torus_assign_throughput(benchmark, big_torus):
    queries = np.random.default_rng(3).random((1 << 18, 2))
    owners = benchmark(big_torus.assign, queries)
    assert owners.shape == (queries.shape[0],)


def test_smaller_strategy_overhead(benchmark, big_ring):
    """Measure the cost of measure-aware tie-breaking."""
    loads = benchmark(
        lambda: place_balls(big_ring, N // 4, 2, strategy="smaller", seed=4).loads
    )
    assert loads.sum() == N // 4


def test_ring_fused_engine(benchmark, ring_fleet):
    """All FUSED_TRIALS trials in one fused pass (the table hot path)."""

    def job():
        rngs = [resolve_rng(1 + k) for k in range(FUSED_TRIALS)]
        return run_fused(ring_fleet, N, 2, TieBreak.RANDOM, rngs)[0]

    loads = benchmark(job)
    assert loads.shape == (FUSED_TRIALS, N)
    assert loads.sum() == FUSED_TRIALS * N


def test_ring_per_trial_same_fleet(benchmark, ring_fleet):
    """The same workload as ``test_ring_fused_engine``, one ``place_balls``
    call per trial — the pairing whose ratio is the fusion's gain."""

    def job():
        return sum(
            place_balls(space, N, 2, seed=1 + k).loads.sum()
            for k, space in enumerate(ring_fleet)
        )

    total = benchmark(job)
    assert total == FUSED_TRIALS * N


def test_fused_equals_per_trial_fleet(ring_fleet):
    """Not a timing: the two paths above really run the same process."""
    rngs = [resolve_rng(1 + k) for k in range(FUSED_TRIALS)]
    fused, _ = run_fused(ring_fleet, N, 2, TieBreak.RANDOM, rngs)
    for k, space in enumerate(ring_fleet):
        single = place_balls(space, N, 2, seed=1 + k).loads
        assert np.array_equal(fused[k], single)
