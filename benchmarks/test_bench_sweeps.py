"""Sweep-layer benchmarks: cache reruns and orchestration overhead.

The headline check is the ISSUE-5 acceptance bar: a warm-cache table
rerun through :mod:`repro.sweeps` must be **>= 10x** faster than the
cold run that populated the cache.  The warm path is pure JSON reads
while the cold path simulates hundreds of thousands of ball
placements, so the bar holds with an order of magnitude to spare on
any hardware; ``run_sweep_benchmarks.py`` records the measured ratio
in the tracked ``BENCH_sweeps.json``.
"""

import statistics
import time

import pytest

from repro.experiments.table1 import run as run_table1
from repro.sweeps import ResultCache, SweepGrid, run_sweep

GRID = SweepGrid(n=(1 << 10, 1 << 11), d=(1, 2), trials=20, name="bench")

TABLE1_KWARGS = dict(trials=20, n_values=(1 << 10, 1 << 11))

#: Warm reruns timed against the cold run: a warm rerun takes about a
#: millisecond, so a single one can be swung by one scheduling stall.
WARM_RERUNS = 5


@pytest.fixture()
def store(tmp_path):
    return ResultCache(tmp_path / "cache")


def test_cold_sweep(benchmark, tmp_path):
    """Cold grid execution into a fresh cache every round."""
    counter = iter(range(10**6))

    def job():
        return run_sweep(GRID, cache=ResultCache(tmp_path / f"c{next(counter)}"))

    result = benchmark.pedantic(job, rounds=3, iterations=1, warmup_rounds=1)
    assert result.meta["misses"] == len(GRID)


def test_warm_sweep(benchmark, store):
    """Warm replays of a populated cache (the steady-state rerun path)."""
    run_sweep(GRID, cache=store)

    result = benchmark(lambda: run_sweep(GRID, cache=store))
    assert result.meta["misses"] == 0


def test_warm_cache_speedup_at_least_10x(store):
    """Acceptance: warm-cache table reruns >= 10x faster than cold.

    The warm time is the median of several reruns, each a full hit that
    reproduces the cold run's counts."""
    t0 = time.perf_counter()
    cold = run_table1(cache=store, **TABLE1_KWARGS)
    cold_s = time.perf_counter() - t0

    warm_times = []
    for rerun in range(1, WARM_RERUNS + 1):
        t0 = time.perf_counter()
        warm = run_table1(cache=store, **TABLE1_KWARGS)
        warm_times.append(time.perf_counter() - t0)
        assert {k: v.counts for k, v in warm.cells.items()} == {
            k: v.counts for k, v in cold.cells.items()
        }
        assert store.hits == rerun * len(cold.cells)
    warm_s = statistics.median(warm_times)
    assert cold_s / warm_s >= 10.0, (
        f"warm rerun only {cold_s / warm_s:.1f}x faster "
        f"(cold {cold_s:.3f}s, median warm {warm_s:.4f}s of "
        f"{', '.join(f'{w:.4f}' for w in warm_times)})"
    )


def test_sharded_run_overhead(benchmark, store):
    """One shard of a 4-way split (orchestration cost scales with cells)."""
    run_sweep(GRID, cache=store)  # warm everything

    def job():
        return run_sweep(GRID, cache=store, shard_index=1, shard_count=4)

    result = benchmark(job)
    assert result.meta["hits"] == len(result)
