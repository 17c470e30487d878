"""Experiment drivers through the sweep layer: incremental re-runs."""

import re
import statistics
import time

import pytest

from repro.experiments.ablations import (
    dimension_sweep,
    geometry_sweep,
    mn_sweep,
    staleness_sweep,
    tiebreak_sweep,
)
from repro.experiments.dynamic_churn import run as run_dynamic
from repro.experiments.table1 import run as run_table1
from repro.experiments.table2 import run as run_table2
from repro.experiments.table3 import run as run_table3
from repro.experiments.theory_check import run as run_theory
from repro.stats.trials import CellSpec, cell_seed
from repro.sweeps import ResultCache, SweepGrid, run_sweep
from repro.sweeps.cli import main as sweep_main


#: Warm reruns timed against the cold run: a warm rerun takes about a
#: millisecond, so a single one can be swung by one scheduling stall.
WARM_RERUNS = 5


def strip_timing(report):
    return {k: v.counts for k, v in report.cells.items()}


class TestTable1Cached:
    def test_repeated_run_hits_every_cell(self, tmp_path):
        """Acceptance: a repeated table1 run hits the cache for every cell."""
        store = ResultCache(tmp_path)
        cold = run_table1(trials=3, n_values=(64, 128), cache=store)
        n_cells = len(cold.cells)
        assert store.stats == {"hits": 0, "misses": n_cells, "stores": n_cells, "corrupt": 0}
        warm = run_table1(trials=3, n_values=(64, 128), cache=store)
        assert store.hits == n_cells
        assert store.misses == n_cells  # unchanged by the warm run
        assert strip_timing(warm) == strip_timing(cold)

    def test_cached_equals_uncached(self, tmp_path):
        cached = run_table1(trials=3, n_values=(64,), cache=ResultCache(tmp_path))
        uncached = run_table1(trials=3, n_values=(64,), cache="off")
        assert strip_timing(cached) == strip_timing(uncached)

    def test_changed_trials_recomputes(self, tmp_path):
        store = ResultCache(tmp_path)
        run_table1(trials=3, n_values=(64,), cache=store)
        run_table1(trials=4, n_values=(64,), cache=store)
        assert store.hits == 0

    def test_incremental_extension_reuses_overlap(self, tmp_path):
        """Growing the n sweep only computes the new column."""
        store = ResultCache(tmp_path)
        run_table1(trials=3, n_values=(64,), cache=store)
        run_table1(trials=3, n_values=(64, 128), cache=store)
        assert store.hits == 4      # the n=64 cells, one per d
        assert store.misses == 8    # 4 cold + 4 for n=128

    def test_warm_cache_speedup_at_least_10x(self, tmp_path):
        """Acceptance: warm-cache table reruns >= 10x faster than cold.

        The warm time is the median of several reruns, each a full hit
        that reproduces the cold run's counts."""
        store = ResultCache(tmp_path)
        kwargs = dict(trials=20, n_values=(1 << 10, 1 << 11), cache=store)
        t0 = time.perf_counter()
        cold = run_table1(**kwargs)
        cold_s = time.perf_counter() - t0
        warm_times = []
        for rerun in range(1, WARM_RERUNS + 1):
            t0 = time.perf_counter()
            warm = run_table1(**kwargs)
            warm_times.append(time.perf_counter() - t0)
            assert strip_timing(warm) == strip_timing(cold)
            assert store.hits == rerun * len(cold.cells)
        warm_s = statistics.median(warm_times)
        assert cold_s / warm_s >= 10.0, (
            f"warm rerun only {cold_s / warm_s:.1f}x faster "
            f"(cold {cold_s:.3f}s, median warm {warm_s:.4f}s of "
            f"{', '.join(f'{w:.4f}' for w in warm_times)})"
        )


class TestOtherDriversCached:
    @pytest.mark.parametrize("driver,kwargs", [
        (run_table2, dict(trials=2, n_values=(64,))),
        (run_table3, dict(trials=2, n_values=(64,))),
        (tiebreak_sweep, dict(n=64, d_values=(2,), trials=2)),
        (mn_sweep, dict(n=64, ratios=(1, 2), d_values=(2,), trials=2)),
        (dimension_sweep, dict(n=64, dims=(1, 2), d_values=(2,), trials=2)),
        (geometry_sweep, dict(n=64, d_values=(2,), trials=2)),
        (staleness_sweep, dict(n=64, round_sizes=(1, None), d_values=(2,), trials=2)),
        (run_dynamic, dict(trials=2, n_values=(64,), scenarios=("steady",))),
    ])
    def test_warm_rerun_hits_every_cell(self, tmp_path, driver, kwargs):
        store = ResultCache(tmp_path)
        cold = driver(cache=store, **kwargs)
        assert store.hits == 0 and store.misses == len(cold.cells)
        warm = driver(cache=store, **kwargs)
        assert store.hits == len(cold.cells)
        assert strip_timing(warm) == strip_timing(cold)

    def test_theory_check_cached(self, tmp_path):
        store = ResultCache(tmp_path)
        cold = run_theory(n_values=(64,), d_values=(2,), trials=4, cache=store)
        stores = store.stores
        assert stores > 0 and store.hits == 0
        warm = run_theory(n_values=(64,), d_values=(2,), trials=4, cache=store)
        assert store.hits == stores
        assert warm.data == cold.data


class RecordingCache(ResultCache):
    """A cache that records each lookup: (spec, hit)."""

    def __init__(self, root):
        super().__init__(root)
        self.lookups = []

    def get(self, spec):
        entry = super().get(spec)
        self.lookups.append((dict(spec), entry is not None))
        return entry


def strip_seconds(text):
    return re.sub(r"seconds=[0-9.]+", "", text)


class TestOneCellPerSpec:
    """Every driver seeds a cell by ``cell_seed``: one cache entry."""

    MASTER = 20030206
    CELL = CellSpec("ring", 4096, 2)

    def test_every_driver_asks_for_one_seed(self, tmp_path):
        store = RecordingCache(tmp_path)
        drivers = [
            lambda: run_table1(trials=2, n_values=(4096,), d_values=(2,),
                               cache=store),
            lambda: run_table3(trials=2, n_values=(4096,),
                               strategies=["arc-random"], cache=store),
            lambda: run_theory(n_values=(4096,), d_values=(2,), trials=2,
                               cache=store),
            lambda: tiebreak_sweep(n=4096, d_values=(2,), trials=2, cache=store),
            lambda: mn_sweep(n=4096, ratios=(1,), d_values=(2,), trials=2,
                             cache=store),
            lambda: run_sweep(SweepGrid(n=4096, d=2, trials=2, name="any"),
                              cache=store),
            lambda: run_sweep(SweepGrid(n=4096, d=2, trials=2, name="other"),
                              cache=store),
        ]
        target = {"kind": "cell", "space": "ring", "n": 4096, "m": 4096, "d": 2,
                  "strategy": "random", "partitioned": False, "trials": 2}
        seed = cell_seed(self.CELL, self.MASTER)
        for driver in drivers:
            driver()
        asked = [(spec["seed"], hit) for spec, hit in store.lookups
                 if {k: spec.get(k) for k in target} == target]
        assert asked == [(seed, False)] + [(seed, True)] * (len(drivers) - 1)

    def test_geometry_rows_are_table_cells(self, tmp_path):
        store = ResultCache(tmp_path)
        run_table1(trials=2, n_values=(64,), d_values=(2,), cache=store)
        run_table2(trials=2, n_values=(64,), d_values=(2,), cache=store)
        geometry_sweep(n=64, d_values=(2,), trials=2, cache=store)
        assert store.hits == 2  # ring and torus; uniform and CAN are new
        assert store.entry_count() == 4

    def test_table3_arc_random_is_table1_d2(self, tmp_path):
        store = ResultCache(tmp_path)
        table1 = run_table1(trials=3, n_values=(64, 128, 256), cache=store)
        entries = store.entry_count()
        table3 = run_table3(trials=3, n_values=(64, 128, 256), cache=store)
        assert store.entry_count() - entries == 9
        for n in (64, 128, 256):
            assert table3.cells[(n, "arc-random")] == table1.cells[(n, 2)]


class TestShardsFillTables:
    GRID = ["space=ring", "n=64,256,1024", "d=1,2,3,4", "--trials", "5"]

    def test_two_shards_fill_table1(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        for i in (0, 1):
            assert sweep_main(["run", *self.GRID, "--cache", cache,
                               "--shard-index", str(i), "--shard-count", "2"]) == 0
        store = ResultCache(cache)
        filled = store.entry_count()
        assert filled == 12
        kwargs = dict(trials=5, n_values=(64, 256, 1024))
        table = run_table1(cache=store, **kwargs)
        assert store.misses == 0 and store.hits == 12
        assert store.entry_count() == filled
        cold = run_table1(cache="off", **kwargs)
        assert strip_seconds(table.render()) == strip_seconds(cold.render())


class TestRunAllCached:
    def test_plan_reruns_incrementally(self, tmp_path):
        from repro.experiments.run_all import run_all

        plan = {
            "mini1": ("table1", dict(trials=2, n_values=(64,))),
            "mini_dyn": (
                "dynamic_churn",
                dict(trials=2, n_values=(64,), scenarios=("steady",)),
            ),
            # a text-report driver without cache support must still run
            "mini_lemmas": ("fig1_lemma8", dict(n=128, trials=2, ring_trials=20)),
        }
        store = ResultCache(tmp_path / "cache")
        first = run_all(
            str(tmp_path / "a"), plan=plan, cache=store, progress=lambda _: None
        )
        assert store.hits == 0 and store.stores == 5  # 4 table1 + 1 dynamic
        second = run_all(
            str(tmp_path / "b"), plan=plan, cache=store, progress=lambda _: None
        )
        assert store.hits == 5
        assert set(first) == set(second) == {"mini1", "mini_dyn", "mini_lemmas"}


class TestCliCacheFlags:
    def test_no_cache_flag(self, tmp_path, monkeypatch, capsys):
        import repro.experiments.table1 as t1
        from repro.experiments.__main__ import main

        monkeypatch.setattr(t1, "DEFAULT_N_VALUES", (64,))
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "unused"))
        assert main(["table1", "--trials", "2", "--no-cache"]) == 0
        assert not (tmp_path / "unused").exists()

    def test_cache_dir_flag(self, tmp_path, monkeypatch, capsys):
        import repro.experiments.table1 as t1
        from repro.experiments.__main__ import main

        monkeypatch.setattr(t1, "DEFAULT_N_VALUES", (64,))
        cache_dir = tmp_path / "explicit"
        assert main(["table1", "--trials", "2", "--cache", str(cache_dir)]) == 0
        assert ResultCache(cache_dir).entry_count() == 4

    def test_env_cache_used_by_default(self, tmp_path, monkeypatch, capsys):
        import repro.experiments.table1 as t1
        from repro.experiments.__main__ import main

        monkeypatch.setattr(t1, "DEFAULT_N_VALUES", (64,))
        env_dir = tmp_path / "envcache"
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(env_dir))
        assert main(["table1", "--trials", "2"]) == 0
        assert ResultCache(env_dir).entry_count() == 4
