"""Runner semantics: cached submission, sharded execution, merging."""

import numpy as np
import pytest

from repro.stats.distributions import MaxLoadDistribution
from repro.stats.trials import (
    CellSpec,
    mean_nu_profile,
    run_cell,
    run_cell_hists,
    run_cell_profile,
)
from repro.sweeps import (
    ResultCache,
    SweepGrid,
    SweepResult,
    fetch_cell,
    fetch_or_compute,
    resolve_cache,
    run_sweep,
    spec_key,
    submit_cell,
)
from repro.sweeps import runner
from repro.sweeps.runner import cell_spec_dict

SPEC = CellSpec("ring", 128, 2)


class TestResolveCache:
    def test_off_forms(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert resolve_cache("off") is None

    def test_path_form(self, tmp_path):
        store = resolve_cache(tmp_path / "c")
        assert isinstance(store, ResultCache)

    def test_instance_passthrough(self, tmp_path):
        store = ResultCache(tmp_path)
        assert resolve_cache(store) is store

    def test_auto_follows_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "envcache"))
        assert resolve_cache("auto").root == tmp_path / "envcache"
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "off")
        assert resolve_cache("auto") is None

    def test_bad_type(self):
        with pytest.raises(TypeError):
            resolve_cache(3.14)


class TestJsonCounts:
    def test_roundtrip(self):
        from repro.stats.distributions import MaxLoadDistribution

        dist = MaxLoadDistribution.from_samples([3, 4, 4, 11])
        wire = dist.to_json_counts()
        assert wire == {"3": 1, "4": 2, "11": 1}
        assert MaxLoadDistribution.from_json_counts(wire).counts == dist.counts


class TestSubmitCell:
    def test_matches_run_cell_bit_identically(self, tmp_path):
        store = ResultCache(tmp_path)
        cached = submit_cell(SPEC, 6, 42, cache=store)
        direct = run_cell(SPEC, 6, 42)
        assert cached.counts == direct.counts

    def test_second_call_hits_and_matches(self, tmp_path):
        store = ResultCache(tmp_path)
        first = submit_cell(SPEC, 6, 42, cache=store)
        assert store.stats == {"hits": 0, "misses": 1, "stores": 1, "corrupt": 0}
        second = submit_cell(SPEC, 6, 42, cache=store)
        assert store.hits == 1
        assert second.counts == first.counts

    def test_perturbed_spec_misses(self, tmp_path):
        store = ResultCache(tmp_path)
        submit_cell(SPEC, 6, 42, cache=store)
        submit_cell(SPEC.with_(d=3), 6, 42, cache=store)
        submit_cell(SPEC, 7, 42, cache=store)
        submit_cell(SPEC, 6, 43, cache=store)
        assert store.hits == 0 and store.misses == 4

    def test_seed_none_bypasses_cache(self, tmp_path):
        store = ResultCache(tmp_path)
        submit_cell(SPEC, 3, None, cache=store)
        assert store.stats == {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0}

    def test_numpy_integer_seed_is_cacheable(self, tmp_path):
        store = ResultCache(tmp_path)
        a = submit_cell(SPEC, 3, np.int64(9), cache=store)
        b = submit_cell(SPEC, 3, 9, cache=store)
        assert store.hits == 1 and a.counts == b.counts


class TestCellSpecDict:
    def test_pinned_key(self):
        """The key of one grid cell's cache spec under a fixed salt.
        Existing caches hold their cells under such keys; moving them
        would orphan every cached cell."""
        cell = SweepGrid(space="torus", n=64, d=3, m=100, strategy="smaller",
                         trials=7, name="pin").cells()[0]
        spec_d = cell_spec_dict(cell.spec, cell.trials, cell.seed)
        assert spec_key(spec_d, salt="pin") == "692c14b0924222c421c837b8eb1135e4"


class TestOnePayload:
    """A cell's entry is its per-trial histograms; the max-load counts
    and the ν-profile are two views of it."""

    @pytest.mark.parametrize("spec", [SPEC, CellSpec("torus", 64, 3),
                                      CellSpec("uniform", 96, 2, m=200)],
                             ids=["ring", "torus", "uniform"])
    def test_warm_views_equal_cold_runs(self, tmp_path, spec):
        store = ResultCache(tmp_path)
        cold = fetch_cell(spec, 5, 42, cache=store)
        warm = fetch_cell(spec, 5, 42, cache=store)
        assert store.stats == {"hits": 1, "misses": 1, "stores": 1, "corrupt": 0}
        direct = run_cell_hists(spec, 5, 42)
        np.testing.assert_array_equal(cold, direct)
        np.testing.assert_array_equal(warm, direct)
        assert warm.dtype == direct.dtype
        np.testing.assert_array_equal(mean_nu_profile(warm),
                                      run_cell_profile(spec, 5, 42))
        warm_dist = submit_cell(spec, 5, 42, cache=store)
        assert warm_dist.counts == run_cell(spec, 5, 42).counts
        assert store.hits == 2

    def test_entry_stores_histograms_inline(self, tmp_path):
        store = ResultCache(tmp_path)
        hist = fetch_cell(SPEC, 3, 42, cache=store)
        entry = store.get(runner.cell_spec_dict(SPEC, 3, 42))
        assert entry == {"payload": {"hist": hist.tolist()}}
        assert not list(tmp_path.glob("*/*.npz"))

    def test_max_loads_from_histograms(self):
        hist = np.array([[0, 5, 2, 0], [1, 3, 2, 1], [4, 0, 0, 0]])
        dist = MaxLoadDistribution.from_histograms(hist)
        assert dist.counts == {0: 1, 2: 1, 3: 1}


class TestFetchOrCompute:
    def test_hit_skips_compute(self, tmp_path):
        from repro.stats.distributions import MaxLoadDistribution

        store = ResultCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return MaxLoadDistribution.from_samples([3, 3, 4])

        spec = {"kind": "custom", "x": 1, "seed": 5}
        a = fetch_or_compute(spec, compute, cache=store)
        b = fetch_or_compute(spec, compute, cache=store)
        assert len(calls) == 1
        assert a.counts == b.counts == {3: 2, 4: 1}


class TestRunSweep:
    GRID = SweepGrid(n=(64, 128), d=(1, 2), trials=4, name="t")
    BENCH_GRID = SweepGrid(n=(1 << 10, 1 << 11), d=(1, 2), trials=20,
                           name="bench")

    def test_cold_run_misses_every_cell(self, tmp_path):
        cold = run_sweep(self.BENCH_GRID, cache=ResultCache(tmp_path))
        assert cold.meta["misses"] == len(self.BENCH_GRID)

    def test_cached_and_uncached_agree(self, tmp_path):
        base = run_sweep(self.GRID, cache="off")
        cached = run_sweep(self.GRID, cache=ResultCache(tmp_path))
        assert base.to_json() == cached.to_json()

    def test_partly_warm_store(self, tmp_path):
        """Cells already stored are hits, the rest are computed and
        stored, and every cell equals ``submit_cell``'s."""
        store = ResultCache(tmp_path)
        cells = self.GRID.cells()
        for cell in cells[::2]:
            submit_cell(cell.spec, cell.trials, cell.seed, cache=store)
        lines = []
        result = run_sweep(self.GRID, cache=store, progress=lines.append)
        warm = len(cells[::2])
        assert result.meta["hits"] == warm
        assert result.meta["misses"] == len(cells) - warm
        assert [line.startswith("[cache hit]") for line in lines] == [
            pos % 2 == 0 for pos in range(len(cells))
        ]
        assert store.stores == len(cells)
        hists = {rec["key"]: rec["hist"] for rec in result.cells}
        for cell in cells:
            key = store.key(cell_spec_dict(cell.spec, cell.trials, cell.seed))
            direct = fetch_cell(cell.spec, cell.trials, cell.seed, cache="off")
            assert hists[key] == direct.tolist()

    def test_every_cell_goes_through_fetch_cells_lookup(self, tmp_path,
                                                        monkeypatch):
        """run_sweep and fetch_cell share one cached lookup; run_sweep
        keeps its histograms as the cache stores them."""
        calls = []
        lookup = runner._cell_hist

        def spy(spec, spec_d, store, threads):
            calls.append((spec, spec_d["trials"], spec_d["seed"], threads))
            return lookup(spec, spec_d, store, threads)

        monkeypatch.setattr(runner, "_cell_hist", spy)
        store = ResultCache(tmp_path)
        result = run_sweep(self.GRID, cache=store, threads=2)
        assert calls == [(c.spec, c.trials, c.seed, 2) for c in self.GRID.cells()]
        cell = self.GRID.cells()[0]
        fetch_cell(cell.spec, cell.trials, cell.seed, cache=store)
        assert calls[-1][:3] == calls[0][:3] and store.hits == 1
        assert all(type(rec["hist"]) is list for rec in result.cells)

    @pytest.mark.parametrize("grid", [GRID, BENCH_GRID], ids=["t", "bench"])
    def test_warm_rerun_hits_every_cell(self, tmp_path, grid):
        store = ResultCache(tmp_path)
        run_sweep(grid, cache=store)
        warm = run_sweep(grid, cache=store)
        assert warm.meta["hits"] == len(grid)
        assert warm.meta["misses"] == 0

    def test_warm_shard_hits_its_cells(self, tmp_path):
        store = ResultCache(tmp_path)
        run_sweep(self.BENCH_GRID, cache=store)
        shard = run_sweep(self.BENCH_GRID, cache=store, shard_index=1,
                          shard_count=4)
        assert shard.meta["hits"] == len(shard)

    def test_sharded_merge_byte_identical(self, tmp_path):
        """Acceptance: sharded execution merges to the unsharded bytes."""
        unsharded = run_sweep(self.GRID, cache="off")
        for count in (2, 3):
            shards = [
                run_sweep(self.GRID, cache="off", shard_index=i, shard_count=count)
                for i in range(count)
            ]
            merged = SweepResult.merge(shards)
            assert merged.to_json() == unsharded.to_json()

    def test_sharded_merge_via_files(self, tmp_path):
        unsharded = run_sweep(self.GRID, cache="off")
        paths = []
        for i in range(2):
            part = run_sweep(self.GRID, cache="off", shard_index=i, shard_count=2)
            paths.append(part.save(tmp_path / f"s{i}.json"))
        merged = SweepResult.merge([SweepResult.load(p) for p in paths])
        merged_path = merged.save(tmp_path / "merged.json")
        full_path = unsharded.save(tmp_path / "full.json")
        assert merged_path.read_bytes() == full_path.read_bytes()

    def test_progress_lines(self, tmp_path):
        lines = []
        run_sweep(self.GRID, cache=ResultCache(tmp_path), progress=lines.append)
        assert len(lines) == len(self.GRID)
        assert all(line.startswith("[computed]") for line in lines)
        lines.clear()
        run_sweep(self.GRID, cache=ResultCache(tmp_path), progress=lines.append)
        assert all(line.startswith("[cache hit]") for line in lines)

    def test_merge_refuses_differing_histograms(self):
        """Shards that agree on every max load but not on a histogram
        do not merge."""
        a = run_sweep(self.GRID, cache="off")
        b = run_sweep(self.GRID, cache="off")
        cell = b.cells[0]
        row = list(cell["hist"][0])
        row[0] -= 1
        row[1] += 1  # same maximum, one more bin holding a ball
        cell["hist"] = [row, *cell["hist"][1:]]
        assert a.distributions() == b.distributions()
        with pytest.raises(ValueError, match="conflicting histograms"):
            SweepResult.merge([a, b])

    def test_merge_rejects_different_grids(self):
        other = SweepGrid(n=(64,), d=(1,), trials=4, name="other")
        a = run_sweep(self.GRID, cache="off")
        b = run_sweep(other, cache="off")
        with pytest.raises(ValueError, match="different grids"):
            SweepResult.merge([a, b])

    def test_report_bridge(self):
        result = run_sweep(self.GRID, cache="off")
        report = result.to_report()
        text = report.render()
        assert "2^6" in text and "d = 2" in text
        assert set(report.cells) == {(n, d) for n in (64, 128) for d in (1, 2)}

    def test_report_keys_are_resolved_axis_values(self):
        """An ``m=none`` row is the ``m = n`` row; rings record no dim."""
        grid = SweepGrid(n=64, m=(None, 128), d=(1, 2), trials=2)
        report = run_sweep(grid, cache="off").to_report(row="m", col="d")
        assert report.row_keys == [64, 128]
        assert set(report.cells) == {(m, d) for m in (64, 128) for d in (1, 2)}
        assert "2^7" in report.render()
        ring = run_sweep(SweepGrid(n=64, dim=(1, 2), trials=2), cache="off")
        assert ring.to_report(row="dim", col="d").row_keys == [None]

    def test_by_axes_collision_detected(self):
        grid = SweepGrid(n=(64,), d=(1, 2), space=("ring", "torus"), trials=2)
        result = run_sweep(grid, cache="off")
        with pytest.raises(ValueError, match="do not separate"):
            result.by_axes("n", "d")


class TestSweepThreads:
    """``threads`` never enters the cache key, the artifact, or the
    results."""

    GRID = SweepGrid(n=(64, 128), d=(1, 2), trials=4, name="t")

    @pytest.fixture(autouse=True)
    def _unpinned_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)

    def test_cache_hit_shared_across_thread_counts(self, tmp_path):
        """``threads`` is not in the key: a cell stored at threads=1
        is served verbatim to a threads=7 submission."""
        store = ResultCache(tmp_path)
        ref = submit_cell(SPEC, trials=4, seed=9, cache=store, threads=1)
        hit = submit_cell(SPEC, trials=4, seed=9, cache=store, threads=7)
        assert store.hits == 1 and store.misses == 1
        assert ref.counts == hit.counts

    def test_threaded_sweep_artifact_byte_identical(self, tmp_path):
        """Acceptance: the CI leg ``cmp``s threaded vs serial sweep
        artifacts, so the saved bytes must match exactly."""
        serial = run_sweep(self.GRID, cache="off", threads=1)
        threaded = run_sweep(self.GRID, cache="off", threads=2)
        a = serial.save(tmp_path / "serial.json")
        b = threaded.save(tmp_path / "threaded.json")
        assert a.read_bytes() == b.read_bytes()
