"""CLI surfaces: ``obs report``, ``sweep status``, and the routing."""

from __future__ import annotations

import json

import pytest

from repro.obs import drain_spans, write_trace
from repro.obs.cli import main as obs_main
from repro.obs.report import aggregate_spans
from repro.stats.trials import CellSpec, run_cell
from repro.sweeps.cli import main as sweep_main


@pytest.fixture
def real_trace(obs_on, tmp_path):
    """A trace file from an actual instrumented run_cell."""
    run_cell(CellSpec("ring", 64, 2), 6, seed=3)
    return write_trace(tmp_path / "trace-1.jsonl")


class TestObsReport:
    def test_report_on_explicit_file(self, real_trace, capsys):
        assert obs_main(["report", str(real_trace)]) == 0
        out = capsys.readouterr().out
        assert "run_cell" in out
        assert "(traced wall)" in out
        assert "counters:" in out
        assert "placement.balls" in out

    def test_report_globs_directory(self, real_trace, capsys):
        assert obs_main(["report", "--dir", str(real_trace.parent)]) == 0
        assert "run_cell" in capsys.readouterr().out

    def test_no_metrics_flag(self, real_trace, capsys):
        assert obs_main(["report", "--no-metrics", str(real_trace)]) == 0
        assert "counters:" not in capsys.readouterr().out

    def test_report_accepts_directory_argument(self, real_trace, capsys):
        assert obs_main(["report", str(real_trace.parent)]) == 0
        out = capsys.readouterr().out
        assert str(real_trace) in out and "run_cell" in out

    def test_directory_argument_without_traces_exit_2(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path)]) == 2
        assert "no trace files" in capsys.readouterr().err

    def test_missing_traces_exit_2(self, tmp_path, capsys):
        assert obs_main(["report", "--dir", str(tmp_path / "empty")]) == 2
        assert "no trace files" in capsys.readouterr().err

    def test_corrupt_trace_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "trace-bad.jsonl"
        bad.write_text("not json\n")
        assert obs_main(["report", str(bad)]) == 2
        assert "bad trace line" in capsys.readouterr().err


def test_real_trace_breakdown_covers_90pct_of_wall(obs_on):
    """Acceptance: traced phases explain >= 90% of the measured wall."""
    run_cell(CellSpec("ring", 128, 2), 10, seed=7)
    agg = aggregate_spans(drain_spans())
    covered = sum(e["self_s"] for e in agg["phases"].values())
    assert agg["wall_s"] > 0
    assert covered >= 0.9 * agg["wall_s"]


def test_real_torus_trace_breakdown_covers_90pct_of_wall(obs_on):
    """The torus twin: traced phases explain >= 90% of the measured wall,
    and where the kernel runs, the cell is one space_trials span under
    run_random_spaces, with no pool spans."""
    run_cell(CellSpec("torus", 128, 2), 10, seed=7)
    spans = drain_spans()
    agg = aggregate_spans(spans)
    covered = sum(e["self_s"] for e in agg["phases"].values())
    assert agg["wall_s"] > 0
    assert covered >= 0.9 * agg["wall_s"]
    names = [s["name"] for s in spans]
    assert "run_random_spaces" in names
    assert "run_fused.rng" not in names and "run_fused.kernel" not in names
    if "run_fused" not in names:  # the kernel built the tori
        parent = {s["id"]: s["name"] for s in spans}
        kernel = [s for s in spans if s["name"] == "run_fused.space_trials"]
        assert len(kernel) == 1
        assert parent[kernel[0]["parent"]] == "run_random_spaces"


def test_threaded_trace_self_times_stay_within_wall(obs_on):
    """Threads must not inflate the breakdown: over a threaded ring cell
    and torus cell, self times sum to at most 100% of traced wall."""
    run_cell(CellSpec("ring", 1 << 14, 2), 16, seed=5, threads=2)
    run_cell(CellSpec("torus", 1 << 12, 2), 8, seed=6, threads=2)
    agg = aggregate_spans(drain_spans())
    covered = sum(e["self_s"] for e in agg["phases"].values())
    assert 0 < covered <= agg["wall_s"] * (1 + 1e-9)


class TestSweepStatus:
    AXES = ["n=64,128", "d=1"]

    def test_progress_before_and_after_run(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = self.AXES + ["--trials", "3", "--cache", cache]
        assert sweep_main(["status"] + args) == 0
        assert "0/2 cells done" in capsys.readouterr().out
        assert sweep_main(["run"] + args) == 0
        capsys.readouterr()
        assert sweep_main(["status"] + args) == 0
        out = capsys.readouterr().out
        assert "2/2 cells done (100.0%)" in out
        assert "done" in out

    def test_status_requires_cache(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "off")
        assert sweep_main(["status"] + self.AXES) == 2
        assert "needs a cache" in capsys.readouterr().err

    def test_status_never_bumps_cache_counters(self, tmp_path, capsys):
        """status probes the disk without polluting hit/miss stats."""
        from repro.sweeps.cache import ResultCache
        from repro.sweeps.grid import SweepGrid

        cache = ResultCache(tmp_path / "cache")
        from repro.sweeps.runner import run_sweep
        run_sweep(SweepGrid(n=(64,), d=(1,), trials=2, name="s"), cache=cache)
        before = cache.stats
        assert sweep_main(
            ["status", "n=64", "d=1", "--trials", "2",
             "--cache", str(tmp_path / "cache")]
        ) == 0
        assert cache.stats == before
        # a grid's name is a label: status finds grid "s"'s cell unnamed
        assert "1/1 cells done" in capsys.readouterr().out

    def test_status_has_no_name_option(self, capsys):
        with pytest.raises(SystemExit):
            sweep_main(["status", "n=64", "--name", "s"])
        assert "--name" in capsys.readouterr().err


class TestSweepRunManifest:
    def test_out_artifact_gets_manifest_sibling(self, tmp_path, capsys):
        out = tmp_path / "shard.json"
        assert sweep_main(
            ["run", "n=64", "d=1", "--trials", "2", "--no-cache",
             "--out", str(out)]
        ) == 0
        manifest = tmp_path / "shard.manifest.json"
        assert out.is_file() and manifest.is_file()
        loaded = json.loads(manifest.read_text())
        assert loaded["package"] == "repro" and "kernel_backend" in loaded


class TestRouting:
    def test_experiments_main_routes_obs(self, real_trace, capsys):
        from repro.experiments.__main__ import main
        assert main(["obs", "report", str(real_trace)]) == 0
        assert "(traced wall)" in capsys.readouterr().out

    def test_experiments_main_reports_a_trace_directory(self, real_trace, capsys):
        from repro.experiments.__main__ import main
        assert main(["obs", "report", str(real_trace.parent)]) == 0
        assert "(traced wall)" in capsys.readouterr().out

    def test_experiments_list_mentions_obs(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "obs" in out and "sweep" in out
