"""The ``sweep`` CLI: run, shard, merge, show."""

import json

import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.sweeps.cli import main as sweep_main

GRID_ARGS = ["n=64,128", "d=1,2", "--trials", "3"]


class TestSweepRun:
    def test_run_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = sweep_main(
            ["run", *GRID_ARGS, "--cache", str(tmp_path / "c"), "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["cells"]) == 4
        assert "4 cells" in capsys.readouterr().out

    def test_warm_rerun_all_hits(self, tmp_path, capsys):
        cache = ["--cache", str(tmp_path / "c")]
        assert sweep_main(["run", *GRID_ARGS, *cache]) == 0
        capsys.readouterr()
        assert sweep_main(["run", *GRID_ARGS, *cache]) == 0
        assert "4 cache hits, 0 computed" in capsys.readouterr().out

    def test_no_cache_leaves_no_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "env"))
        assert sweep_main(["run", *GRID_ARGS, "--no-cache"]) == 0
        assert not (tmp_path / "env").exists()

    def test_table_rendering(self, tmp_path, capsys):
        assert sweep_main(["run", *GRID_ARGS, "--no-cache", "--table"]) == 0
        out = capsys.readouterr().out
        assert "2^6" in out and "d = 2" in out

    def test_bad_axis_token(self, tmp_path, capsys):
        assert sweep_main(["run", "bogus=1", "--no-cache"]) == 2
        assert "bad grid" in capsys.readouterr().err

    def test_bad_shard_index_is_clean(self, capsys):
        code = sweep_main(
            ["run", "n=64", "d=1", "--trials", "2", "--no-cache",
             "--shard-index", "3", "--shard-count", "2"]
        )
        assert code == 2
        assert "sweep failed" in capsys.readouterr().err

    def test_delegated_from_experiments_main(self, tmp_path, capsys):
        code = experiments_main(
            ["sweep", "run", *GRID_ARGS, "--cache", str(tmp_path / "c")]
        )
        assert code == 0
        assert "4 cells" in capsys.readouterr().out


class TestSweepMergeShow:
    def test_shard_merge_matches_unsharded_bytes(self, tmp_path, capsys):
        """Acceptance: shard artifacts merge to the unsharded bytes."""
        cache = ["--cache", str(tmp_path / "c")]
        for i in (0, 1):
            assert sweep_main([
                "run", *GRID_ARGS, *cache,
                "--shard-index", str(i), "--shard-count", "2",
                "--out", str(tmp_path / f"s{i}.json"),
            ]) == 0
        assert sweep_main([
            "merge", str(tmp_path / "s0.json"), str(tmp_path / "s1.json"),
            "--out", str(tmp_path / "merged.json"),
        ]) == 0
        assert sweep_main([
            "run", *GRID_ARGS, *cache, "--out", str(tmp_path / "full.json"),
        ]) == 0
        merged = (tmp_path / "merged.json").read_bytes()
        full = (tmp_path / "full.json").read_bytes()
        assert merged == full

    def test_merge_rejects_mismatched_grids(self, tmp_path, capsys):
        assert sweep_main([
            "run", "n=64", "d=1", "--trials", "2", "--no-cache",
            "--out", str(tmp_path / "a.json"),
        ]) == 0
        assert sweep_main([
            "run", "n=128", "d=1", "--trials", "2", "--no-cache",
            "--out", str(tmp_path / "b.json"),
        ]) == 0
        code = sweep_main(
            ["merge", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        )
        assert code == 2
        assert "merge failed" in capsys.readouterr().err

    def test_merge_missing_file_is_clean(self, tmp_path, capsys):
        assert sweep_main(["merge", str(tmp_path / "nope.json")]) == 2
        assert "merge failed" in capsys.readouterr().err

    def test_show_missing_file_is_clean(self, tmp_path, capsys):
        assert sweep_main(["show", str(tmp_path / "nope.json")]) == 2
        assert "show failed" in capsys.readouterr().err

    def test_show(self, tmp_path, capsys):
        assert sweep_main([
            "run", *GRID_ARGS, "--no-cache", "--out", str(tmp_path / "a.json"),
        ]) == 0
        capsys.readouterr()
        assert sweep_main(["show", str(tmp_path / "a.json")]) == 0
        assert "max-load distributions" in capsys.readouterr().out

    def test_experiments_list_mentions_sweep(self, capsys):
        assert experiments_main(["--list"]) == 0
        assert "sweep" in capsys.readouterr().out
