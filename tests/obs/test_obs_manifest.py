"""Run manifests: determinism, field schema, and env capture."""

from __future__ import annotations

import json
import shutil
import subprocess

import pytest

from repro._version import __version__
from repro.kernels import BACKEND_NAMES
from repro.obs import manifest as manifest_module
from repro.obs.manifest import git_dirty, git_revision, run_manifest, write_manifest

REQUIRED_KEYS = {
    "schema", "package", "version", "git_rev", "git_dirty", "python", "numpy",
    "platform", "machine", "executable", "kernel_backend", "env",
}


class TestRunManifest:
    def test_required_fields(self):
        manifest = run_manifest()
        assert REQUIRED_KEYS <= set(manifest)
        assert manifest["package"] == "repro"
        assert manifest["version"] == __version__
        assert manifest["kernel_backend"] in BACKEND_NAMES + ("unknown",)

    def test_deterministic(self):
        assert run_manifest() == run_manifest()

    def test_no_volatile_fields(self):
        """No timestamps/hostnames/pids — manifests must diff clean."""
        manifest = run_manifest()
        for key in manifest:
            assert "time" not in key and "host" not in key and "pid" not in key

    def test_env_captures_repro_vars_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        monkeypatch.setenv("NOT_OURS", "x")
        env = run_manifest()["env"]
        assert env["REPRO_KERNEL_BACKEND"] == "numpy"
        assert all(key.startswith("REPRO_") for key in env)

    def test_extra_merges_and_overrides(self):
        manifest = run_manifest({"seed": 7, "package": "other"})
        assert manifest["seed"] == 7
        assert manifest["package"] == "other"

    def test_json_serializable(self):
        json.dumps(run_manifest())


@pytest.mark.skipif(shutil.which("git") is None, reason="no git binary")
class TestGitState:
    @staticmethod
    def _git(root, *args):
        subprocess.run(
            ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t",
             "-c", "commit.gpgsign=false", *args],
            check=True, capture_output=True,
        )

    def test_dirty_tree(self, tmp_path, monkeypatch):
        monkeypatch.setattr(manifest_module, "_source_dirs", lambda: (tmp_path,))
        self._git(tmp_path, "init", "-q")
        (tmp_path / "tracked.txt").write_text("one\n")
        self._git(tmp_path, "add", "tracked.txt")
        self._git(tmp_path, "commit", "-q", "-m", "first")
        assert git_dirty() is False
        assert len(git_revision()) == 40
        (tmp_path / "untracked.txt").write_text("new\n")
        assert git_dirty() is False  # untracked files do not count
        (tmp_path / "tracked.txt").write_text("two\n")
        assert git_dirty() is True
        assert run_manifest()["git_dirty"] is True

    def test_outside_git(self, tmp_path, monkeypatch):
        monkeypatch.setattr(manifest_module, "_source_dirs", lambda: (tmp_path,))
        assert git_dirty() is None
        assert git_revision() is None

    def test_manifest_field(self):
        manifest = run_manifest()
        assert manifest["schema"] == 2
        assert manifest["git_dirty"] in (True, False, None)
        assert (manifest["git_dirty"] is None) == (manifest["git_rev"] is None)


class TestWriteManifest:
    def test_round_trip(self, tmp_path):
        path = write_manifest(tmp_path / "sub" / "manifest.json", {"seed": 3})
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(run_manifest({"seed": 3})))

    def test_byte_identical_rewrites(self, tmp_path):
        """Same environment -> same bytes: the determinism acceptance."""
        a = write_manifest(tmp_path / "a.json").read_bytes()
        b = write_manifest(tmp_path / "b.json").read_bytes()
        assert a == b
