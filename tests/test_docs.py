"""The docs gate (tools/check_docs.py) runs clean — and actually bites.

CI runs the same script in its docs job; keeping it in tier 1 means a
broken README link or an undocumented ``repro.sweeps`` public function
fails locally before it fails there.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


class TestRepoIsClean:
    def test_no_broken_markdown_links(self):
        assert check_docs.check_markdown_links(REPO_ROOT) == []

    def test_no_dangling_citations(self):
        assert check_docs.check_citations(REPO_ROOT) == []

    def test_sweeps_public_api_fully_docstringed(self):
        assert check_docs.check_docstrings(REPO_ROOT) == []

    def test_main_exits_zero(self, capsys):
        assert check_docs.main(["--root", str(REPO_ROOT)]) == 0
        assert "ok" in capsys.readouterr().out


class TestCheckerBites:
    """The gate must detect violations, not just pass on a clean tree."""

    def test_detects_broken_link(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text("see [missing](docs/nope.md)\n")
        problems = check_docs.check_markdown_links(tmp_path)
        assert len(problems) == 1 and "nope.md" in problems[0]

    def test_accepts_existing_link_with_fragment(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "a.md").write_text("# A\n")
        (tmp_path / "README.md").write_text("see [a](docs/a.md#section)\n")
        assert check_docs.check_markdown_links(tmp_path) == []

    def test_skips_external_and_anchor_links(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "[x](https://example.com) [y](#local) [z](mailto:a@b.c)\n"
        )
        assert check_docs.check_markdown_links(tmp_path) == []

    def test_detects_dangling_citation(self, tmp_path):
        # split, so that this file itself cites none of them
        guide, gone, lost = "GUIDE" ".md", "GONE" ".md", "LOST" ".md"
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text("# R\n")
        (tmp_path / "docs" / guide).write_text("# G\n")
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(
            f'"""See README.md and docs/{guide}."""\n\n# compared in {gone}\n'
        )
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_x.py").write_text(f"# {guide}, {lost}\n")
        assert check_docs.check_citations(tmp_path) == [
            f"src/repro/mod.py:3: cites missing {gone}",
            f"tests/test_x.py:1: cites missing {lost}",
        ]
        assert check_docs.main(["--root", str(tmp_path)]) == 1

    def test_detects_missing_docstrings(self, tmp_path, monkeypatch):
        pkg = tmp_path / "src" / "repro" / "sweeps"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(
            "def public():\n    pass\n\n\ndef _private():\n    pass\n"
        )
        problems = check_docs.check_docstrings(tmp_path)
        assert any("missing module docstring" in p for p in problems)
        assert any("function public" in p for p in problems)
        assert not any("_private" in p for p in problems)

    def test_detects_undocumented_public_method(self, tmp_path):
        for package in check_docs.DOCSTRING_PACKAGES:
            (tmp_path / package).mkdir(parents=True)
        pkg = tmp_path / "src" / "repro" / "sweeps"
        (pkg / "mod.py").write_text(
            '"""Mod."""\n\n\nclass Thing:\n    """Doc."""\n\n'
            "    def act(self):\n        pass\n"
        )
        problems = check_docs.check_docstrings(tmp_path)
        assert problems == [
            "src/repro/sweeps/mod.py:7: missing docstring on method Thing.act"
        ]

    def test_main_exits_nonzero_on_problems(self, tmp_path, capsys):
        (tmp_path / "README.md").write_text("[bad](gone.md)\n")
        (tmp_path / "src" / "repro" / "sweeps").mkdir(parents=True)
        assert check_docs.main(["--root", str(tmp_path)]) == 1
        assert "problem(s)" in capsys.readouterr().err
