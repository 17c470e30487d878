#!/usr/bin/env python
"""Docs gate: broken intra-repo markdown links, dangling citations and
missing docstrings.

Four independent checks, all stdlib-only so they run anywhere:

1. **Markdown links** — every relative link target in the repo's
   tracked ``*.md`` files must exist on disk (external ``http(s)``,
   ``mailto:`` and pure-anchor links are skipped; ``#fragment``
   suffixes are stripped before the existence check).
2. **Cited documents** — every ``NAME.md`` (an upper-case name, as the
   repo's top-level documents are named) cited in a Python file under
   :data:`CITING_ROOTS` must exist at the repo root or under ``docs/``.
3. **Cited files** — every backticked path under one of
   :data:`CITED_PATH_ROOTS` in README.md, ROADMAP.md or ``docs/**/*.md``
   must exist, and a glob must match at least one file (a pytest
   ``::node`` suffix and a command's arguments are ignored; fenced code
   blocks are not checked).  CHANGES.md is history and stays
   unchecked.
4. **Docstring coverage** — every module, public class, and public
   function/method in the :data:`DOCSTRING_PACKAGES` public APIs
   (currently ``repro.sweeps``, ``repro.kernels``, ``repro.obs``,
   ``repro.core``, ``repro.serve``, ``repro.net``, ``repro.stats``,
   ``repro.baselines`` and ``repro.dynamics``) must carry a docstring
   (the pydocstyle D1xx family, implemented via ``ast`` so no
   third-party dependency is needed).

Exit status 0 when clean, 1 with one line per violation otherwise::

    python tools/check_docs.py [--root REPO_ROOT]
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

#: Directories whose markdown is checked (repo-root relative).
MARKDOWN_ROOTS = (".", "docs")

#: Directories whose Python files' ``NAME.md`` citations are checked.
CITING_ROOTS = ("src", "tests", "benchmarks")

#: Top-level directories whose backticked paths in the docs must exist.
CITED_PATH_ROOTS = ("src", "tests", "benchmarks", "tools", "docs",
                    "examples", "perfbench")

#: Packages whose public API must be fully docstringed.
DOCSTRING_PACKAGES = (
    "src/repro/sweeps",
    "src/repro/kernels",
    "src/repro/obs",
    "src/repro/core",
    "src/repro/serve",
    "src/repro/net",
    "src/repro/stats",
    "src/repro/baselines",
    "src/repro/dynamics",
)

_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_EXTERNAL = re.compile(r"^[a-z][a-z0-9+.-]*:", re.IGNORECASE)
_CITATION = re.compile(r"\b[A-Z][A-Z0-9_]*\.md\b")
_CODE_SPAN = re.compile(r"`([^`]+)`")
_CITED_PATH = re.compile(rf"(?:{'|'.join(CITED_PATH_ROOTS)})/")


def iter_markdown_files(root: Path):
    """Yield the markdown files under :data:`MARKDOWN_ROOTS` (not recursive
    at the repo root, recursive under docs/)."""
    for rel in MARKDOWN_ROOTS:
        base = root / rel
        if not base.is_dir():
            continue
        pattern = "*.md" if rel == "." else "**/*.md"
        yield from sorted(base.glob(pattern))


def check_markdown_links(root: Path) -> list[str]:
    """Return one violation line per broken relative link."""
    problems = []
    for md in iter_markdown_files(root):
        text = md.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for match in _LINK.finditer(line):
                target = match.group(1)
                if _EXTERNAL.match(target) or target.startswith("#"):
                    continue
                path_part = target.split("#", 1)[0]
                if not path_part:
                    continue
                resolved = (md.parent / path_part).resolve()
                if not resolved.exists():
                    rel_md = md.relative_to(root)
                    problems.append(
                        f"{rel_md}:{lineno}: broken link -> {target}"
                    )
    return problems


def check_citations(root: Path) -> list[str]:
    """Return one violation line per cited ``NAME.md`` that exists
    neither at the repo root nor under ``docs/``."""
    problems = []
    for rel in CITING_ROOTS:
        for py in sorted((root / rel).rglob("*.py")):
            text = py.read_text(encoding="utf-8")
            for lineno, line in enumerate(text.splitlines(), 1):
                for name in _CITATION.findall(line):
                    if not ((root / name).exists()
                            or (root / "docs" / name).exists()):
                        problems.append(
                            f"{py.relative_to(root)}:{lineno}: cites "
                            f"missing {name}"
                        )
    return problems


def _code_spans(text: str):
    """Yield ``(lineno, content)`` for each inline code span of a markdown
    text; fenced code blocks are blanked out first."""
    lines, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            line = ""
        lines.append("" if fenced else line)
    text = "\n".join(lines)
    for match in _CODE_SPAN.finditer(text):
        yield text.count("\n", 0, match.start()) + 1, match.group(1)


def check_cited_paths(root: Path) -> list[str]:
    """Return one violation line per backticked repo path in README.md,
    ROADMAP.md or ``docs/**/*.md`` that names no existing file."""
    docs = [root / "README.md", root / "ROADMAP.md"]
    docs += sorted((root / "docs").glob("**/*.md"))
    problems = []
    for md in docs:
        if not md.is_file():
            continue
        for lineno, span in _code_spans(md.read_text(encoding="utf-8")):
            words = span.split()
            if not words or not _CITED_PATH.match(words[0]):
                continue
            path = words[0].split("::", 1)[0]
            if any(c in path for c in "*?["):
                found = next(root.glob(path), None) is not None
            else:
                found = (root / path).exists()
            if not found:
                problems.append(
                    f"{md.relative_to(root)}:{lineno}: cites missing {path}"
                )
    return problems


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _missing_docstrings(tree: ast.Module, rel: str) -> list[str]:
    problems = []
    if ast.get_docstring(tree) is None:
        problems.append(f"{rel}:1: missing module docstring")
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_public(node.name):
            if ast.get_docstring(node) is None:
                problems.append(
                    f"{rel}:{node.lineno}: missing docstring on class {node.name}"
                )
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _is_public(item.name)
                    and ast.get_docstring(item) is None
                ):
                    problems.append(
                        f"{rel}:{item.lineno}: missing docstring on "
                        f"method {node.name}.{item.name}"
                    )
    for node in tree.body:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _is_public(node.name)
            and ast.get_docstring(node) is None
        ):
            problems.append(
                f"{rel}:{node.lineno}: missing docstring on function {node.name}"
            )
    return problems


def check_docstrings(root: Path) -> list[str]:
    """Return one violation line per missing public docstring."""
    problems = []
    for package in DOCSTRING_PACKAGES:
        base = root / package
        if not base.is_dir():
            problems.append(f"{package}: package directory not found")
            continue
        for py in sorted(base.rglob("*.py")):
            rel = str(py.relative_to(root))
            tree = ast.parse(py.read_text(encoding="utf-8"), filename=rel)
            problems.extend(_missing_docstrings(tree, rel))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: this script's grandparent)",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()

    problems = (check_markdown_links(root) + check_citations(root)
                + check_cited_paths(root) + check_docstrings(root))
    for line in problems:
        print(line, file=sys.stderr)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    packages = ", ".join(p.rsplit("/", 1)[-1] for p in DOCSTRING_PACKAGES)
    print(f"check_docs: markdown links ok, citations ok, cited files ok, "
          f"docstrings ok ({packages})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
