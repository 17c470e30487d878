"""Run manifests: attribute every result file to code + environment.

A manifest is the JSON-able answer to "what produced this number?":
package version, git revision and whether tracked files differed from
it, python/numpy versions, platform, the kernel backend
auto-detection would pick, and every ``REPRO_*`` environment override
in effect.  The sweep CLI writes one next to each
``--out`` artifact, the benchmark emitters embed one in
``BENCH_engine.json`` / ``BENCH_sweeps.json``, and the tracer drops
one beside each auto-flushed trace file — so any row in any tracked
result is machine-attributable.

:func:`run_manifest` is deliberately **deterministic given a pinned
environment**: no timestamps, no hostnames, no process ids (callers
that want a wall-clock stamp add their own field, as the benchmark
emitters do with ``unix_time``).  Two calls in the same interpreter
with the same environment return equal dictionaries — a property the
test suite pins down, because it is what makes manifests diffable
across runs.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

__all__ = ["git_dirty", "git_revision", "run_manifest", "write_manifest"]

#: Manifest schema version (bump on field changes).
SCHEMA = 2


def _source_dirs() -> tuple[Path, ...]:
    """Where git is asked about the source tree: the directory holding
    the installed ``repro`` package first (the code that actually ran),
    then the current working directory."""
    return (Path(__file__).resolve().parent, Path.cwd())


def _git(*args: str) -> str | None:
    """Standard output of ``git args`` in the source tree, or ``None``.

    Any failure — no git binary, not a repository, permission trouble —
    degrades to ``None`` rather than raising.
    """
    for where in _source_dirs():
        try:
            out = subprocess.run(
                ["git", "-C", str(where), *args],
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            )
        except (OSError, subprocess.SubprocessError):
            continue
        if out.returncode == 0:
            return out.stdout
    return None


def git_revision() -> str | None:
    """The git commit hash of the source tree, or ``None`` outside git."""
    out = _git("rev-parse", "HEAD")
    return None if out is None else out.strip()


def git_dirty() -> bool | None:
    """Whether tracked files differ from the checked-out commit.

    ``True`` when ``git status --porcelain --untracked-files=no``
    prints anything, ``None`` outside git.
    """
    out = _git("status", "--porcelain", "--untracked-files=no")
    return None if out is None else bool(out.strip())


def _cpu_topology() -> dict:
    """CPU topology (physical/logical cores, model) for the manifest.

    Thread-scaling numbers are uninterpretable without knowing the
    machine they ran on, so every manifest carries the topology the
    ``threads`` auto default derives from.  Lazy import for the same
    layering reason as :func:`_detected_backend`; failures degrade to
    an empty dict rather than raising.  Deterministic: the topology is
    cached per process.
    """
    try:
        from repro.kernels import cpu_topology

        return cpu_topology()
    except Exception:  # pragma: no cover - damaged platform probes only
        return {}


def _detected_backend() -> str:
    """Name of the kernel backend auto-detection would select.

    Probing may compile the C extension on first call (cached per
    process); failures degrade to ``"unknown"``.
    Imported lazily so ``repro.obs`` never drags ``repro.kernels`` in
    at import time (``repro.kernels`` imports the metrics module).
    """
    try:
        from repro.kernels import default_backend

        return default_backend().name
    except Exception:  # pragma: no cover - damaged toolchain only
        return "unknown"


def run_manifest(extra: dict | None = None) -> dict:
    """Build the manifest dict for the current process/environment.

    ``extra`` entries are merged on top (and may override the defaults
    — e.g. a driver recording its master seed).  Deterministic given a
    pinned environment; see the module docstring.

    Examples
    --------
    >>> m = run_manifest({"seed": 7})
    >>> m["seed"], m["schema"]
    (7, 2)
    >>> run_manifest() == run_manifest()
    True
    """
    import numpy as np

    from repro._version import __version__

    manifest = {
        "schema": SCHEMA,
        "package": "repro",
        "version": __version__,
        "git_rev": git_revision(),
        "git_dirty": git_dirty(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "executable": sys.executable,
        "kernel_backend": _detected_backend(),
        "cpu": _cpu_topology(),
        "env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(path: "Path | str", extra: dict | None = None) -> Path:
    """Write :func:`run_manifest` as pretty JSON to ``path``; returns it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(run_manifest(extra), indent=2, sort_keys=True) + "\n")
    return path
