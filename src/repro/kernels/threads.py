"""Thread-count resolution and CPU topology for the parallel kernels.

The multicore tier (the ``space_trials`` kernel splitting ring and 2-D
torus trials across OS threads, and the trial pool of
:func:`repro.core.multitrial.run_fused`'s generic kernel path) is
steered by **one** knob with the same resolution order as the kernel
backend:

1. the ``REPRO_NUM_THREADS`` environment variable (strongest — one
   shell export steers every layer, and it reaches every sweep shard
   process started from that shell);
2. the ``threads=`` kwarg threaded through
   :func:`repro.stats.trials.run_cell` /
   :func:`repro.core.multitrial.run_fused` /
   :func:`repro.sweeps.runner.run_sweep`;
3. auto-detection: the number of **physical** cores (SMT siblings share
   the load/store units the placement kernels are bound by, so logical
   cores past the physical count add contention, not throughput).

``threads`` never changes results: it splits trials only, statically,
and trials share no loads and no generator (a ring or torus lookup runs
on the thread that asks for it).  The parity suite
(``tests/kernels/test_threads_parity.py``) enforces bit-identity for
every backend × engine × thread count, which is also why ``threads``
is excluded from sweep cache keys (like ``backend=``).  The dynamic
engines and the serving tier take no ``threads``: their event windows
are one serial dependency chain.

:func:`cpu_topology` additionally feeds the observability layer: run
manifests (:func:`repro.obs.manifest.run_manifest`) and both tracked
``BENCH_*.json`` files record physical/logical core counts and the CPU
model string, so thread-scaling numbers are interpretable across
machines.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from repro.utils.validation import check_positive_int

__all__ = [
    "cpu_topology",
    "physical_cores",
    "resolve_threads",
]

#: Cached :func:`cpu_topology` result (the topology cannot change under
#: a running process; caching also keeps run manifests deterministic).
_TOPOLOGY: dict | None = None


def _parse_proc_cpuinfo(text: str) -> tuple[int | None, str | None]:
    """Extract ``(physical_cores, model_name)`` from ``/proc/cpuinfo``.

    Physical cores are counted as distinct ``(physical id, core id)``
    pairs; either field missing (common in VMs and containers) yields
    ``None`` so the caller can fall back to the logical count.
    """
    model = None
    pairs = set()
    phys = core = None
    for line in text.splitlines():
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "model name" and model is None:
            model = value
        elif key == "physical id":
            phys = value
        elif key == "core id":
            core = value
        elif not line.strip():
            if phys is not None and core is not None:
                pairs.add((phys, core))
            phys = core = None
    if phys is not None and core is not None:
        pairs.add((phys, core))
    return (len(pairs) or None), model


def cpu_topology() -> dict:
    """Physical/logical core counts and CPU model of this machine.

    Returns a dict with ``logical`` (the scheduler's CPU count),
    ``physical`` (distinct cores, SMT siblings collapsed; equals
    ``logical`` when the platform exposes no topology) and ``model``
    (the CPU model string, or ``"unknown"``).  Cached after the first
    call — the answer cannot change under a running process, and a
    stable answer keeps :func:`repro.obs.manifest.run_manifest`
    deterministic.

    Examples
    --------
    >>> topo = cpu_topology()
    >>> 1 <= topo["physical"] <= topo["logical"]
    True
    """
    global _TOPOLOGY
    if _TOPOLOGY is not None:
        return dict(_TOPOLOGY)
    logical = os.cpu_count() or 1
    physical = None
    model = None
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8", errors="replace")
    except OSError:
        text = ""
    if text:
        physical, model = _parse_proc_cpuinfo(text)
    if physical is None:
        # macOS exposes the physical count via sysctl; anything else
        # (or a failed probe) falls back to the logical count.
        physical = _sysctl_physical()
    _TOPOLOGY = {
        "logical": int(logical),
        "physical": int(min(physical or logical, logical)),
        "model": model or "unknown",
    }
    return dict(_TOPOLOGY)


def _sysctl_physical() -> int | None:
    """``hw.physicalcpu`` via sysctl, or ``None`` where unavailable."""
    import subprocess

    try:
        out = subprocess.run(
            ["sysctl", "-n", "hw.physicalcpu"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode == 0 and re.fullmatch(r"\d+", out.stdout.strip()):
        return int(out.stdout.strip())
    return None


def physical_cores() -> int:
    """Distinct physical cores (the ``threads`` auto default)."""
    return cpu_topology()["physical"]


def resolve_threads(threads: int | None = None) -> int:
    """Resolve the effective thread count for one engine call.

    Selection order is **env → kwarg → auto** (mirroring
    :func:`repro.kernels.resolve_backend`): a non-empty
    ``REPRO_NUM_THREADS`` environment variable overrides everything, an
    explicit ``threads`` argument comes next, and ``None`` auto-detects
    the physical core count.  The result is always at least 1.  A bogus
    env value raises :class:`ValueError`.  A kwarg is checked even when
    the env var overrides it, by
    :func:`repro.utils.validation.check_positive_int`: one that is not
    an integer (a bool, float or str; numpy integers pass) raises
    :class:`TypeError`, one below 1 :class:`ValueError`.

    Examples
    --------
    >>> resolve_threads(3)  # doctest: +SKIP
    3
    >>> resolve_threads(1)
    1
    """
    if threads is not None:
        threads = check_positive_int(threads, "threads")
    env = os.environ.get("REPRO_NUM_THREADS", "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_NUM_THREADS must be a positive integer, got {env!r}"
            ) from None
        if value < 1:
            raise ValueError(
                f"REPRO_NUM_THREADS must be a positive integer, got {env!r}"
            )
        return value
    return physical_cores() if threads is None else threads
