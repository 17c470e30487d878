"""Small measurement helpers shared by the workloads and the layer census.

Nothing here imports ``repro``: the runner sets up the environment
(cache directories, observability switches) before the package is
imported, and these helpers are safe to use before that point.
"""

from __future__ import annotations

import hashlib
import json
import re
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_STATUS = Path("/proc/self/status")
_CLEAR_REFS = Path("/proc/self/clear_refs")


def sub_seed(seed: int, *tags: int) -> int:
    """A 32-bit seed derived from the workload seed and integer tags."""
    entropy = [int(seed) % 2**64, *map(int, tags)]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def digest(obj) -> str:
    """Hex blake2b of an object's canonical JSON form (arrays by bytes)."""
    h = hashlib.blake2b(digest_size=16)

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for item in x:
                feed(item)
            h.update(b"]")
        else:
            h.update(json.dumps(x, sort_keys=True).encode())

    feed(obj)
    return h.hexdigest()


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def quantile(values: np.ndarray, q: float) -> float:
    """Nearest-rank ``q``-quantile of a sample."""
    return float(np.quantile(np.asarray(values), q, method="inverted_cdf"))


class Stopwatch:
    """Accumulates named wall-clock totals: ``with sw("name"): ...`` (nestable)."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.totals[name] = self.totals.get(name, 0.0) + time.perf_counter() - t0

    def __getitem__(self, name: str) -> float:
        return self.totals.get(name, 0.0)


def cpu_jiffies() -> list[int]:
    """The machine-wide ``/proc/stat`` CPU counters (empty where absent)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return []


def stolen_fraction(before: list[int], after: list[int]) -> float:
    """Share of the CPU time this machine's threads wanted that the hypervisor kept.

    Steal over steal plus busy time (user, nice, system, irq, softirq);
    an idle virtual CPU accrues no steal, so idle time is left out.
    """
    d = [b - a for a, b in zip(before, after)]
    if len(d) <= 7:
        return 0.0
    wanted = d[0] + d[1] + d[2] + d[5] + d[6] + d[7]
    return d[7] / wanted if wanted else 0.0


#: Units that lost more than this share of their CPU time to the
#: hypervisor are left out of a run's median.
STEAL_LIMIT = 0.02


def unstolen(steals: list[float], values: list[float]) -> list[float]:
    """The values of units the hypervisor barely interrupted.

    Falls back to the least-interrupted third of the units when fewer
    than that many stayed under :data:`STEAL_LIMIT`.
    """
    pairs = sorted(zip(steals, values))
    clean = [v for s, v in pairs if s <= STEAL_LIMIT]
    floor = max(1, len(pairs) // 3)
    return clean if len(clean) >= floor else [v for _, v in pairs[:floor]]


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux only)."""
    try:
        _CLEAR_REFS.write_text("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Resident-set high-water mark in MiB since the last reset."""
    try:
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", _STATUS.read_text())
    except OSError:
        match = None
    if match:
        return int(match.group(1)) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
