"""Near-zero-overhead metrics registry: counters, gauges, histograms.

This module owns the package-global observability switch.  Every
recording function begins with ``if not _enabled: return`` against a
plain module-level bool, so a disabled process pays one attribute load
and one branch per call — cheap enough to leave the instrumentation
permanently wired through the hot engines (the ``tests/obs`` overhead
suite pins this down).

The switch is initialized from the ``REPRO_OBS`` environment variable
(``1``/``true``/``on``/``yes`` enable) and can be flipped at runtime
with :func:`set_enabled` or scoped with
:func:`repro.obs.obs_session`.

Metric model (deliberately tiny — this is a single-process library,
not a telemetry product):

* **counters** are monotonically increasing floats/ints;
* **gauges** hold the last value set;
* **histograms** keep a running summary (count/total/min/max) plus
  log-spaced bucket counts, not the raw observations — enough for the
  ``obs report`` aggregation (including p50/p95/p99 estimates via
  :func:`repro.obs.report.histogram_quantiles`) without unbounded
  memory.  Buckets are quarter-octave (base ``2**0.25``, four per
  doubling), so quantile estimates carry at most ~9% relative error
  while a histogram spanning twenty orders of magnitude still holds
  only a few hundred buckets.

Metrics are keyed by name plus optional labels, rendered canonically
as ``name{k=v,...}`` with label keys sorted, so snapshots are stable
dictionaries ready for JSON.
"""

from __future__ import annotations

import math
import os
import threading

__all__ = [
    "NONPOSITIVE_BUCKET",
    "bucket_index",
    "counter_add",
    "enabled",
    "gauge_set",
    "histogram_observe",
    "metric_key",
    "reset_metrics",
    "set_enabled",
    "snapshot",
]

#: Environment values meaning "observability on".
_TRUTHY = {"1", "true", "on", "yes"}

#: The global switch (module-level for the cheapest possible check).
_enabled = os.environ.get("REPRO_OBS", "").strip().lower() in _TRUTHY

#: Bucket index for observations ``<= 0`` (log buckets need ``v > 0``).
NONPOSITIVE_BUCKET = -(1 << 30)

_lock = threading.Lock()
_counters: dict[str, float] = {}
_gauges: dict[str, float] = {}
#: key -> [count, total, min, max, {bucket_index: count}]
_histograms: dict[str, list] = {}


def bucket_index(value: float) -> int:
    """Quarter-octave bucket index for one observation.

    Bucket ``i`` covers ``(2**((i-1)/4), 2**(i/4)]``; non-positive
    values land in the :data:`NONPOSITIVE_BUCKET` sentinel.

    Examples
    --------
    >>> bucket_index(1.0), bucket_index(2.0), bucket_index(2.001)
    (0, 4, 5)
    """
    if value <= 0:
        return NONPOSITIVE_BUCKET
    return math.ceil(4 * math.log2(value))


def enabled() -> bool:
    """Whether observability is currently on for this process."""
    return _enabled


def set_enabled(on: bool) -> None:
    """Flip the global observability switch (see also ``obs_session``)."""
    global _enabled
    _enabled = bool(on)


def metric_key(name: str, labels: dict | None = None) -> str:
    """Canonical registry key: ``name`` or ``name{k=v,...}`` (keys sorted).

    Examples
    --------
    >>> metric_key("cache.hit")
    'cache.hit'
    >>> metric_key("backend", {"name": "cext"})
    'backend{name=cext}'
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def counter_add(name: str, value: float = 1, **labels) -> None:
    """Increment a counter (no-op unless observability is enabled)."""
    if not _enabled:
        return
    key = metric_key(name, labels)
    with _lock:
        _counters[key] = _counters.get(key, 0) + value


def gauge_set(name: str, value: float, **labels) -> None:
    """Set a gauge to ``value`` (no-op unless observability is enabled)."""
    if not _enabled:
        return
    key = metric_key(name, labels)
    with _lock:
        _gauges[key] = value


def histogram_observe(name: str, value: float, **labels) -> None:
    """Record one observation into a running summary (no-op when disabled)."""
    if not _enabled:
        return
    key = metric_key(name, labels)
    bucket = bucket_index(value)
    with _lock:
        entry = _histograms.get(key)
        if entry is None:
            _histograms[key] = [1, value, value, value, {bucket: 1}]
        else:
            entry[0] += 1
            entry[1] += value
            entry[2] = min(entry[2], value)
            entry[3] = max(entry[3], value)
            buckets = entry[4]
            buckets[bucket] = buckets.get(bucket, 0) + 1


def snapshot() -> dict:
    """JSON-able snapshot of every metric recorded so far.

    Histogram entries expand to ``{"count", "total", "min", "max",
    "buckets"}`` — bucket indices stringified for JSON — and the
    result is safe to embed in a trace file or manifest.
    """
    with _lock:
        return {
            "counters": dict(_counters),
            "gauges": dict(_gauges),
            "histograms": {
                key: {
                    "count": c,
                    "total": t,
                    "min": lo,
                    "max": hi,
                    "buckets": {str(i): n for i, n in sorted(b.items())},
                }
                for key, (c, t, lo, hi, b) in _histograms.items()
            },
        }


def reset_metrics() -> None:
    """Drop every recorded metric (test/CLI hook; the switch is untouched)."""
    with _lock:
        _counters.clear()
        _gauges.clear()
        _histograms.clear()
