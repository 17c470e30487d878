"""Pluggable raw-speed backends for the hot placement kernels.

At paper scale the numpy fused engine is bound by numpy dispatch
overhead, not by the algorithm.  This package factors the hot paths
into *scalar kernels* that a compiled tier can run at memory speed:

``place_block``
    Sequential greedy placement of one RNG block of balls — the inner
    loop of :func:`repro.core.multitrial.run_fused`.  One compiled pass
    replaces the whole optimistic-chunk + scalar-repair dance.
``dynamic_window``
    A churn-free window of mixed insert/delete events — the inner loop
    of :func:`repro.dynamics.engine.run_batched_dynamic`.
``ring_assign``
    The bucket-table ring ownership lookup behind
    :meth:`repro.core.ring.RingSpace.assign`.
``ring_table``
    The table pass: a ring's bucket table and its distinctness check in
    one pass over the sorted positions, at
    :class:`repro.core.ring.RingSpace` construction.
``ring_trials``
    Whole ring trials of :func:`repro.core.multitrial.run_fused`: a copy
    of numpy's PCG64 feeds draw → bucket lookup → place for every ball,
    with trials split across OS threads.

Two backends provide them:

``numpy``
    The reference.  It carries **no** kernels (every kernel attribute
    is ``None``): callers keep their existing vectorized numpy code paths,
    which remain the semantics every other backend must reproduce
    bit-for-bit.
``cext``
    Every kernel above as a tiny C library compiled on first use with
    the host C compiler (``cc -O3``) and loaded through ``ctypes``; the
    build artifact is cached on disk keyed by a source hash.  Available
    wherever a C toolchain is, with zero Python dependencies.

Selection order (strongest first): the ``REPRO_KERNEL_BACKEND``
environment variable, then the ``backend=`` kwarg threaded through
:func:`repro.stats.trials.run_cell` /
:func:`repro.dynamics.engine.simulate_dynamics` /
:func:`repro.core.multitrial.run_fused`, then auto-detection
(``cext`` if a C compiler is found, else ``numpy``).  The env var lets
CI force a backend through every code path; auto-detection degrades
gracefully — when ``cext`` is unavailable it falls back to ``numpy``
with a **one-time** ``logging`` warning naming what failed (plus a
``kernels.auto_fallback`` obs counter), so a machine silently running
5x slower than it could is visible without being spammy.

Observability: every :func:`resolve_backend` call bumps the
``kernels.backend_selected{name=...}`` counter (a no-op unless
``REPRO_OBS`` is on — see :mod:`repro.obs`), which is how trace
reports attribute throughput to the backend that actually ran.

Both backends are interchangeable **bit-for-bit**: the parity suite
(``tests/kernels``) checks identical placements, per-epoch dynamic
trajectories and ring assignments against the numpy reference.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Callable

from repro.kernels.threads import (
    cpu_topology,
    logical_cores,
    physical_cores,
    resolve_threads,
    thread_chunks,
)
from repro.obs.metrics import counter_add

_log = logging.getLogger(__name__)

__all__ = [
    "KernelBackend",
    "BACKEND_NAMES",
    "SMALL_WINDOW_CUTOFF",
    "STRATEGY_CODES",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "default_backend",
    "cpu_topology",
    "logical_cores",
    "physical_cores",
    "resolve_threads",
    "thread_chunks",
]

#: Names accepted by :func:`get_backend` (besides ``"auto"``).
BACKEND_NAMES = ("numpy", "cext")

#: Small-batch dispatch cutoff for mixed-event windows: at or below
#: this many events, per-event scalar application beats both a kernel
#: call (ctypes argument marshalling) and the numpy
#: conflict-free-prefix machinery (``np.unique`` setup), so
#: :meth:`repro.core.incremental.IncrementalState.apply_window` — and
#: through it the batched dynamic engine and the serving tier's
#: single-request path — steps these windows scalar.  Dispatch-only:
#: every tier is bit-identical, so the cutoff moves wall-clock time,
#: never results.
SMALL_WINDOW_CUTOFF = 16

#: Integer codes the compiled kernels use for the tie-break strategy,
#: keyed by :class:`repro.core.strategies.TieBreak` *values* (plain
#: strings, so this package never imports ``repro.core``).
STRATEGY_CODES = {"random": 0, "first": 1, "smaller": 2, "larger": 3}

#: Auto-detection preference among accelerated backends.
_AUTO_ORDER = ("cext",)


@dataclass(frozen=True)
class KernelBackend:
    """One entry of the kernel registry.

    Each kernel attribute is either a callable with the uniform
    signature below or ``None``, meaning "use the caller's built-in
    numpy path" (the numpy reference backend has every kernel ``None``).

    ``place_block(bins, us, loads, measures, strategy_code, heights)``
        Place ``bins.shape[0]`` balls sequentially: for each row pick
        the least-loaded of its ``d`` candidate bins (ties by
        ``strategy_code``, consuming ``us``), increment ``loads`` in
        place, and record 1-based heights into ``heights`` when it is
        not ``None``.  ``measures`` is the full per-bin measure array
        (or ``None`` for strategies that ignore it).
    ``dynamic_window(kinds, args, start, stop, cands, us, d, remap,
    loads, measures, strategy_code, ball_bin)``
        Apply trace events ``start <= i < stop`` (inserts and deletes
        only — churn is a barrier handled by the caller), mutating
        ``loads`` and ``ball_bin`` in place; ``remap`` is the cyclic-
        successor bin remap or ``None`` for the identity.  Returns the
        ``(inserts, deletes)`` counts applied.
    ``ring_assign(pts, table, pos_ext, nbuckets, n, threads=1)``
        Bucket-table ring ownership lookup: for each point start at
        the cached lower bound of its bucket and probe forward, exactly
        like :meth:`repro.core.ring.RingSpace._assign_bucketed`.
        Returns an int64 index array.  ``threads > 1`` partitions the
        points into static contiguous row groups
        (:func:`repro.kernels.threads.thread_chunks`) processed
        GIL-free in parallel — each output row is an independent
        lookup, so the partition is bit-identical by construction.
    ``ring_table(pos_ext, nbuckets)``
        The table pass: from the sorted positions plus a ``+inf``
        sentinel, return the ``nbuckets + 1`` int32 bucket table
        (``table[b]`` = positions below ``b / nbuckets``, numpy's
        ``bincount`` + ``cumsum``), or ``None`` when two positions are
        equal.
    ``ring_trials(bit_generators, tables, measures, loads, heights, m,
    d, strategy_code, partitioned, rng_block, threads)``
        Run ``T`` complete ring trials.  Trial ``k`` reads
        ``bit_generators[k]`` (a ``PCG64``), draws its stream in
        :func:`repro.core.engine.choice_blocks`' layout, looks each
        point up in ``tables[k]`` (``(nbuckets, table, pos_ext)``) and
        places it into row ``k`` of ``loads`` ``(T, n)`` and
        ``heights`` ``(T, m)`` (or ``None``); ``measures`` is a list of
        arc-length arrays or ``None``.  Only ``state.state`` is written
        back to each generator.  Trials are split statically across
        ``threads`` OS threads — trials share nothing, so any split is
        bit-identical.
    """

    name: str
    place_block: Callable | None = None
    dynamic_window: Callable | None = None
    ring_assign: Callable | None = None
    ring_table: Callable | None = None
    ring_trials: Callable | None = None

    @property
    def is_accelerated(self) -> bool:
        """Whether this backend supplies compiled kernels."""
        return self.place_block is not None


#: Built backends by name (including the resolved ``"auto"`` choice).
_CACHE: dict[str, KernelBackend] = {}
#: First failure message per backend name, so an unavailable backend is
#: probed (and its import/compile cost paid) at most once per process.
_FAILED: dict[str, str] = {}
#: Whether the one-time auto-fallback warning fired in this process.
_WARNED_FALLBACK = False


def _build(name: str) -> KernelBackend:
    """Construct a backend, raising when it is unavailable."""
    if name == "numpy":
        return KernelBackend("numpy")
    if name == "cext":
        from repro.kernels.cext_backend import build_backend

        return build_backend()
    raise AssertionError(name)  # pragma: no cover - guarded by get_backend


def get_backend(name: str) -> KernelBackend:
    """Return the named backend, building (and caching) it on first use.

    ``"auto"`` tries the accelerated backends in preference order
    (:data:`_AUTO_ORDER`) and falls back to ``numpy`` when none is
    available, logging a one-time warning (and bumping the
    ``kernels.auto_fallback`` obs counter) so the degradation is never
    silent.  An explicit name raises: :class:`ValueError` for an
    unknown name, :class:`RuntimeError` when the backend exists but
    cannot be loaded (no C compiler, ...).
    """
    global _WARNED_FALLBACK
    if name in _CACHE:
        return _CACHE[name]
    if name == "auto":
        for candidate in _AUTO_ORDER:
            try:
                backend = get_backend(candidate)
            except RuntimeError:
                continue
            _CACHE["auto"] = backend
            return backend
        backend = get_backend("numpy")
        _CACHE["auto"] = backend
        counter_add("kernels.auto_fallback")
        if not _WARNED_FALLBACK:
            _WARNED_FALLBACK = True
            reasons = "; ".join(
                f"{cand}: {_FAILED.get(cand, 'unavailable')}" for cand in _AUTO_ORDER
            )
            _log.warning(
                "kernel backend auto-detection fell back to the numpy "
                "reference — accelerated backends unavailable (%s); install "
                "a C toolchain for 5x+ placement throughput",
                reasons,
            )
        return backend
    if name not in BACKEND_NAMES:
        valid = ", ".join(BACKEND_NAMES + ("auto",))
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of {valid} "
            "(set via backend= or the REPRO_KERNEL_BACKEND env var)"
        )
    if name in _FAILED:
        raise RuntimeError(_FAILED[name])
    try:
        backend = _build(name)
    except RuntimeError as exc:
        _FAILED[name] = str(exc)
        raise
    _CACHE[name] = backend
    return backend


def resolve_backend(backend: "KernelBackend | str | None" = None) -> KernelBackend:
    """Resolve the effective backend for one engine call.

    Selection order is **env → kwarg → auto**: a non-empty
    ``REPRO_KERNEL_BACKEND`` environment variable overrides everything
    (so one shell export steers every layer, including code that never
    grew a kwarg), an explicit ``backend`` argument (name or
    :class:`KernelBackend` instance) comes next, and ``None`` means
    auto-detection.
    """
    env = os.environ.get("REPRO_KERNEL_BACKEND", "").strip()
    if env:
        resolved = get_backend(env)
    elif isinstance(backend, KernelBackend):
        resolved = backend
    else:
        resolved = get_backend(backend if backend is not None else "auto")
    counter_add("kernels.backend_selected", backend=resolved.name)
    return resolved


def default_backend() -> KernelBackend:
    """The backend implied by the environment alone (no kwarg).

    Used by call sites without a ``backend=`` kwarg of their own —
    notably :meth:`repro.core.ring.RingSpace.assign`, which sits below
    the engines.  Equivalent to ``resolve_backend(None)``.
    """
    return resolve_backend(None)


def available_backends() -> dict[str, bool]:
    """Availability of every registered backend name, without raising.

    Probing an accelerated backend may compile the C library on first
    call; failures are cached, so this is cheap to call repeatedly.
    """
    out = {}
    for name in BACKEND_NAMES:
        try:
            get_backend(name)
        except RuntimeError:
            out[name] = False
        else:
            out[name] = True
    return out


def _reset() -> None:
    """Drop all cached backends, failures and warnings (test hook)."""
    global _WARNED_FALLBACK
    _CACHE.clear()
    _FAILED.clear()
    _WARNED_FALLBACK = False
