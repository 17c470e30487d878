"""Pluggable raw-speed backends for the hot placement kernels.

At paper scale the numpy fused engine is bound by numpy dispatch
overhead, not by the algorithm.  This package factors the hot paths
into *scalar kernels* that a compiled tier can run at memory speed:

``place_block``
    Sequential greedy placement of one RNG block of balls — the inner
    loop of :func:`repro.core.multitrial.run_fused`.  One compiled pass
    replaces the whole optimistic-chunk + scalar-repair dance.
``dynamic_window``
    A churn-free window of inserts, deletes and lookups, applied in
    order, each op's result written as it is decided — the inner loop
    of :func:`repro.dynamics.engine.run_batched_dynamic`, and one call
    per :class:`repro.serve.PlacementServer` block.
``ring_assign``
    The bucket-table ring ownership lookup behind
    :meth:`repro.core.ring.RingSpace.assign`.
``ring_table``
    The table pass: a ring's bucket table and its distinctness check in
    one pass over the sorted positions, at
    :class:`repro.core.ring.RingSpace` construction.
``space_trials``
    Whole ring trials of :func:`repro.core.multitrial.run_fused`: a copy
    of numpy's PCG64 feeds draw → bucket lookup → place for every ball,
    with trials split across OS threads; every trial looks rings up in
    a compact bucket index (a byte per bucket) and places into a byte
    per server its thread reuses (a bin that would pass 255 balls
    sends the cell to the generic route).  Given no tables
    (:func:`repro.core.multitrial.run_random_spaces`), each trial first
    draws and builds its own ring on its worker thread (reading its
    positions twice in small chunks rather than keeping them) — or its
    own 2-D torus and grid, whose lookups then replace the bucket probe
    (ball by ball, in the order the tie-break prefers and only as far as
    the choice needs, with loads counted in grid order) — and counts
    that scratch into the trial's load histogram, from which
    :func:`repro.stats.trials.run_cell` reads the maximum load and
    :func:`repro.stats.trials.run_cell_profile` the ν-profile, so no
    ``(T, n)`` loads array is made.
``torus_grid``
    The periodic uniform grid of a 2-D :class:`repro.core.torus.TorusSpace`
    (one counting sort, with the distinctness check in the same pass),
    built at construction.
``torus_assign``
    The grid's exact nearest-server lookup behind
    :meth:`repro.core.torus.TorusSpace.assign`, in cKDTree's periodic
    arithmetic.

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
trajectories and ring assignments against the numpy reference.  The
one exception is a query point whose rounded squared distances to two
torus servers are exactly equal: the grid takes the lower index, the
numpy reference's KD-tree whichever it visits first.  Rounding makes
such ties possible but negligible for random servers; on servers placed
on a lattice they are certain.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Callable

from repro.kernels.threads import (
    cpu_topology,
    physical_cores,
    resolve_threads,
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
    "physical_cores",
    "resolve_threads",
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
    loads, measures, strategy_code, ball_bin, out)``
        Apply ops ``start <= i < stop`` in order — inserts (kind 0),
        deletes (1) and lookups (2); churn is a barrier handled by the
        caller — mutating ``loads`` and ``ball_bin`` in place; ``remap``
        is the cyclic-successor bin remap or ``None`` for the identity.
        ``out``, unless ``None``, receives op ``i``'s result in
        ``out[i]`` as the op is decided: the chosen bin, ``-1`` for a
        delete, the ball's ``ball_bin`` entry for a lookup.  Returns
        the ``(inserts, deletes)`` counts applied.
    ``ring_assign(pts, table, pos_ext, nbuckets, n)``
        Bucket-table ring ownership lookup: for each point start at
        the cached lower bound of its bucket and probe forward, exactly
        like :meth:`repro.core.ring.RingSpace._assign_bucketed`.
        Returns an int64 index array.  It runs GIL-free on the calling
        thread: ``threads`` splits trials, never one call's points.
    ``ring_table(pos_ext, nbuckets)``
        The table pass: from the sorted positions plus a ``+inf``
        sentinel, return the ``nbuckets + 1`` int32 bucket table
        (``table[b]`` = positions below ``b / nbuckets``, numpy's
        ``bincount`` + ``cumsum``), or ``None`` when two positions are
        equal.
    ``space_trials(bit_generators, tables, measures, loads, heights, m,
    d, strategy_code, partitioned, rng_block, threads, *, space="ring",
    n=None, hist=False)``
        Run ``T`` complete ring trials.  Trial ``k`` reads
        ``bit_generators[k]`` (a ``PCG64``), draws its stream in
        :func:`repro.core.engine.choice_blocks`' layout, looks each
        point up in ``tables[k]`` (``(nbuckets, table, pos_ext)``) and
        places it into a byte per server, scratch its worker thread
        zeroes before every trial and reuses, then widens it into row
        ``k`` of ``loads`` ``(T, n)``.  A ball that chooses a bin
        already holding 255 balls stops the call, as below: loads that
        heavy (``m`` far above ``n``) are far beyond the paper's cells,
        and the generic route runs them faster than filling bytes to
        the top and rerunning wider would.  Heights go to ``heights``
        ``(T, m)`` (or ``None``); ``measures`` is a list of arc-length
        arrays or ``None``.  With ``tables=None`` (and
        ``measures=None``) trial ``k`` first draws its ring from its
        generator, exactly as ``RingSpace.random(n, seed=...)`` would:
        the ``n`` positions (drawn twice, a few thousand at a time:
        once to count the buckets, once to scatter into them), their
        bucket index and, for the ``smaller``/``larger`` strategies,
        their arc lengths, all built in scratch on the trial's thread.
        Every ring trial looks its candidates up in that compact index
        (an int32 start per 64 buckets and a byte offset per bucket);
        a given table is copied into it per trial.
        ``space="torus"`` (``tables=None``, strategy ``random`` or
        ``first``: the kernel has no Voronoi areas) runs 2-D torus
        trials instead: trial ``k`` draws its ``n`` points exactly as
        ``TorusSpace.random(n, seed=...)`` would, builds their grid as
        ``torus_grid`` does and looks its candidates up as
        ``torus_assign`` does; its draw buffer, dead once the points
        are gridded, is its load scratch.  With ``tables=None``,
        ``loads`` may be ``None`` (``n`` then gives the servers per
        trial): the loads stay in scratch, so the call holds
        ``threads`` scratches and no ``(T, n)`` loads array — about 10
        bytes per server for a ring (positions 8, the load byte, which
        first holds the build's bucket count, and the index 1.06), 18
        with arc lengths.  ``hist`` asks for each trial's load
        histogram, int64 ``(T, 256)`` (``hist[k, l]`` bins of trial
        ``k`` hold exactly ``l`` balls), from one kernel call.  Only
        ``state.state`` is written back to each generator.  Returns the
        histograms, or ``True`` without ``hist``.

        The kernel alone decides which trials it runs: callers offer it
        theirs and take their own route, the reference way, when it
        returns ``False``.  It returns ``False`` before reading a
        generator state, allocating an output or calling C when some
        bit generator is not exactly ``numpy.random.PCG64`` (the one it
        carries a copy of) or two trials share one (they would have to
        run one after the other), when ``n`` or ``m`` is 2³¹ or more
        (servers are indexed by int32: group starts, grid cells), when
        ``m`` exceeds 255·n (some bin must then pass 255 balls), or
        when a torus strategy needs Voronoi areas (``smaller``,
        ``larger``).  It returns ``False`` after its C call, writing no
        state back and the loads then meaningless, when some ring, drawn
        or given, crowds one group of 64 buckets past byte offsets (more
        than 255 positions in its first 63), some drawn ring repeats a
        position or crowds one bucket past the kernel's limit, some
        drawn torus repeats a point or is too unevenly spread for a
        grid, or some bin would pass 255 balls.  A malformed call
        (loads, tables, measures or heights that do not match the
        generators, ``n`` or ``m``, an unknown ``space``, tables for a
        torus) raises :class:`ValueError`.  Trials are split statically
        across ``threads`` OS threads, or fewer when their workers'
        scratch would pass a fixed 1 GiB budget (a 2²⁴-server ring's
        worker holds about 160 MiB) — trials share nothing, so any
        split is bit-identical.
    ``torus_grid(points, side)``
        From ``(n, 2)`` points in ``[0, 1)²``, the periodic grid
        ``(side, start, xy, ids)``: ``side × side`` cells (``side`` a
        power of two), the points sorted cell by cell.  ``None`` when
        two points are at squared distance 0 (where cKDTree's ``k=2``
        check finds a zero distance) or when the points are too
        unevenly spread for a grid; the caller then keeps the KD-tree.
    ``torus_assign(pts, grid)``
        Index of the nearest grid point of each ``(x, y)`` row of
        ``pts``: the server cKDTree finds (same periodic squared
        distance, rounded the same way), the lowest index on an exact
        tie.
    """

    name: str
    place_block: Callable | None = None
    dynamic_window: Callable | None = None
    ring_assign: Callable | None = None
    ring_table: Callable | None = None
    space_trials: Callable | None = None
    torus_grid: Callable | None = None
    torus_assign: Callable | None = None

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
