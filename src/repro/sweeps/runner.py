"""Sweep execution: cache-aware cell submission and sharded grid runs.

Two levels of API:

* :func:`submit_cell` / :func:`submit_profile` / :func:`fetch_or_compute`
  — drop-in cached versions of the primitives the experiment drivers
  already use (``run_cell``, ``run_cell_profile``, custom trial
  loops).  Every driver in :mod:`repro.experiments` routes its cells
  through these, so **re-running any table is incremental by
  default**: cells whose (spec, trials, seed, code version) were
  computed before are served from the content-addressed cache.

* :func:`run_sweep` — expand a :class:`~repro.sweeps.grid.SweepGrid`,
  select a shard, execute the uncached cells (serially, or
  process-parallel across cells with ``workers``), populate the
  cache, and return a mergeable
  :class:`~repro.sweeps.result.SweepResult`.

Cache resolution (the ``cache=`` argument accepted everywhere):

* ``"auto"`` (default) — the environment decides: the directory named
  by ``REPRO_SWEEP_CACHE``, the XDG user cache when unset, disabled
  when the variable is ``off``/``none``/``0``/empty;
* ``"off"`` / ``None`` / ``False`` — no caching, compute directly;
* a path — a :class:`~repro.sweeps.cache.ResultCache` rooted there;
* a :class:`~repro.sweeps.cache.ResultCache` — used as-is (pass your
  own instance to observe hit/miss counters).

Caching never changes results: payloads are deterministic functions
of the spec, and a cell whose seed is ``None`` (nondeterministic)
bypasses the cache entirely.
"""

from __future__ import annotations

import os
import warnings
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.kernels import logical_cores, resolve_threads
from repro.obs import obs_session, trace_span
from repro.stats.distributions import MaxLoadDistribution
from repro.stats.trials import CellSpec, run_cell, run_cell_profile
from repro.sweeps.cache import DEFAULT_SALT, ResultCache, default_cache_dir, spec_key
from repro.sweeps.grid import SweepCell, SweepGrid, shard_cells
from repro.sweeps.result import SweepResult
from repro.utils.validation import check_positive_int

__all__ = [
    "fetch_or_compute",
    "resolve_cache",
    "run_sweep",
    "submit_cell",
    "submit_profile",
]

CacheLike = "ResultCache | str | os.PathLike | None | bool"


def resolve_cache(cache: CacheLike = "auto") -> ResultCache | None:
    """Normalize any accepted ``cache=`` form to a store or ``None``.

    See the module docstring for the accepted forms.  ``None`` means
    "caching disabled" and makes every submission compute directly.
    """
    if cache is None or cache is False or cache == "off":
        return None
    if isinstance(cache, ResultCache):
        return cache
    if cache == "auto":
        root = default_cache_dir()
        return None if root is None else ResultCache(root)
    if isinstance(cache, (str, os.PathLike)):
        return ResultCache(Path(cache))
    raise TypeError(
        "cache must be 'auto', 'off', None, a path, or a ResultCache; "
        f"got {type(cache).__name__}"
    )


def _cacheable_seed(seed) -> int | None:
    """The integer seed if the computation is deterministic, else ``None``."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return int(seed)
    return None


def _counts_payload(dist: MaxLoadDistribution) -> dict:
    return {"counts": dist.to_json_counts()}


def _dist_from_payload(payload: Mapping, spec=None) -> MaxLoadDistribution:
    return MaxLoadDistribution.from_json_counts(payload["counts"], spec=spec)


def cell_spec_dict(spec: CellSpec, trials: int, seed: int, kind: str = "cell") -> dict:
    """The canonical cache spec of one ``run_cell`` computation."""
    return {
        "kind": kind,
        "space": spec.space,
        "n": spec.n,
        "d": spec.d,
        "m": spec.m,
        "strategy": spec.strategy,
        "partitioned": spec.partitioned,
        "dim": spec.dim,
        "trials": trials,
        "seed": seed,
    }


def submit_cell(
    spec: CellSpec,
    trials: int,
    seed=None,
    *,
    cache: CacheLike = "auto",
    backend=None,
    threads: int | None = None,
) -> MaxLoadDistribution:
    """Cached drop-in for :func:`repro.stats.trials.run_cell`.

    On a cache hit the stored counts are returned without simulating;
    on a miss the cell is computed via ``run_cell`` (same kernel
    ``backend`` and ``threads`` semantics, bit-identical results) and
    stored.  ``backend`` and ``threads``
    are deliberately absent from the cache key: backends and thread
    counts are bit-identical by contract, so a hit from one
    configuration is valid for all.  ``seed=None`` or a disabled cache
    falls through to plain ``run_cell``.
    """
    store = resolve_cache(cache)
    cache_seed = _cacheable_seed(seed)
    if store is None or cache_seed is None:
        return run_cell(spec, trials, seed, backend=backend, threads=threads)
    spec_d = cell_spec_dict(spec, trials, cache_seed)
    entry = store.get(spec_d)
    if entry is not None:
        return _dist_from_payload(entry["payload"], spec=spec)
    dist = run_cell(spec, trials, seed, backend=backend, threads=threads)
    store.put(spec_d, _counts_payload(dist))
    return dist


def submit_profile(
    spec: CellSpec,
    trials: int,
    seed=None,
    *,
    cache: CacheLike = "auto",
    backend=None,
    threads: int | None = None,
) -> np.ndarray:
    """Cached drop-in for :func:`repro.stats.trials.run_cell_profile`.

    The mean ν-profile (a float array) is stored as an NPZ payload next
    to the JSON entry — the cache's array path.  As in
    :func:`submit_cell`, ``backend`` and ``threads`` steer execution on
    a miss and are not part of the cache key.
    """
    store = resolve_cache(cache)
    cache_seed = _cacheable_seed(seed)
    if store is None or cache_seed is None:
        return run_cell_profile(spec, trials, seed, backend=backend, threads=threads)
    spec_d = cell_spec_dict(spec, trials, cache_seed, kind="cell_profile")
    entry = store.get(spec_d)
    if entry is not None and "profile" in entry["arrays"]:
        return entry["arrays"]["profile"]
    profile = run_cell_profile(spec, trials, seed, backend=backend, threads=threads)
    store.put(spec_d, {"trials": trials}, arrays={"profile": profile})
    return profile


def fetch_or_compute(
    spec_dict: Mapping,
    compute: Callable[[], MaxLoadDistribution],
    *,
    cache: CacheLike = "auto",
) -> MaxLoadDistribution:
    """Cache an arbitrary max-load distribution under an explicit spec.

    For drivers whose cells are not ``run_cell`` cells (dynamic churn
    trajectories, geometry/staleness ablations): ``spec_dict`` must
    name every parameter that determines the result — including a
    ``"kind"`` discriminator and the seed — and ``compute`` produces
    the distribution on a miss.
    """
    store = resolve_cache(cache)
    if store is None:
        return compute()
    entry = store.get(spec_dict)
    if entry is not None:
        return _dist_from_payload(entry["payload"])
    dist = compute()
    store.put(spec_dict, _counts_payload(dist))
    return dist


def _cell_record(cell: SweepCell, dist: MaxLoadDistribution) -> dict:
    """A SweepResult cell record; keys use the default salt so the
    artifact identity is independent of the local cache configuration."""
    spec_d = cell.spec_dict()
    return {
        "key": spec_key(spec_d, DEFAULT_SALT),
        "spec": spec_d,
        "counts": dist.to_json_counts(),
    }


def _sweep_worker(args) -> dict:
    """Process-pool entry: compute one cell, return its counts."""
    spec, trials, seed, threads = args
    return run_cell(spec, trials, seed, threads=threads).to_json_counts()


def _worker_threads(workers: int, threads: int | None) -> int:
    """Inner kernel threads per sweep worker process.

    Process workers already parallelize across cells, so each worker
    defaults to ``threads=1`` — kernel threads on top would
    oversubscribe the machine.  An explicit request (the ``threads``
    kwarg or ``REPRO_NUM_THREADS``) is honoured, but when
    ``workers × threads`` exceeds the logical core count a
    :class:`RuntimeWarning` flags the oversubscription (results are
    unaffected either way — only wall-clock time suffers).
    """
    if threads is None and not os.environ.get("REPRO_NUM_THREADS", "").strip():
        return 1
    eff = resolve_threads(threads)
    total = workers * eff
    cores = logical_cores()
    if total > cores:
        warnings.warn(
            f"sweep oversubscription: {workers} worker processes x {eff} "
            f"kernel threads = {total} > {cores} logical cores; prefer "
            "workers (across cells) or threads (within a cell), not both",
            RuntimeWarning,
            stacklevel=3,
        )
    return eff


def run_sweep(
    grid: SweepGrid,
    *,
    cache: CacheLike = "auto",
    shard_index: int = 0,
    shard_count: int = 1,
    workers: int | None = 1,
    threads: int | None = None,
    progress: Callable[[str], None] | None = None,
    obs: bool | None = None,
) -> SweepResult:
    """Execute (one shard of) a grid and return a mergeable result.

    Parameters
    ----------
    grid:
        The declarative grid to expand.
    cache:
        Cache selector (module docstring); hits skip simulation.
    shard_index, shard_count:
        Select shard ``shard_index`` of a ``shard_count``-way
        round-robin partition of the expanded cell list.  Shards of
        the same grid merge (:meth:`SweepResult.merge
        <repro.sweeps.result.SweepResult.merge>`) to the byte-identical
        unsharded artifact.
    workers:
        Process-parallel workers *across* uncached cells (``None`` =
        one per CPU).
    threads:
        Kernel threads *within* one cell
        (:func:`repro.kernels.resolve_threads` semantics), forwarded to
        ``run_cell``.  With ``workers > 1`` each worker defaults to one
        thread — the processes already cover the cores — and an
        explicit ``workers × threads`` overshoot of the machine raises
        a :class:`RuntimeWarning` (see :func:`_worker_threads`).  Never
        part of the cache key; results are independent of it.
    progress:
        Optional callable receiving one line per executed cell.
    obs:
        Observability scope (:func:`repro.obs.obs_session`): ``True``
        traces a ``run_sweep`` span with one ``sweep_cell`` span per
        computed cell, ``False`` force-disables, ``None`` follows the
        global ``REPRO_OBS`` switch.  Never changes results.

    Returns
    -------
    SweepResult
        Grid description + per-cell counts; ``meta`` carries hit/miss
        counters and the shard coordinates.
    """
    cells = shard_cells(grid.cells(), shard_index, shard_count)
    store = resolve_cache(cache)
    say = progress or (lambda line: None)

    with obs_session(obs), trace_span(
        "run_sweep",
        grid=grid.name,
        cells=len(cells),
        shard=f"{shard_index + 1}/{shard_count}",
    ):
        records: dict[int, dict] = {}
        pending: list[tuple[int, SweepCell]] = []
        hits = 0
        for pos, cell in enumerate(cells):
            entry = store.get(cell.spec_dict()) if store is not None else None
            if entry is not None:
                records[pos] = _cell_record(cell, _dist_from_payload(entry["payload"]))
                hits += 1
                say(f"[cache hit] {cell.label()} trials={cell.trials}")
            else:
                pending.append((pos, cell))

        if pending and workers == 1:
            for pos, cell in pending:
                with trace_span(
                    "sweep_cell", cell=cell.label(), trials=cell.trials
                ):
                    dist = run_cell(
                        cell.spec, cell.trials, cell.seed, threads=threads
                    )
                    if store is not None:
                        store.put(cell.spec_dict(), _counts_payload(dist))
                records[pos] = _cell_record(cell, dist)
                say(f"[computed]  {cell.label()} trials={cell.trials}")
        elif pending:
            pool_size = workers if workers is not None else (os.cpu_count() or 1)
            check_positive_int(pool_size, "workers")
            inner_threads = _worker_threads(pool_size, threads)
            ctx = get_context("fork") if os.name == "posix" else get_context()
            payload = [
                (c.spec, c.trials, c.seed, inner_threads) for _, c in pending
            ]
            with ctx.Pool(min(pool_size, len(pending))) as pool:
                counts_list = pool.map(_sweep_worker, payload)
            for (pos, cell), counts in zip(pending, counts_list):
                dist = _dist_from_payload({"counts": counts})
                if store is not None:
                    store.put(cell.spec_dict(), {"counts": counts})
                records[pos] = _cell_record(cell, dist)
                say(f"[computed]  {cell.label()} trials={cell.trials}")

        meta = {
            "hits": hits,
            "misses": len(pending),
            "shard_index": shard_index,
            "shard_count": shard_count,
            "cached": store is not None,
        }
        return SweepResult(
            grid=grid.describe(),
            cells=[records[pos] for pos in range(len(cells))],
            meta=meta,
        )
