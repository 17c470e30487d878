"""Sweep execution: cache-aware cell submission and sharded grid runs.

Two levels of API:

* :func:`fetch_cell` / :func:`submit_cell` / :func:`fetch_or_compute`
  — cached versions of the primitives the experiment drivers use.  A
  cell's cache entry is its per-trial load histograms
  (:func:`repro.stats.trials.run_cell_hists`): :func:`fetch_cell`
  returns them, :func:`submit_cell` their max-load view (what
  ``run_cell`` returns), and :func:`repro.stats.trials.mean_nu_profile`
  reads the ν-profile from the same entry.  Every driver in
  :mod:`repro.experiments` seeds its cells with
  :func:`repro.stats.trials.cell_seed` and routes them through these,
  so **re-running any table is incremental by default**, and a cell
  computed by one driver, grid or shard is a hit for every other.

* :func:`run_sweep` — expand a :class:`~repro.sweeps.grid.SweepGrid`,
  select a shard, fetch its cells in grid order through
  :func:`fetch_cell`'s cache lookup, and return a mergeable
  :class:`~repro.sweeps.result.SweepResult`.  Shards run as separate
  processes and merge to the unsharded artifact.

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
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from repro.obs import obs_session, trace_span
from repro.stats.distributions import MaxLoadDistribution
from repro.stats.trials import CellSpec, canonical_cell, run_cell_hists
from repro.sweeps.cache import DEFAULT_SALT, ResultCache, default_cache_dir, spec_key
from repro.sweeps.grid import SweepGrid, shard_cells
from repro.sweeps.result import SweepResult

__all__ = [
    "cell_spec_dict",
    "fetch_cell",
    "fetch_or_compute",
    "resolve_cache",
    "run_sweep",
    "submit_cell",
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


def cell_spec_dict(spec: CellSpec, trials: int, seed: int) -> dict:
    """The cache spec of one cell computation: the cell's identity
    (:func:`repro.stats.trials.canonical_cell`) plus its trial count and
    seed.  :func:`fetch_cell`, :func:`run_sweep`'s artifact records and
    ``sweep status`` all key cells by it."""
    return {"kind": "cell", **canonical_cell(spec), "trials": trials, "seed": seed}


def fetch_cell(
    spec: CellSpec,
    trials: int,
    seed=None,
    *,
    cache: CacheLike = "auto",
    threads: int | None = None,
) -> np.ndarray:
    """A cell's per-trial load histograms, cached.

    Cached drop-in for :func:`repro.stats.trials.run_cell_hists`: a
    hit returns the stored ``(trials, L)`` histograms without
    simulating; a miss computes them (same kernel ``threads``
    semantics, bit-identical results) and stores them inline in the
    entry's JSON.  ``threads`` is deliberately absent from the cache
    key, and so is the kernel backend (``REPRO_KERNEL_BACKEND``):
    backends and thread counts are bit-identical by contract, so a hit
    from one configuration is valid for all.  The one exception is a
    torus query at exactly tied rounded distances from two servers,
    where the cext grid and the numpy KD-tree may pick different
    owners; cells draw random servers, on which such ties are
    negligible.  ``seed=None`` or a disabled cache computes directly.
    """
    store = resolve_cache(cache)
    cache_seed = _cacheable_seed(seed)
    if store is None or cache_seed is None:
        return run_cell_hists(spec, trials, seed, threads=threads)
    hist = _cell_hist(spec, cell_spec_dict(spec, trials, cache_seed), store, threads)
    return np.asarray(hist, dtype=np.int64)


def _cell_hist(
    spec: CellSpec, spec_d: dict, store: ResultCache | None, threads: int | None
) -> list:
    """The histograms of the cell ``spec_d`` names (:func:`cell_spec_dict`
    of ``spec``) as the cache stores them, nested lists: the entry's on
    a hit, else computed (and stored when there is a ``store``)."""
    entry = store.get(spec_d) if store is not None else None
    if entry is not None:
        return entry["payload"]["hist"]
    hist = run_cell_hists(spec, spec_d["trials"], spec_d["seed"],
                          threads=threads).tolist()
    if store is not None:
        store.put(spec_d, {"hist": hist})
    return hist


def submit_cell(
    spec: CellSpec,
    trials: int,
    seed=None,
    *,
    cache: CacheLike = "auto",
    threads: int | None = None,
) -> MaxLoadDistribution:
    """Cached drop-in for :func:`repro.stats.trials.run_cell`: the
    max-load view of :func:`fetch_cell`'s histograms."""
    hist = fetch_cell(spec, trials, seed, cache=cache, threads=threads)
    return MaxLoadDistribution.from_histograms(hist, spec=spec)


def fetch_or_compute(
    spec_dict: Mapping,
    compute: Callable[[], MaxLoadDistribution],
    *,
    cache: CacheLike = "auto",
) -> MaxLoadDistribution:
    """Cache an arbitrary max-load distribution under an explicit spec.

    For drivers whose cells are not ``run_cell`` cells (dynamic churn
    trajectories, CAN zones, parallel-arrival rounds): ``spec_dict`` must
    name every parameter that determines the result — including a
    ``"kind"`` discriminator and the seed — and ``compute`` produces
    the distribution on a miss.
    """
    store = resolve_cache(cache)
    if store is None:
        return compute()
    entry = store.get(spec_dict)
    if entry is not None:
        return MaxLoadDistribution.from_json_counts(entry["payload"]["counts"])
    dist = compute()
    store.put(spec_dict, {"counts": dist.to_json_counts()})
    return dist


def run_sweep(
    grid: SweepGrid,
    *,
    cache: CacheLike = "auto",
    shard_index: int = 0,
    shard_count: int = 1,
    threads: int | None = None,
    progress: Callable[[str], None] | None = None,
    obs: bool | None = None,
) -> SweepResult:
    """Execute (one shard of) a grid and return a mergeable result.

    Each cell of the shard, in grid order, goes through
    :func:`fetch_cell`'s lookup: a hit's stored histograms go into the
    record as read, a miss is computed by ``run_cell_hists`` and stored.

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
        unsharded artifact, so shards run as separate processes are
        the way to spread a grid over more cores than one cell uses.
    threads:
        Kernel threads *within* one cell
        (:func:`repro.kernels.resolve_threads` semantics), forwarded to
        ``run_cell_hists``.  Never part of the cache key; results are
        independent of it.
    progress:
        Optional callable receiving one line per cell.
    obs:
        Observability scope (:func:`repro.obs.obs_session`): ``True``
        traces a ``run_sweep`` span with one ``sweep_cell`` span per
        cell, ``False`` force-disables, ``None`` follows the global
        ``REPRO_OBS`` switch.  Never changes results.

    Returns
    -------
    SweepResult
        Grid description + per-cell histograms; ``meta`` carries
        hit/miss counters and the shard coordinates.
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
        records = []
        hits = 0
        for cell in cells:
            spec_d = cell_spec_dict(cell.spec, cell.trials, cell.seed)
            before = store.hits if store is not None else 0
            with trace_span("sweep_cell", cell=cell.label(), trials=cell.trials):
                hist = _cell_hist(cell.spec, spec_d, store, threads)
            hit = store is not None and store.hits > before
            hits += hit
            # keyed under the default salt, so the artifact's identity
            # does not depend on the local cache configuration
            records.append(
                {"key": spec_key(spec_d, DEFAULT_SALT), "spec": spec_d, "hist": hist}
            )
            status = "[cache hit]" if hit else "[computed] "
            say(f"{status} {cell.label()} trials={cell.trials}")

        meta = {
            "hits": hits,
            "misses": len(cells) - hits,
            "shard_index": shard_index,
            "shard_count": shard_count,
            "cached": store is not None,
        }
        return SweepResult(grid=grid.describe(), cells=records, meta=meta)
