"""``repro.sweeps`` — sharded parameter sweeps over a result cache.

The orchestration layer between the trial engines
(:mod:`repro.stats.trials`) and the experiment drivers
(:mod:`repro.experiments`).  It turns the table/ablation suite into a
**resumable, cacheable, shardable** sweep engine:

* :class:`SweepGrid` (:mod:`repro.sweeps.grid`) — declarative
  parameter grids over the cell axes (space, n, d, m, strategy,
  partitioned, dim) that expand deterministically into per-cell
  specs, each seeded by :func:`repro.stats.trials.cell_seed` as every
  experiment driver seeds it;
* :class:`ResultCache` (:mod:`repro.sweeps.cache`) — a
  content-addressed on-disk store: each result is keyed by the hash
  of its full spec plus a code-version salt, so identical work is
  never recomputed.  The salt carries the package version and
  :data:`~repro.sweeps.cache.PLACEMENT_DIGEST`, a pinned digest of
  canonical placement results, so a change to placement semantics
  orphans every result computed before it;
* :func:`run_sweep` / :func:`fetch_cell` / :func:`submit_cell`
  (:mod:`repro.sweeps.runner`) — cache-aware execution: a cell's
  entry is its per-trial load histograms, :func:`submit_cell` their
  max-load view; :func:`run_sweep` makes one :func:`fetch_cell` call
  per cell, with round-robin shard selection
  (``--shard-index/--shard-count``); shards run as separate processes
  parallelize across cells;
* :class:`SweepResult` (:mod:`repro.sweeps.result`) — mergeable
  artifacts with a canonical byte form: shards of one grid merge to
  the byte-identical unsharded result, and ``to_report`` renders
  through the same :mod:`repro.stats.tables` stack as Tables 1–3.

Caching is on by default (XDG user cache) and controlled by the
``REPRO_SWEEP_CACHE`` environment variable; every experiment driver
accepts ``cache=`` to point at an explicit store or disable it.  See
``docs/sweeps.md`` for the user guide and
``python -m repro.experiments sweep --help`` for the CLI.

Examples
--------
>>> from repro.sweeps import SweepGrid, run_sweep
>>> grid = SweepGrid(n=(64, 128), d=(1, 2), trials=3, name="demo")
>>> result = run_sweep(grid, cache="off")
>>> len(result)
4
"""

from repro.sweeps.cache import (
    DEFAULT_SALT,
    ResultCache,
    canonical_json,
    default_cache_dir,
    spec_key,
)
from repro.sweeps.grid import AXES, SweepCell, SweepGrid, parse_axis_args, shard_cells
from repro.sweeps.result import SweepResult
from repro.sweeps.runner import (
    fetch_cell,
    fetch_or_compute,
    resolve_cache,
    run_sweep,
    submit_cell,
)

__all__ = [
    "AXES",
    "DEFAULT_SALT",
    "ResultCache",
    "SweepCell",
    "SweepGrid",
    "SweepResult",
    "canonical_json",
    "default_cache_dir",
    "fetch_cell",
    "fetch_or_compute",
    "parse_axis_args",
    "resolve_cache",
    "run_sweep",
    "shard_cells",
    "spec_key",
    "submit_cell",
]
