"""The ``sweep`` subcommand of ``python -m repro.experiments``.

Four verbs::

    # execute (a shard of) a grid, reading/writing the result cache
    python -m repro.experiments sweep run n=256,4096 d=1,2 \\
        --trials 50 --shard-index 0 --shard-count 2 --out shard0.json

    # progress of the same grid: cells cached / remaining, rate, ETA
    python -m repro.experiments sweep status n=256,4096 d=1,2 --trials 50

    # merge shard artifacts into the canonical unsharded artifact
    python -m repro.experiments sweep merge shard0.json shard1.json \\
        --out merged.json

    # render a saved artifact as a paper-style table
    python -m repro.experiments sweep show merged.json

Axis tokens are ``axis=v1,v2,...`` over the cell axes
(``space``, ``n``, ``d``, ``m``, ``strategy``, ``partitioned``,
``dim``); see :func:`repro.sweeps.grid.parse_axis_args`.  ``--cache``
points at an explicit cache directory, ``--no-cache`` disables
caching; the default follows ``REPRO_SWEEP_CACHE`` (see
:func:`repro.sweeps.runner.resolve_cache`).

``status`` never simulates and never bumps the cache counters: it
probes which cells of the (sharded) grid already have entries on disk
and estimates the completion rate from their modification times
(:func:`repro.obs.report.progress_eta`), so it is safe to point at a
cache another process is actively filling.

Every ``--out`` artifact (``run`` and ``merge``) is written together
with a ``<out>.manifest.json`` run manifest
(:func:`repro.obs.manifest.write_manifest`) recording the code
revision, interpreter/numpy versions, kernel backend and ``REPRO_*``
environment that produced it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.obs.manifest import write_manifest
from repro.obs.report import format_progress, progress_eta
from repro.sweeps.grid import SweepGrid, parse_axis_args, shard_cells
from repro.sweeps.result import SweepResult
from repro.sweeps.runner import cell_spec_dict, resolve_cache, run_sweep

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The ``sweep`` subcommand parser (run / merge / show verbs)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep",
        description="Sharded, cached parameter sweeps over table cells.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="execute (a shard of) a grid")
    run_p.add_argument(
        "axes", nargs="+", metavar="axis=v1,v2",
        help="grid axes, e.g. n=256,4096 d=1,2 space=ring",
    )
    run_p.add_argument("--trials", type=int, default=100, help="trials per cell")
    run_p.add_argument("--seed", type=int, default=20030206, help="master seed")
    run_p.add_argument(
        "--name", default="sweep", help="grid label (names the artifact's grid)"
    )
    run_p.add_argument("--shard-index", type=int, default=0, help="this shard's index")
    run_p.add_argument("--shard-count", type=int, default=1, help="total shards")
    run_p.add_argument(
        "--threads", type=int, default=None,
        help="kernel threads within one cell (default: REPRO_NUM_THREADS, "
        "else physical cores)",
    )
    run_p.add_argument("--cache", default=None, help="cache directory (overrides env)")
    run_p.add_argument("--no-cache", action="store_true", help="disable the cache")
    run_p.add_argument("--out", default=None, help="write the result artifact here")
    run_p.add_argument(
        "--table", action="store_true", help="render the result as a table"
    )
    run_p.add_argument(
        "--row", default="n", help="table row axis (with --table; default n)"
    )
    run_p.add_argument(
        "--col", default="d", help="table column axis (with --table; default d)"
    )

    status_p = sub.add_parser(
        "status", help="progress/ETA of a grid against the cache"
    )
    status_p.add_argument(
        "axes", nargs="+", metavar="axis=v1,v2",
        help="grid axes, e.g. n=256,4096 d=1,2 space=ring",
    )
    status_p.add_argument("--trials", type=int, default=100, help="trials per cell")
    status_p.add_argument("--seed", type=int, default=20030206, help="master seed")
    status_p.add_argument(
        "--shard-index", type=int, default=0, help="this shard's index"
    )
    status_p.add_argument("--shard-count", type=int, default=1, help="total shards")
    status_p.add_argument(
        "--cache", default=None, help="cache directory (overrides env)"
    )

    merge_p = sub.add_parser("merge", help="merge shard artifacts")
    merge_p.add_argument("inputs", nargs="+", help="shard artifact files")
    merge_p.add_argument("--out", default=None, help="write the merged artifact here")
    merge_p.add_argument("--table", action="store_true", help="render merged table")
    merge_p.add_argument("--row", default="n", help="table row axis")
    merge_p.add_argument("--col", default="d", help="table column axis")

    show_p = sub.add_parser("show", help="render a saved artifact")
    show_p.add_argument("input", help="artifact file")
    show_p.add_argument("--row", default="n", help="table row axis")
    show_p.add_argument("--col", default="d", help="table column axis")
    return parser


def _cache_arg(args) -> object:
    if getattr(args, "no_cache", False):
        return "off"
    if args.cache is not None:
        return args.cache
    return "auto"


def _grid_from_args(args) -> SweepGrid:
    """Build the grid shared by the ``run`` and ``status`` verbs."""
    return SweepGrid.from_mapping(
        dict(
            parse_axis_args(args.axes),
            trials=args.trials,
            seed=args.seed,
            name=getattr(args, "name", "sweep"),
        )
    )


def _save_with_manifest(result: SweepResult, out: str) -> None:
    """Write the artifact plus its ``<out>.manifest.json`` sibling."""
    path = result.save(out)
    print(f"wrote {path}")
    manifest_path = write_manifest(Path(out).with_suffix(".manifest.json"))
    print(f"wrote {manifest_path}")


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.verb == "run":
        try:
            grid = _grid_from_args(args)
        except ValueError as exc:
            print(f"bad grid: {exc}", file=sys.stderr)
            return 2
        store = resolve_cache(_cache_arg(args))
        try:
            result = run_sweep(
                grid,
                cache=store if store is not None else "off",
                shard_index=args.shard_index,
                shard_count=args.shard_count,
                threads=args.threads,
                progress=lambda line: print(line, file=sys.stderr),
            )
        except ValueError as exc:
            print(f"sweep failed: {exc}", file=sys.stderr)
            return 2
        meta = result.meta
        print(
            f"sweep {grid.name}: {len(result)} cells "
            f"(shard {meta['shard_index'] + 1}/{meta['shard_count']}), "
            f"{meta['hits']} cache hits, {meta['misses']} computed"
            + (f", cache at {store.root}" if store is not None else ", cache off")
        )
        if args.out:
            _save_with_manifest(result, args.out)
        if args.table:
            print(result.to_report(row=args.row, col=args.col).render())
        return 0

    if args.verb == "status":
        try:
            grid = _grid_from_args(args)
        except ValueError as exc:
            print(f"bad grid: {exc}", file=sys.stderr)
            return 2
        store = resolve_cache(_cache_arg(args))
        if store is None:
            print(
                "sweep status needs a cache (set REPRO_SWEEP_CACHE or --cache)",
                file=sys.stderr,
            )
            return 2
        cells = shard_cells(grid.cells(), args.shard_index, args.shard_count)
        mtimes: list[float] = []
        for cell in cells:
            spec_d = cell_spec_dict(cell.spec, cell.trials, cell.seed)
            try:
                mtimes.append(store.path_for(spec_d).stat().st_mtime)
            except OSError:
                pass
        progress = progress_eta(len(mtimes), len(cells), mtimes)
        shard = f"shard {args.shard_index + 1}/{args.shard_count}, " \
            if args.shard_count > 1 else ""
        print(
            f"sweep status ({shard}cache at {store.root}): "
            + format_progress(progress)
        )
        return 0

    if args.verb == "merge":
        try:
            parts = [SweepResult.load(path) for path in args.inputs]
            merged = SweepResult.merge(parts)
        except (OSError, KeyError, ValueError) as exc:
            print(f"merge failed: {exc}", file=sys.stderr)
            return 2
        print(f"merged {len(parts)} artifacts -> {len(merged)} cells")
        if args.out:
            _save_with_manifest(merged, args.out)
        if args.table:
            print(merged.to_report(row=args.row, col=args.col).render())
        return 0

    # show
    try:
        result = SweepResult.load(args.input)
        print(result.to_report(row=args.row, col=args.col).render())
    except (OSError, KeyError, ValueError) as exc:
        print(f"show failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
