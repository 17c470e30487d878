#!/usr/bin/env python
"""Engine throughput emitter: writes the tracked ``BENCH_engine.json``.

Measures balls-per-second for the fused engine and the sequential
reference on the paper's hot workloads — many trials of a ring cell at
``d = 2`` and ``n ∈ {2¹², 2¹⁶, 2²⁰}`` (Table 1), and of a 2-D torus
cell at ``n = 2¹⁴`` (Table 2).  This file seeds the repo's
performance trajectory: re-run it after engine work and commit the
refreshed JSON.

Protocol notes (what makes the numbers comparable):

* all engines place balls into identical pre-built spaces with
  identical per-trial seeds, so they simulate the *same* process and
  their outputs cross-check bit-identically (verified at the smallest
  size on every run);
* each engine gets an untimed warm-up run (page faults, lazily built
  bucket tables), then ``--repeats`` timed runs (default 5); a row
  records their median (the upper middle one for an even count) as
  ``seconds`` with the fastest and slowest as ``seconds_min`` and
  ``seconds_max`` — the shared-box noise here is easily ±15%, so a
  row shows its spread;
* the sequential reference places fewer balls (the per-cell
  ``trials``/``sequential_balls`` fields record exactly how many each
  engine placed) — the statistic is per-ball throughput, which is
  trial-count independent, so the rows are directly comparable;
* every measurement pins ``REPRO_KERNEL_BACKEND`` for its duration:
  the engine rows are pure-numpy (no compiled kernels sneaking into
  the ring lookup), and each kernel-backend row runs entirely under
  that backend.

Besides the two engines, the fused engine is measured once per
*kernel backend* available on the machine (``numpy`` reference, plus
``cext`` when compilable — see :mod:`repro.kernels`), emitted under
``backends`` with the speedup
over the numpy reference, and once per *thread count* in
``THREAD_COUNTS`` per backend (``REPRO_NUM_THREADS`` pinned per
measurement; ``(1, 2)`` for the torus), emitted under ``threads``
with the parallel efficiency relative to the backend's own 1-thread
row.  Each cell names its ``space``.  The embedded manifest's
``cpu`` field records the physical/logical core counts the scaling
numbers must be read against.

Every row above places balls into prebuilt spaces, so none of them
sees space construction.  Every cell therefore also gets a ``cell``
row: :func:`repro.stats.trials.run_cell` from seeds, which draws each
trial's ring or torus before placing into it, per backend at
``CELL_THREAD_COUNTS`` (the max-load counts are cross-checked equal
across every backend and thread count before anything is emitted).
Each ``cell`` row also records ``peak_rss_growth_mb``: how far the
resident set's peak rose during a fresh interpreter's first
``run_cell`` call of that cell, backend and thread count, above the
resident set before it (Linux's ``VmHWM``, reset through
``/proc/self/clear_refs``; ``null`` elsewhere).  In this process the
rows before it have already left the kernel's scratch resident, so
the growth would read 0.  ``CELL_ONLY`` adds ``cell`` rows at the
paper's largest sizes, where the prebuilt-space rows would hold too
much memory or run too long: a ring cell at ``n = 2²⁴`` (Tables 1 and
3) and a torus cell at ``n = 2²⁰`` (Table 2), timed on the compiled
backend at threads 1 and 2 (full mode only).  The ``PROFILE_CELLS``
among them also get a ``profile`` row:
:func:`repro.stats.trials.run_cell_profile` of the same cell, timed and
measured the same way, since the ν-profile comes from the very load
histograms the maximum loads do.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # full
    PYTHONPATH=src python benchmarks/run_benchmarks.py --fast     # CI smoke
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro._version import __version__
from repro.core.engine import run_sequential
from repro.core.multitrial import fused_trial_chunk, run_fused
from repro.core.ring import RingSpace
from repro.core.strategies import TieBreak
from repro.core.torus import TorusSpace
from repro.kernels import available_backends
from repro.obs.manifest import run_manifest
from repro.stats.trials import CellSpec, run_cell, run_cell_profile

D = 2
STRATEGY = TieBreak.RANDOM

#: Thread counts for the fused thread-scaling dimension.  Measured for
#: every backend regardless of the host's core count — the manifest's
#: ``cpu`` field records the topology, so a 4-thread row on a 1-core
#: box is interpretable (expected efficiency ~1/4), not misleading.
THREAD_COUNTS = (1, 2, 4)

#: Thread counts of the torus cell, whose trials run on ``run_fused``'s
#: trial pool.
TORUS_THREAD_COUNTS = (1, 2)

#: Thread counts of the ``run_cell`` rows.
CELL_THREAD_COUNTS = (1, 2)

#: Master seed of the ``run_cell`` rows.
CELL_SEED = 9000

#: (space, n, trials, backend) of cells measured by ``run_cell`` rows
#: alone, at ``CELL_THREAD_COUNTS``: a 2²⁴-server ring trial holds about
#: 10 bytes per server of kernel scratch per thread, where prebuilt
#: spaces would hold gigabytes, and a 2²⁰-server torus trial is Table
#: 2's largest.  Full mode only.
CELL_ONLY = (("ring", 1 << 24, 4, "cext"), ("torus", 1 << 20, 4, "cext"))

#: The ``CELL_ONLY`` cells that also get a ``profile`` row.
PROFILE_CELLS = (("ring", 1 << 24, 4, "cext"),)

#: (space, n, trials, sequential_balls, thread counts) per measured
#: cell.  Throughput is per-ball and trial-count independent, so the
#: big-n cell uses one fused chunk's worth of trials — keeping all
#: spaces (positions + bucket tables) resident stays well under 1 GB.
FULL_CELLS = (
    ("ring", 1 << 12, 100, 1 << 12, THREAD_COUNTS),
    ("ring", 1 << 16, 100, 1 << 14, THREAD_COUNTS),
    ("ring", 1 << 20, 16, 1 << 14, THREAD_COUNTS),
    ("torus", 1 << 14, 16, 1 << 12, TORUS_THREAD_COUNTS),
)
FAST_CELLS = (
    ("ring", 1 << 10, 16, 1 << 10, THREAD_COUNTS),
    ("ring", 1 << 12, 16, 1 << 11, THREAD_COUNTS),
    ("torus", 1 << 10, 8, 1 << 10, TORUS_THREAD_COUNTS),
)


def _spaces(space: str, n: int, trials: int):
    """The cell's spaces, built under the auto-detected backend.

    Under ``cext`` they carry the ring bucket tables or torus grids; the
    numpy rows then look points up the reference way (bucketed
    ``searchsorted``, the KD-tree), so every row places into the same
    spaces.
    """
    cls = RingSpace if space == "ring" else TorusSpace
    return [cls.random(n, seed=9000 + k) for k in range(trials)]


@contextmanager
def _pinned_backend(name: str):
    """Force one kernel backend for everything inside the block.

    The env var is the strongest selector (:mod:`repro.kernels`), so
    pinning it steers both the engine's ``backend=`` resolution and the
    kwarg-less call sites underneath (the ring bucket-table lookup) —
    a "numpy" measurement really is numpy all the way down.
    """
    prev = os.environ.get("REPRO_KERNEL_BACKEND")
    os.environ["REPRO_KERNEL_BACKEND"] = name
    try:
        yield
    finally:
        if prev is None:
            del os.environ["REPRO_KERNEL_BACKEND"]
        else:
            os.environ["REPRO_KERNEL_BACKEND"] = prev


@contextmanager
def _pinned_threads(count: int):
    """Force one kernel thread count for everything inside the block.

    ``REPRO_NUM_THREADS`` is the strongest selector
    (:func:`repro.kernels.resolve_threads`), so pinning it steers the
    fused engine's thread resolution without touching any kwargs — and
    keeps the single-thread rows honest on multicore hosts, where the
    auto default would otherwise parallelize them.
    """
    prev = os.environ.get("REPRO_NUM_THREADS")
    os.environ["REPRO_NUM_THREADS"] = str(count)
    try:
        yield
    finally:
        if prev is None:
            del os.environ["REPRO_NUM_THREADS"]
        else:
            os.environ["REPRO_NUM_THREADS"] = prev


def _status_kb(field: str) -> int | None:
    """A ``kB`` field of ``/proc/self/status`` (``None`` off Linux)."""
    try:
        text = Path("/proc/self/status").read_text()
    except OSError:
        return None
    match = re.search(rf"^{field}:\s+(\d+) kB", text, re.MULTILINE)
    return int(match.group(1)) if match else None


def _with_peak_rss_growth(fn):
    """``(fn(), growth)``: how far the resident set's peak rose during the
    call above the resident set before it, in MB (``None`` off Linux).

    Writing ``5`` to ``/proc/self/clear_refs`` resets the peak
    (``VmHWM``) to the current resident set.
    """
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return fn(), None
    before = _status_kb("VmRSS")
    result = fn()
    peak = _status_kb("VmHWM")
    if before is None or peak is None:
        return result, None
    return result, round((peak - before) / 1024.0, 2)


def _first_run_cell_growth(space: str, n: int, trials: int, backend: str,
                           threads: int, profile: bool) -> float | None:
    """``peak_rss_growth_mb`` of this process's first ``run_cell`` (with
    ``profile``, ``run_cell_profile``) of the cell, under ``backend`` at
    ``threads`` threads.

    A 16-server cell of the same space runs first, outside the window:
    it loads the compiled library and the modules imported on first use
    (``numpy.random``, scipy's KD-tree), so the growth is what the
    measured call itself allocates — spaces or kernel scratch, loads
    and results.
    """
    spec = CellSpec(space, n, D, strategy=STRATEGY.value)
    run = run_cell_profile if profile else run_cell
    with _pinned_backend(backend), _pinned_threads(threads):
        run(CellSpec(space, 16, D, strategy=STRATEGY.value), 1, seed=CELL_SEED)
        _, growth = _with_peak_rss_growth(
            lambda: run(spec, trials, seed=CELL_SEED)
        )
    return growth


def _fresh_peak_rss_growth(space: str, n: int, trials: int, backend: str,
                           threads: int, profile: bool) -> float | None:
    """:func:`_first_run_cell_growth` in a fresh interpreter."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(_first_run_cell_growth, space, n, trials, backend,
                           threads, profile).result()


def _time_median(fn, repeats: int) -> tuple[float, float, float]:
    """``(median, min, max)`` seconds of ``repeats`` timed calls after an
    untimed warm-up (page faults, bucket tables, allocator reuse); the
    median of an even count is the upper middle one."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2], times[0], times[-1]


def _timed_row(times: tuple[float, float, float], balls: int) -> dict:
    """A row's ``seconds`` (the median) and spread, and balls/s at the
    median."""
    seconds, fastest, slowest = times
    return {
        "seconds": round(seconds, 4),
        "seconds_min": round(fastest, 4),
        "seconds_max": round(slowest, 4),
        "balls_per_s": round(balls / seconds, 1),
    }


def _measure_cell(space, n, trials, sequential_balls, thread_counts, repeats,
                  backends):
    spaces = _spaces(space, n, trials)

    def fused():
        # same memory-bounded trial chunking the stats layer applies
        # (a no-op below n = 2²⁰ at these trial counts)
        chunk = fused_trial_chunk(n, n, D)
        rngs = [np.random.default_rng(k) for k in range(trials)]
        for c0 in range(0, trials, chunk):
            run_fused(spaces[c0 : c0 + chunk], n, D, STRATEGY,
                      rngs[c0 : c0 + chunk])

    def sequential():
        run_sequential(spaces[0], sequential_balls, D, STRATEGY,
                       np.random.default_rng(0))

    with _pinned_backend("numpy"), _pinned_threads(1):
        timings = {
            "fused": (_time_median(fused, repeats), trials * n),
            "sequential": (_time_median(sequential, repeats), sequential_balls),
        }
    engines = {
        name: {"balls": balls, **_timed_row(times, balls)}
        for name, (times, balls) in timings.items()
    }
    backend_rows = {"numpy": dict(engines["fused"])}
    for name in backends:
        if name == "numpy":
            continue
        with _pinned_backend(name), _pinned_threads(1):
            times = _time_median(fused, repeats)
        backend_rows[name] = {"balls": trials * n,
                              **_timed_row(times, trials * n)}
    for row in backend_rows.values():
        row["speedup_over_numpy"] = round(
            row["balls_per_s"] / backend_rows["numpy"]["balls_per_s"], 2
        )
    thread_rows: dict[str, dict] = {}
    for name in backends:
        rows: dict[str, dict] = {}
        base = None
        for count in thread_counts:
            with _pinned_backend(name), _pinned_threads(count):
                row = _timed_row(_time_median(fused, repeats), trials * n)
            bps = row["balls_per_s"]
            if base is None:
                base = bps
            rows[str(count)] = {
                **row,
                "speedup_over_1_thread": round(bps / base, 2),
                "parallel_efficiency": round(bps / base / count, 2),
            }
        thread_rows[name] = rows
    return {
        "space": space,
        "n": n,
        "trials": trials,
        "sequential_balls": sequential_balls,
        "engines": engines,
        "backends": backend_rows,
        "threads": thread_rows,
    }


def _measure_run_cell(space, n, trials, repeats, backends, profile=False):
    """``run_cell`` (with ``profile``, ``run_cell_profile``) from seeds,
    space construction included, per backend and thread count; the
    max-load counts (the profiles) must agree everywhere.  Each row's
    peak RSS growth comes from a fresh interpreter
    (:func:`_fresh_peak_rss_growth`)."""
    spec = CellSpec(space, n, D, strategy=STRATEGY.value)
    run = run_cell_profile if profile else run_cell
    rows: dict[str, dict] = {}
    reference = None
    for name in backends:
        rows[name] = {}
        for count in CELL_THREAD_COUNTS:
            with _pinned_backend(name), _pinned_threads(count):
                result = run(spec, trials, seed=CELL_SEED)
                times = _time_median(
                    lambda: run(spec, trials, seed=CELL_SEED), repeats
                )
            result = result.tobytes() if profile else result.to_json_counts()
            if reference is None:
                reference = result
            elif result != reference:
                raise AssertionError(
                    f"{run.__name__} under backend {name!r} at {count} "
                    f"threads diverges at {space} n={n} — bit-identity "
                    "broken, refusing to emit benchmark numbers"
                )
            rows[name][str(count)] = {
                **_timed_row(times, trials * n),
                "peak_rss_growth_mb": _fresh_peak_rss_growth(
                    space, n, trials, name, count, profile
                ),
            }
    return rows


def _cross_check(space: str, n: int, trials: int, thread_counts,
                 backends) -> None:
    """Every engine × backend × thread count must produce identical
    loads (fail loudly)."""
    spaces = _spaces(space, n, trials)
    reference = None
    for name in backends:
        with _pinned_backend(name), _pinned_threads(1):
            rngs = [np.random.default_rng(k) for k in range(trials)]
            fused, _ = run_fused(spaces, n, D, STRATEGY, rngs)
        with _pinned_backend(name), _pinned_threads(max(thread_counts)):
            rngs = [np.random.default_rng(k) for k in range(trials)]
            fused_mt, _ = run_fused(spaces, n, D, STRATEGY, rngs)
        if not np.array_equal(fused, fused_mt):
            raise AssertionError(
                f"threaded fused run diverges from serial under backend "
                f"{name!r} at {space} n={n} — bit-identity broken, refusing "
                "to emit benchmark numbers"
            )
        if reference is None:
            reference = fused
            for k in range(trials):
                sequential, _ = run_sequential(spaces[k], n, D, STRATEGY,
                                               np.random.default_rng(k))
                if not np.array_equal(fused[k], sequential):
                    raise AssertionError(
                        f"fused/sequential divergence at {space} n={n}, trial "
                        f"{k} — bit-identity broken, refusing to emit "
                        "benchmark numbers"
                    )
        elif not np.array_equal(reference, fused):
            raise AssertionError(
                f"kernel backend {name!r} diverges from numpy at {space} "
                f"n={n} — bit-identity broken, refusing to emit benchmark "
                "numbers"
            )


def _print_run_cell(cell) -> None:
    for key, label in (("cell", "run_cell"), ("profile", "run_cell_profile")):
        for name, rows in cell.get(key, {}).items():
            scaling = ", ".join(
                f"{count}t={row['balls_per_s']:,.0f}/s "
                f"(+{row['peak_rss_growth_mb']} MB peak RSS)"
                for count, row in rows.items()
            )
            print(f"  {label}[{name}]: {scaling}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="small sizes, 1 repeat (CI smoke mode)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed runs per row (median kept, with the "
                             "min and max); default 5, or 1 with --fast")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_engine.json",
                        help="output path (default: repo-root BENCH_engine.json)")
    args = parser.parse_args(argv)
    repeats = args.repeats or (1 if args.fast else 5)
    cells = FAST_CELLS if args.fast else FULL_CELLS

    backends = ["numpy"] + [
        name for name, ok in available_backends().items()
        if ok and name != "numpy"
    ]
    print(f"kernel backends measured: {', '.join(backends)}")
    for space in ("ring", "torus"):
        _, n, trials, _, thread_counts = next(c for c in cells if c[0] == space)
        _cross_check(space, n, min(8, trials), thread_counts, backends)
    results = []
    for space, n, trials, sequential_balls, thread_counts in cells:
        cell = _measure_cell(space, n, trials, sequential_balls, thread_counts,
                             repeats, backends)
        cell["cell"] = _measure_run_cell(space, n, trials, repeats, backends)
        results.append(cell)
        f = cell["engines"]
        print(
            f"{space} n=2^{n.bit_length() - 1}: fused "
            f"{f['fused']['balls_per_s']:,.0f} "
            f"balls/s ({cell['trials']} trials), sequential "
            f"{f['sequential']['balls_per_s']:,.0f} "
            f"({cell['sequential_balls']} balls)"
        )
        for name, row in cell["backends"].items():
            if name == "numpy":
                continue
            print(
                f"  fused[{name}]: {row['balls_per_s']:,.0f} balls/s "
                f"({row['speedup_over_numpy']}x over numpy)"
            )
        for name, rows in cell["threads"].items():
            scaling = ", ".join(
                f"{count}t={row['balls_per_s']:,.0f}/s "
                f"(eff {row['parallel_efficiency']})"
                for count, row in rows.items()
            )
            print(f"  threads[{name}]: {scaling}")
        _print_run_cell(cell)
    for space, n, trials, backend in () if args.fast else CELL_ONLY:
        if backend not in backends:
            continue
        cell = {"space": space, "n": n, "trials": trials,
                "cell": _measure_run_cell(space, n, trials, repeats, [backend])}
        if (space, n, trials, backend) in PROFILE_CELLS:
            cell["profile"] = _measure_run_cell(space, n, trials, repeats,
                                                [backend], profile=True)
        results.append(cell)
        print(f"{space} n=2^{n.bit_length() - 1}: run_cell only "
              f"({trials} trials)")
        _print_run_cell(cell)

    payload = {
        "benchmark": "engine_throughput",
        "version": __version__,
        "mode": "fast" if args.fast else "full",
        "spaces": ["ring", "torus"],
        "d": D,
        "strategy": STRATEGY.value,
        "repeats": repeats,
        "kernel_backends": backends,
        "note": (
            "every timed row is the median of `repeats` runs after a "
            "warm-up (seconds, balls_per_s), with the fastest and slowest "
            "as seconds_min and seconds_max. "
            "throughputs are balls/s and trial-count independent; engines "
            "place different ball counts per cell (see trials/"
            "sequential_balls). 'backends' rows rerun the "
            "fused engine under each kernel backend, REPRO_KERNEL_BACKEND "
            "pinned; 'engines' rows are pure numpy. Both are measured at "
            "REPRO_NUM_THREADS=1; 'threads' rows sweep the thread count "
            "per backend (parallel_efficiency = speedup / threads — "
            "interpret against manifest.cpu, a 4-thread row on a 1-core "
            "host cannot exceed efficiency ~0.25). Each cell names its "
            "space; the torus cell sweeps threads 1 and 2 only. 'cell' "
            "rows time run_cell from seeds (ring or torus construction "
            "included) per backend at threads 1 and 2; their "
            "peak_rss_growth_mb is VmHWM over a fresh interpreter's first "
            "run_cell of that row (reset through /proc/self/clear_refs) "
            "minus the RSS before it, in MB, null off Linux. The n=2^24 "
            "ring and n=2^20 torus cells have cext 'cell' rows only, and "
            "the n=2^24 ring a 'profile' row beside them: "
            "run_cell_profile of the same cell, timed and measured the "
            "same way."
        ),
        "thread_counts": list(THREAD_COUNTS),
        "unix_time": int(time.time()),
        "manifest": run_manifest(),
        "cells": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
