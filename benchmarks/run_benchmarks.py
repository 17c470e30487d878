#!/usr/bin/env python
"""Engine throughput emitter: writes the tracked ``BENCH_engine.json``.

Measures balls-per-second for the fused engine and the sequential
reference on the paper's hot workload — many trials of a ring cell at
``d = 2`` — at ``n ∈ {2¹², 2¹⁶, 2²⁰}``.  This file seeds the repo's
performance trajectory: re-run it after engine work and commit the
refreshed JSON.

Protocol notes (what makes the numbers comparable):

* all engines place balls into identical pre-built spaces with
  identical per-trial seeds, so they simulate the *same* process and
  their outputs cross-check bit-identically (verified at the smallest
  size on every run);
* each engine gets an untimed warm-up run (page faults, lazily built
  bucket tables) and the best of ``--repeats`` timed runs is kept —
  the shared-box noise here is easily ±15%;
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
measurement), emitted under ``threads`` with the parallel efficiency
relative to the backend's own 1-thread row.  The embedded manifest's
``cpu`` field records the physical/logical core counts the scaling
numbers must be read against.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # full
    PYTHONPATH=src python benchmarks/run_benchmarks.py --fast     # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro._version import __version__
from repro.core.engine import run_sequential
from repro.core.multitrial import fused_trial_chunk, run_fused
from repro.core.ring import RingSpace
from repro.core.strategies import TieBreak
from repro.kernels import available_backends
from repro.obs.manifest import run_manifest

D = 2
STRATEGY = TieBreak.RANDOM

#: Thread counts for the fused thread-scaling dimension.  Measured for
#: every backend regardless of the host's core count — the manifest's
#: ``cpu`` field records the topology, so a 4-thread row on a 1-core
#: box is interpretable (expected efficiency ~1/4), not misleading.
THREAD_COUNTS = (1, 2, 4)

#: (n, trials, sequential_balls) per measured cell.  Throughput is
#: per-ball and trial-count independent, so the big-n cell uses one
#: fused chunk's worth of trials — keeping all spaces (positions +
#: bucket tables) resident stays well under 1 GB.
FULL_CELLS = (
    (1 << 12, 100, 1 << 12),
    (1 << 16, 100, 1 << 14),
    (1 << 20, 16, 1 << 14),
)
FAST_CELLS = (
    (1 << 10, 16, 1 << 10),
    (1 << 12, 16, 1 << 11),
)


def _spaces_and_seeds(n: int, trials: int):
    return [RingSpace.random(n, seed=9000 + k) for k in range(trials)]


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


def _time_best(fn, repeats: int) -> float:
    fn()  # warm-up: page faults, bucket tables, allocator reuse
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure_cell(n, trials, sequential_balls, repeats, backends):
    spaces = _spaces_and_seeds(n, trials)

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
            "fused": (_time_best(fused, repeats), trials * n),
            "sequential": (_time_best(sequential, repeats), sequential_balls),
        }
    engines = {
        name: {
            "seconds": round(seconds, 4),
            "balls": balls,
            "balls_per_s": round(balls / seconds, 1),
        }
        for name, (seconds, balls) in timings.items()
    }
    backend_rows = {"numpy": dict(engines["fused"])}
    for name in backends:
        if name == "numpy":
            continue
        with _pinned_backend(name), _pinned_threads(1):
            seconds = _time_best(fused, repeats)
        backend_rows[name] = {
            "seconds": round(seconds, 4),
            "balls": trials * n,
            "balls_per_s": round(trials * n / seconds, 1),
        }
    for row in backend_rows.values():
        row["speedup_over_numpy"] = round(
            row["balls_per_s"] / backend_rows["numpy"]["balls_per_s"], 2
        )
    thread_rows: dict[str, dict] = {}
    for name in backends:
        rows: dict[str, dict] = {}
        base = None
        for count in THREAD_COUNTS:
            with _pinned_backend(name), _pinned_threads(count):
                seconds = _time_best(fused, repeats)
            bps = trials * n / seconds
            if base is None:
                base = bps
            rows[str(count)] = {
                "seconds": round(seconds, 4),
                "balls_per_s": round(bps, 1),
                "speedup_over_1_thread": round(bps / base, 2),
                "parallel_efficiency": round(bps / base / count, 2),
            }
        thread_rows[name] = rows
    return {
        "n": n,
        "trials": trials,
        "sequential_balls": sequential_balls,
        "engines": engines,
        "backends": backend_rows,
        "threads": thread_rows,
    }


def _cross_check(n: int, trials: int, backends) -> None:
    """Every engine × backend × thread count must produce identical
    loads (fail loudly)."""
    spaces = _spaces_and_seeds(n, trials)
    reference = None
    for name in backends:
        with _pinned_backend(name), _pinned_threads(1):
            rngs = [np.random.default_rng(k) for k in range(trials)]
            fused, _ = run_fused(spaces, n, D, STRATEGY, rngs)
        with _pinned_backend(name), _pinned_threads(max(THREAD_COUNTS)):
            rngs = [np.random.default_rng(k) for k in range(trials)]
            fused_mt, _ = run_fused(spaces, n, D, STRATEGY, rngs)
        if not np.array_equal(fused, fused_mt):
            raise AssertionError(
                f"threaded fused run diverges from serial under backend "
                f"{name!r} at n={n} — bit-identity broken, refusing to "
                "emit benchmark numbers"
            )
        if reference is None:
            reference = fused
            for k in range(trials):
                sequential, _ = run_sequential(spaces[k], n, D, STRATEGY,
                                               np.random.default_rng(k))
                if not np.array_equal(fused[k], sequential):
                    raise AssertionError(
                        f"fused/sequential divergence at n={n}, trial {k} — "
                        "bit-identity broken, refusing to emit benchmark "
                        "numbers"
                    )
        elif not np.array_equal(reference, fused):
            raise AssertionError(
                f"kernel backend {name!r} diverges from numpy at n={n} — "
                "bit-identity broken, refusing to emit benchmark numbers"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="small sizes, 1 repeat (CI smoke mode)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed runs per engine (best kept); "
                             "default 3, or 1 with --fast")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_engine.json",
                        help="output path (default: repo-root BENCH_engine.json)")
    args = parser.parse_args(argv)
    repeats = args.repeats or (1 if args.fast else 3)
    cells = FAST_CELLS if args.fast else FULL_CELLS

    backends = ["numpy"] + [
        name for name, ok in available_backends().items()
        if ok and name != "numpy"
    ]
    print(f"kernel backends measured: {', '.join(backends)}")
    _cross_check(cells[0][0], min(8, cells[0][1]), backends)
    results = []
    for n, trials, sequential_balls in cells:
        cell = _measure_cell(n, trials, sequential_balls, repeats, backends)
        results.append(cell)
        f = cell["engines"]
        print(
            f"n=2^{n.bit_length() - 1}: fused {f['fused']['balls_per_s']:,.0f} "
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

    payload = {
        "benchmark": "engine_throughput",
        "version": __version__,
        "mode": "fast" if args.fast else "full",
        "space": "ring",
        "d": D,
        "strategy": STRATEGY.value,
        "repeats": repeats,
        "kernel_backends": backends,
        "note": (
            "throughputs are balls/s and trial-count independent; engines "
            "place different ball counts per cell (see trials/"
            "sequential_balls). 'backends' rows rerun the "
            "fused engine under each kernel backend, REPRO_KERNEL_BACKEND "
            "pinned; 'engines' rows are pure numpy. Both are measured at "
            "REPRO_NUM_THREADS=1; 'threads' rows sweep the thread count "
            "per backend (parallel_efficiency = speedup / threads — "
            "interpret against manifest.cpu, a 4-thread row on a 1-core "
            "host cannot exceed efficiency ~0.25)."
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
