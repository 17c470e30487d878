#!/usr/bin/env python
"""Serving-tier throughput emitter: writes the tracked ``BENCH_serve.json``.

Measures the online placement service (:mod:`repro.serve`) under its
target workload: a standing population of ``2**20`` keys on a
``2**16``-bin ring, then a Zipf-skewed steady-state stream (80%
lookups over a ``s = 1.1`` popularity law, 20% FIFO churn pairs) —
the DHT serving regime.  Each cell replays the *same* op stream
through a fresh server at one ``(kernel backend, micro-batch size)``
point and records sustained ops/s plus per-op decision-latency
p50/p95/p99 from the server's own block-level recorder (client-side
stream generation is excluded: the workload is materialized up front
by :func:`repro.serve.workload.zipf_replay_ops`).

Protocol notes (what makes the numbers comparable):

* every cell replays identical warm-up + op streams from one seed, so
  final load vectors must be bit-identical across all cells — checked
  before anything is emitted, and the blake2b digest is recorded;
* warm-up (populating the ``2**20`` keys) always runs micro-batched
  and is excluded from the timed stream via
  :meth:`~repro.serve.server.PlacementServer.reset_latency`;
* ``REPRO_KERNEL_BACKEND`` / ``REPRO_NUM_THREADS=1`` are pinned per
  measurement (same discipline as ``benchmarks/run_benchmarks.py``);
* each cell runs ``--repeats`` full passes (default 5; a fresh server
  each time — the stream is stateful) and records the median pass (the
  upper middle one for an even count) with the min and max ops/s, so a
  row shows its spread;
* ``speedup_over_batch1`` compares each batched cell against the
  batch=1 cell of the *same backend* — the micro-batching win the
  serving tier exists for.

Usage::

    PYTHONPATH=src python benchmarks/run_serve_benchmarks.py          # full
    PYTHONPATH=src python benchmarks/run_serve_benchmarks.py --fast   # CI smoke
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro._version import __version__
from repro.core.ring import RingSpace
from repro.kernels import available_backends
from repro.obs.manifest import run_manifest
from repro.serve import OP_INSERT, PlacementServer, zipf_replay_ops

D = 2
STRATEGY = "random"
SEED = 20040627  # SPAA'04
LOOKUP_FRACTION = 0.8
ZIPF_EXPONENT = 1.1
BATCH_SIZES = (1, 4096)
WARM_BATCH = 4096

#: (n_bins, standing_keys, steady_ops) for the measured grid.
FULL_SCALE = (1 << 16, 1 << 20, 1 << 18)
FAST_SCALE = (1 << 10, 1 << 13, 1 << 13)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run_benchmarks import _pinned_backend, _pinned_threads  # noqa: E402


def _build_streams(n, keys, ops):
    """(space, warm-up kinds/args, steady kinds/args) — shared by all cells."""
    space = RingSpace.random(n, seed=SEED)
    warm_kinds = np.full(keys, OP_INSERT, dtype=np.int8)
    warm_args = np.arange(keys, dtype=np.int64)
    kinds, args = zipf_replay_ops(
        keys,
        ops,
        lookup_fraction=LOOKUP_FRACTION,
        exponent=ZIPF_EXPONENT,
        seed=SEED + 1,
    )
    return space, warm_kinds, warm_args, kinds, args


def _run_once(space, warm, steady, backend, batch):
    """One full pass: warm-up (untimed) + steady stream (timed)."""
    warm_kinds, warm_args = warm
    kinds, args = steady
    with _pinned_backend(backend), _pinned_threads(1):
        server = PlacementServer(
            space, D, strategy=STRATEGY, seed=SEED + 2, max_batch=WARM_BATCH
        )
        server.submit_ids(warm_kinds, warm_args)
        server.max_batch = batch  # the knob under measurement
        server.reset_latency()
        server.submit_ids(kinds, args)
    return server.latency_stats(), server.loads.copy()


def _cell(space, warm, steady, backend, batch, repeats):
    runs, loads = [], None
    for _ in range(repeats):
        stats, run_loads = _run_once(space, warm, steady, backend, batch)
        if loads is not None and not np.array_equal(loads, run_loads):
            raise AssertionError(
                "repeat runs diverged — bit-identity broken, refusing to "
                "emit benchmark numbers"
            )
        loads = run_loads
        runs.append(stats)
    runs.sort(key=lambda stats: stats.ops_per_s)
    med = runs[len(runs) // 2]
    row = {
        "backend": backend,
        "max_batch": batch,
        "ops": med.count,
        "seconds": round(med.total_s, 4),
        "ops_per_s": round(med.ops_per_s, 1),
        "ops_per_s_min": round(runs[0].ops_per_s, 1),
        "ops_per_s_max": round(runs[-1].ops_per_s, 1),
        "mean_us": round(med.mean_s * 1e6, 3),
        "p50_us": round(med.p50_s * 1e6, 3),
        "p95_us": round(med.p95_s * 1e6, 3),
        "p99_us": round(med.p99_s * 1e6, 3),
        "max_us": round(med.max_s * 1e6, 3),
    }
    return row, loads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="small sizes, 1 repeat (CI smoke mode)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="full passes per cell (median kept, with the "
                             "min and max ops/s); default 5, or 1 with --fast")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_serve.json",
                        help="output path (default: repo-root BENCH_serve.json)")
    args = parser.parse_args(argv)
    repeats = args.repeats or (1 if args.fast else 5)
    n, keys, ops = FAST_SCALE if args.fast else FULL_SCALE

    backends = ["numpy"] + [
        name for name, ok in available_backends().items()
        if ok and name != "numpy"
    ]
    print(f"kernel backends measured: {', '.join(backends)}")
    print(f"n=2^{n.bit_length() - 1} bins, {keys:,} standing keys, "
          f"{ops:,} steady-state ops ({LOOKUP_FRACTION:.0%} Zipf lookups)")
    space, warm_kinds, warm_args, kinds, args_arr = _build_streams(n, keys, ops)
    print(f"steady stream expands to {kinds.size:,} events")

    cells = []
    reference_loads = None
    for backend in backends:
        base_ops_per_s = None
        for batch in BATCH_SIZES:
            row, loads = _cell(
                space, (warm_kinds, warm_args), (kinds, args_arr),
                backend, batch, repeats,
            )
            if reference_loads is None:
                reference_loads = loads
            elif not np.array_equal(reference_loads, loads):
                raise AssertionError(
                    f"cell ({backend}, batch={batch}) diverged from the "
                    "reference loads — bit-identity broken, refusing to "
                    "emit benchmark numbers"
                )
            if base_ops_per_s is None:
                base_ops_per_s = row["ops_per_s"]
            row["speedup_over_batch1"] = round(
                row["ops_per_s"] / base_ops_per_s, 2
            )
            cells.append(row)
            print(
                f"  {backend:>6} batch={batch:<5} {row['ops_per_s']:>12,.0f} ops/s "
                f"[{row['ops_per_s_min']:,.0f}–{row['ops_per_s_max']:,.0f}]  "
                f"p50={row['p50_us']}us p95={row['p95_us']}us "
                f"p99={row['p99_us']}us  ({row['speedup_over_batch1']}x over "
                f"batch=1)"
            )

    payload = {
        "benchmark": "serve_throughput",
        "version": __version__,
        "mode": "fast" if args.fast else "full",
        "space": "ring",
        "d": D,
        "strategy": STRATEGY,
        "seed": SEED,
        "n": n,
        "keys": keys,
        "steady_ops": ops,
        "events": int(kinds.size),
        "lookup_fraction": LOOKUP_FRACTION,
        "zipf_exponent": ZIPF_EXPONENT,
        "batch_sizes": list(BATCH_SIZES),
        "kernel_backends": backends,
        "repeats": repeats,
        "note": (
            "ops/s and per-op decision latency measured inside the submit "
            "path of PlacementServer.submit_ids (workload generation "
            "excluded); every cell replays the identical warm-up + "
            "Zipf/FIFO-churn stream, final loads cross-checked "
            "bit-identical (loads_blake2b). Each cell is the median of "
            "`repeats` passes, with their min and max ops/s. "
            "speedup_over_batch1 is against the same backend's batch=1 "
            "cell at REPRO_NUM_THREADS=1."
        ),
        "loads_blake2b": hashlib.blake2b(
            reference_loads.tobytes(), digest_size=16
        ).hexdigest(),
        "unix_time": int(time.time()),
        "manifest": run_manifest(),
        "cells": cells,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
