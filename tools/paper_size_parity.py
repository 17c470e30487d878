#!/usr/bin/env python
"""Paper-size parity: the ``space_trials`` kernel against the numpy
reference on the paper's largest cells.

The parity tests stop at a 2¹⁶ ring and a 2¹⁴ torus, where a trial walks
one RNG block; the paper's tables reach a 2²⁴ ring (256 blocks, about
160 MB of kernel scratch per worker, read at random) and a 2²⁰ torus.
This script runs those configurations, ``n = m``:

* rings at ``n = 2**24``: d = 1-4 with the random tie-break, plus d = 2
  with ``larger``, ``smaller`` and ``first`` partitioned (Table 3's
  arc-left);
* tori at ``n = 2**20``: d = 1-4 random, plus d = 2 ``first``.

Each configuration's trials first run on the reference path of
``run_random_spaces(..., backend="numpy")``: ``RingSpace.random`` /
``TorusSpace.random`` and ``run_fused(..., backend="numpy")``, numpy's
generator and decisions, whose spaces look candidates up through the
default backend's ``ring_assign`` and torus grid (those lookups are
checked against ``searchsorted`` and cKDTree in ``tests/kernels``).
That gives each trial's per-server loads and final generator state.
Then the kernel runs:

* every trial through ``run_random_spaces`` at two threads: its load
  histograms must equal those of the reference loads
  (:func:`repro.core.loads.load_histogram`), zero-padded to the widest;
* the first trial through the ``space_trials`` wrapper at one thread,
  with a ``loads`` output: each server's load must equal the
  reference's.

Final generator states must equal the reference's after both.  Any
difference exits 1; each configuration prints one line::

    PYTHONPATH=src python tools/paper_size_parity.py

It takes about three minutes on two cores and a peak resident set under
1 GB: one reference space at a time and two trials' int64 loads (256 MB
at 2²⁴).  For a quick probe at small sizes, call :func:`check` from a
Python shell, e.g. ``check("ring", 1 << 16, 2, "random", False, 2)``.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from repro.core.engine import DEFAULT_RNG_BLOCK
from repro.core.loads import load_histogram
from repro.core.multitrial import run_fused, run_random_spaces
from repro.core.ring import RingSpace
from repro.core.strategies import TieBreak
from repro.core.torus import TorusSpace
from repro.kernels import STRATEGY_CODES, get_backend

#: Trials per configuration, and the servers of its rings and tori
TRIALS = 2
RING_N = 1 << 24
TORUS_N = 1 << 20

#: (space, d, strategy, partitioned) of every configuration checked
CONFIGS = [
    *(("ring", d, "random", False) for d in (1, 2, 3, 4)),
    ("ring", 2, "larger", False),
    ("ring", 2, "smaller", False),
    ("ring", 2, "first", True),
    *(("torus", d, "random", False) for d in (1, 2, 3, 4)),
    ("torus", 2, "first", False),
]


def _generators(space: str, d: int, trials: int) -> list[np.random.Generator]:
    """The configuration's trial generators, fresh each time."""
    key = ["ring", "torus"].index(space)
    return [np.random.default_rng([key, d, k]) for k in range(trials)]


def _reference(space, n, d, strategy, partitioned, trials):
    """The first trial's loads, each trial's load histogram (zero-padded
    to the widest) and final generator state on the numpy path."""
    build = RingSpace.random if space == "ring" else TorusSpace.random
    first, hists, states = None, [], []
    for rng in _generators(space, d, trials):
        row, _ = run_fused([build(n, seed=rng)], n, d, strategy, [rng],
                           partitioned=partitioned, backend="numpy")
        first = row[0] if first is None else first
        hists.append(load_histogram(row[0]))
        states.append(rng.bit_generator.state)
    width = max(h.size for h in hists)
    hist = np.array([np.pad(h, (0, width - h.size)) for h in hists])
    return first, hist, states


def check(space, n, d, strategy, partitioned, trials) -> list[str]:
    """The differences between cext and the reference for one
    configuration, as messages (none when they agree)."""
    strategy = TieBreak.coerce(strategy)
    first_loads, ref_hist, ref_states = _reference(space, n, d, strategy,
                                                   partitioned, trials)
    problems = []

    rngs = _generators(space, d, trials)
    hist, _ = run_random_spaces(space, n, n, d, strategy, rngs,
                                partitioned=partitioned, backend="cext",
                                threads=2)
    if not np.array_equal(hist, ref_hist):
        problems.append("threads=2: histograms differ")
    if [r.bit_generator.state for r in rngs] != ref_states:
        problems.append("threads=2: generator states differ")

    rngs = _generators(space, d, 1)
    loads = np.zeros((1, n), dtype=np.int64)
    built = get_backend("cext").space_trials(
        [r.bit_generator for r in rngs], None, None, loads, None, n, d,
        STRATEGY_CODES[strategy.value], partitioned, DEFAULT_RNG_BLOCK, 1,
        space=space,
    )
    if built is not True:
        problems.append("threads=1: the kernel did not run the trial")
    elif not np.array_equal(loads[0], first_loads):
        problems.append("threads=1: loads differ")
    elif rngs[0].bit_generator.state != ref_states[0]:
        problems.append("threads=1: generator state differs")
    return problems


def main() -> int:
    """Check every configuration; print one line each, exit 1 on a
    difference."""
    # both would outrank the backends and thread counts checked here
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    os.environ.pop("REPRO_NUM_THREADS", None)
    if get_backend("cext").space_trials is None:
        print("no compiled space_trials kernel on this machine")
        return 1
    failed = 0
    for space, d, strategy, partitioned in CONFIGS:
        n = RING_N if space == "ring" else TORUS_N
        start = time.perf_counter()
        problems = check(space, n, d, strategy, partitioned, TRIALS)
        label = (f"{space} n={n} d={d} {strategy}"
                 + (" partitioned" if partitioned else ""))
        status = "; ".join(problems) if problems else "ok"
        print(f"{label}: {status} ({time.perf_counter() - start:.1f} s)",
              flush=True)
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
