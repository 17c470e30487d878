"""Table 1: maximum load with random arcs on the ring (m = n).

The paper sweeps ``n in {2^8, 2^12, 2^16, 2^20, 2^24}`` and
``d in {1, 2, 3, 4}`` with 1000 trials per cell and random tie-breaking.
Full scale is ~2e10 sequential ball placements; the default here runs
every ``d`` at the three smaller ``n`` with 100 trials (a laptop-scale
faithful slice — the paper's qualitative claims are already decided at
these sizes), and the full sweep is ``run(full=True, trials=1000)``.

The table is one sweep grid (:func:`repro.sweeps.runner.run_sweep`),
so ``sweep run space=ring n=... d=1,2,3,4`` shards at the same master
seed and trials compute exactly its cells (``docs/sweeps.md``).
"""

from __future__ import annotations

import time

from repro.experiments.report import ExperimentReport
from repro.sweeps.grid import SweepGrid
from repro.sweeps.runner import run_sweep

__all__ = ["run", "DEFAULT_N_VALUES", "FULL_N_VALUES", "D_VALUES"]

DEFAULT_N_VALUES = (2**8, 2**12, 2**16)
FULL_N_VALUES = (2**8, 2**12, 2**16, 2**20, 2**24)
D_VALUES = (1, 2, 3, 4)


def run(
    *,
    trials: int = 100,
    n_values=None,
    d_values=D_VALUES,
    seed: int = 20030206,  # the TR's publication date
    threads=None,
    cache="auto",
    full: bool = False,
) -> ExperimentReport:
    """Regenerate Table 1 (scaled by default; ``full=True`` for paper scale).

    Kernel ``threads`` are forwarded to
    :func:`repro.stats.trials.run_cell_hists`.  Cells run through the
    sweep layer's result cache (``cache`` as in
    :func:`repro.sweeps.runner.resolve_cache`), so an identical re-run
    is served from disk; pass ``cache="off"`` to force recomputation.
    """
    if n_values is None:
        n_values = FULL_N_VALUES if full else DEFAULT_N_VALUES
    grid = SweepGrid(space="ring", n=n_values, d=d_values, trials=trials,
                     seed=seed, name="table1")
    start = time.perf_counter()
    result = run_sweep(grid, cache=cache, threads=threads)
    report = result.to_report(
        title="Table 1: experimental maximum load with random arcs (m = n)"
    )
    report.meta["seconds"] = round(time.perf_counter() - start, 2)
    return report
