"""Table 2: maximum load with random Voronoi cells on the torus (m = n).

Same protocol as Table 1 but servers live on the unit 2-torus and bins
are their Voronoi cells; the paper sweeps ``n`` up to ``2^20``.  Like
Table 1, the table is one sweep grid, so ``sweep run space=torus ...``
shards compute its cells.
"""

from __future__ import annotations

import time

from repro.experiments.report import ExperimentReport
from repro.sweeps.grid import SweepGrid
from repro.sweeps.runner import run_sweep

__all__ = ["run", "DEFAULT_N_VALUES", "FULL_N_VALUES", "D_VALUES"]

DEFAULT_N_VALUES = (2**8, 2**12, 2**14)
FULL_N_VALUES = (2**8, 2**12, 2**16, 2**20)
D_VALUES = (1, 2, 3, 4)


def run(
    *,
    trials: int = 100,
    n_values=None,
    d_values=D_VALUES,
    seed: int = 20030206,
    threads=None,
    cache="auto",
    full: bool = False,
    dim: int = 2,
) -> ExperimentReport:
    """Regenerate Table 2 (scaled by default; ``full=True`` for paper scale).

    ``dim`` other than 2 exercises the paper's higher-dimension remark.
    Kernel ``threads`` are forwarded to
    :func:`repro.stats.trials.run_cell_hists`; cells are cached through
    the sweep layer (``cache`` as in
    :func:`repro.sweeps.runner.resolve_cache`).
    """
    if n_values is None:
        n_values = FULL_N_VALUES if full else DEFAULT_N_VALUES
    grid = SweepGrid(space="torus", n=n_values, d=d_values, dim=dim,
                     trials=trials, seed=seed, name="table2")
    start = time.perf_counter()
    result = run_sweep(grid, cache=cache, threads=threads)
    report = result.to_report(
        title=(
            "Table 2: experimental maximum load with random torus "
            f"polygons (m = n, dim = {dim})"
        )
    )
    report.meta.update(dim=dim, seconds=round(time.perf_counter() - start, 2))
    return report
