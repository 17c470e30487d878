"""Table 1: maximum load with random arcs on the ring (m = n).

The paper sweeps ``n in {2^8, 2^12, 2^16, 2^20, 2^24}`` and
``d in {1, 2, 3, 4}`` with 1000 trials per cell and random tie-breaking.
Full scale is ~2e10 sequential ball placements; the default here runs
every ``d`` at the three smaller ``n`` with 100 trials (a laptop-scale
faithful slice — the paper's qualitative claims are already decided at
these sizes), and the full sweep is ``run(full=True, trials=1000)``.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentReport
from repro.stats.trials import CellSpec
from repro.sweeps.runner import resolve_cache, submit_cell
from repro.utils.rng import stable_hash_seed
from repro.utils.timing import Stopwatch

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
    backend=None,
    threads=None,
    cache="auto",
    full: bool = False,
) -> ExperimentReport:
    """Regenerate Table 1 (scaled by default; ``full=True`` for paper scale).

    Kernel ``backend`` and ``threads`` are forwarded to
    :func:`repro.stats.trials.run_cell`.  Cells run through the sweep layer's result cache (``cache`` as in
    :func:`repro.sweeps.runner.resolve_cache`), so an identical re-run
    is served from disk; pass ``cache="off"`` to force recomputation.
    """
    if n_values is None:
        n_values = FULL_N_VALUES if full else DEFAULT_N_VALUES
    store = resolve_cache(cache)
    sw = Stopwatch()
    cells = {}
    for n in n_values:
        for d in d_values:
            spec = CellSpec("ring", n, d)
            with sw.lap(f"n={n} d={d}"):
                cells[(n, d)] = submit_cell(
                    spec,
                    trials,
                    seed=stable_hash_seed("table1", seed, n, d),
                    backend=backend,
                    threads=threads,
                    cache=store,
                )
    return ExperimentReport(
        name="table1",
        title="Table 1: experimental maximum load with random arcs (m = n)",
        cells=cells,
        row_keys=list(n_values),
        col_keys=list(d_values),
        col_label=lambda d: f"d = {d}",
        meta={
            "trials": trials,
            "seed": seed,
            "seconds": round(sw.total, 2),
        },
    )
