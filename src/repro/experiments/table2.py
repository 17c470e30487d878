"""Table 2: maximum load with random Voronoi cells on the torus (m = n).

Same protocol as Table 1 but servers live on the unit 2-torus and bins
are their Voronoi cells; the paper sweeps ``n`` up to ``2^20``.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentReport
from repro.stats.trials import CellSpec
from repro.sweeps.runner import resolve_cache, submit_cell
from repro.utils.rng import stable_hash_seed
from repro.utils.timing import Stopwatch

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
    backend=None,
    threads=None,
    cache="auto",
    full: bool = False,
    dim: int = 2,
) -> ExperimentReport:
    """Regenerate Table 2 (scaled by default; ``full=True`` for paper scale).

    ``dim`` other than 2 exercises the paper's higher-dimension remark
    (used by the ablation driver).  Kernel ``backend`` and ``threads``
    are forwarded to :func:`repro.stats.trials.run_cell`; cells are cached through the
    sweep layer (``cache`` as in
    :func:`repro.sweeps.runner.resolve_cache`).
    """
    if n_values is None:
        n_values = FULL_N_VALUES if full else DEFAULT_N_VALUES
    store = resolve_cache(cache)
    sw = Stopwatch()
    cells = {}
    for n in n_values:
        for d in d_values:
            spec = CellSpec("torus", n, d, dim=dim)
            with sw.lap(f"n={n} d={d}"):
                cells[(n, d)] = submit_cell(
                    spec,
                    trials,
                    seed=stable_hash_seed("table2", seed, n, d, dim),
                    backend=backend,
                    threads=threads,
                    cache=store,
                )
    return ExperimentReport(
        name="table2",
        title=(
            "Table 2: experimental maximum load with random torus "
            f"polygons (m = n, dim = {dim})"
        ),
        cells=cells,
        row_keys=list(n_values),
        col_keys=list(d_values),
        col_label=lambda d: f"d = {d}",
        meta={
            "trials": trials,
            "seed": seed,
            "dim": dim,
            "seconds": round(sw.total, 2),
        },
    )
