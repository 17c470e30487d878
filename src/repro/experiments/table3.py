"""Table 3: tie-breaking strategies on the ring at d = 2 (m = n).

The four columns, as this reproduction reads the paper's strategies:

* ``arc-larger`` — uniform choices, ties to the longer arc,
* ``arc-random`` — uniform choices, ties uniform (Theorem 1's model;
  shared with Table 1's d = 2 column),
* ``arc-left`` — Vöcking's Always-Go-Left: partitioned interval
  choices, ties to the lowest interval,
* ``arc-smaller`` — uniform choices, ties to the shorter arc (the
  paper's own heuristic; empirically the best).

Arc-left is not a value on one cartesian axis, so the table keeps its
own loop; its cells are seeded like every other
(:func:`repro.stats.trials.cell_seed`), so the arc-random column is
Table 1's d = 2 column, cached once for both.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentReport
from repro.stats.trials import CellSpec, cell_seed
from repro.sweeps.runner import resolve_cache, submit_cell
from repro.utils.timing import Stopwatch

__all__ = ["run", "STRATEGIES", "DEFAULT_N_VALUES", "FULL_N_VALUES"]

#: column name -> (TieBreak value, partitioned sampling?)
STRATEGIES: dict[str, tuple[str, bool]] = {
    "arc-larger": ("larger", False),
    "arc-random": ("random", False),
    "arc-left": ("first", True),
    "arc-smaller": ("smaller", False),
}

DEFAULT_N_VALUES = (2**8, 2**12, 2**16)
FULL_N_VALUES = (2**8, 2**12, 2**16, 2**20, 2**24)


def run(
    *,
    trials: int = 100,
    n_values=None,
    strategies=None,
    d: int = 2,
    seed: int = 20030206,
    threads=None,
    cache="auto",
    full: bool = False,
) -> ExperimentReport:
    """Regenerate Table 3 (scaled by default; ``full=True`` for paper scale).

    Kernel ``threads`` are forwarded to
    :func:`repro.stats.trials.run_cell_hists`; cells are cached through
    the sweep layer (``cache`` as in
    :func:`repro.sweeps.runner.resolve_cache`).
    """
    if n_values is None:
        n_values = FULL_N_VALUES if full else DEFAULT_N_VALUES
    if strategies is None:
        strategies = list(STRATEGIES)
    unknown = set(strategies) - set(STRATEGIES)
    if unknown:
        raise ValueError(f"unknown strategies {sorted(unknown)}")
    store = resolve_cache(cache)
    sw = Stopwatch()
    cells = {}
    for n in n_values:
        for name in strategies:
            tiebreak, partitioned = STRATEGIES[name]
            spec = CellSpec(
                "ring", n, d, strategy=tiebreak, partitioned=partitioned
            )
            with sw.lap(f"n={n} {name}"):
                cells[(n, name)] = submit_cell(
                    spec, trials, cell_seed(spec, seed), cache=store,
                    threads=threads,
                )
    return ExperimentReport(
        name="table3",
        title=(
            "Table 3: experimental maximum load varying strategies for "
            f"random arcs with d = {d} (m = n)"
        ),
        cells=cells,
        row_keys=list(n_values),
        col_keys=list(strategies),
        col_label=str,
        meta={"trials": trials, "seed": seed, "d": d, "seconds": round(sw.total, 2)},
    )
