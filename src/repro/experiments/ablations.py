"""Ablations for the paper's remarks and design choices.

Five sweeps the paper discusses but does not tabulate:

* ``tiebreak_sweep`` — Table 3's strategies at d in {2, 3}: does the
  smaller-arc advantage persist with more choices?
* ``mn_sweep`` — the ``m != n`` remark: max load as m/n grows should be
  ``O(m/n) + O(log log n)``, i.e. linear in m/n with a tiny intercept.
* ``dimension_sweep`` — the higher-dimension remark: tori of dimension
  1-3 behave alike under d = 2.
* ``geometry_sweep`` — bin geometries head-to-head (uniform, ring,
  torus, CAN dyadic zones) probing the conclusion's non-uniformity
  question.
* ``staleness_sweep`` — parallel arrivals in rounds: how stale may
  load information get before two choices stop helping?

Every sweep submits its cells through :mod:`repro.sweeps`, so re-runs
with unchanged parameters are served from the result cache (pass
``cache="off"`` to force recomputation).  ``run_cell`` cells are
seeded by :func:`repro.stats.trials.cell_seed`, so a cell the tables
or another ablation already ran (Table 3's strategies at d = 2, m = n
in ``mn_sweep``, Table 2's tori) is a cache hit.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentReport
from repro.experiments.table3 import STRATEGIES
from repro.stats.trials import CellSpec, cell_seed
from repro.sweeps.runner import fetch_or_compute, resolve_cache, submit_cell
from repro.utils.rng import stable_hash_seed

__all__ = [
    "tiebreak_sweep",
    "mn_sweep",
    "dimension_sweep",
    "geometry_sweep",
    "staleness_sweep",
]


def staleness_sweep(
    *,
    n: int = 2**11,
    round_sizes=(1, 16, 256, None),
    d_values=(2,),
    trials: int = 30,
    seed: int = 20030206,
    cache="auto",
) -> ExperimentReport:
    """Parallel-arrival ablation: max load vs round size (stale loads).

    ``None`` in ``round_sizes`` means one fully parallel round of all
    ``n`` balls.  The systems question behind the paper\'s IPTPS
    companion: how fresh must load information be for two choices to
    keep working?  (Answer measured here: rounds up to ~n/8 cost
    almost nothing.)
    """
    import numpy as np

    from repro.core.ring import RingSpace
    from repro.core.rounds import place_balls_in_rounds
    from repro.stats.distributions import MaxLoadDistribution
    from repro.utils.rng import spawn_seed_sequences

    store = resolve_cache(cache)
    cells = {}
    resolved = [n if b is None else int(b) for b in round_sizes]
    for b in resolved:
        for d in d_values:
            stale_seed = stable_hash_seed("abl-stale", seed, n, b, d)

            def compute(b=b, d=d, stale_seed=stale_seed) -> MaxLoadDistribution:
                maxima = []
                for ss in spawn_seed_sequences(stale_seed, trials):
                    rng = np.random.default_rng(ss)
                    space = RingSpace.random(n, seed=rng)
                    loads = place_balls_in_rounds(
                        space, n, d, round_size=b, seed=rng
                    )
                    maxima.append(int(loads.max()))
                return MaxLoadDistribution.from_samples(maxima)

            spec_dict = {
                "kind": "ablation_staleness",
                "n": n,
                "round_size": b,
                "d": d,
                "trials": trials,
                "seed": stale_seed,
            }
            cells[(b, d)] = fetch_or_compute(spec_dict, compute, cache=store)
    return ExperimentReport(
        name="ablation_staleness",
        title=f"Ablation: parallel-arrival round size (ring, n = m = {n})",
        cells=cells,
        row_keys=resolved,
        col_keys=list(d_values),
        col_label=lambda d: f"d = {d}",
        row_label=lambda b: f"b={b}",
        meta={"n": n, "trials": trials, "seed": seed},
    )


def geometry_sweep(
    *,
    n: int = 2**10,
    d_values=(1, 2, 3),
    trials: int = 50,
    seed: int = 20030206,
    cache="auto",
) -> ExperimentReport:
    """Bin geometries head-to-head: uniform vs ring vs torus vs CAN.

    CAN zones (dyadic volumes from repeated halving) are the most
    skewed geometry in the package — region sizes span several octaves
    — so this sweep probes the conclusion's question of "how much
    non-uniformity the two-choice paradigm can stand".  ``d = 1`` shows
    the geometry-dependent imbalance; ``d >= 2`` should flatten all
    rows to the same few values.  The uniform, ring and torus rows are
    :func:`~repro.stats.trials.run_cell` cells; CAN zones, which no cell
    kind draws, place trial by trial from per-trial seeds.
    """
    import numpy as np

    from repro.core.placement import place_balls
    from repro.dht.can import CanSpace
    from repro.stats.distributions import MaxLoadDistribution
    from repro.utils.rng import spawn_seed_sequences

    store = resolve_cache(cache)
    cells = {}
    for kind in ("uniform", "ring", "torus"):
        for d in d_values:
            spec = CellSpec(kind, n, d)
            cells[(kind, d)] = submit_cell(spec, trials, cell_seed(spec, seed),
                                           cache=store)
    for d in d_values:
        can_seed = stable_hash_seed("abl-geom", seed, n, "can", d)

        def compute(d=d, can_seed=can_seed) -> MaxLoadDistribution:
            maxima = []
            for ss in spawn_seed_sequences(can_seed, trials):
                rng = np.random.default_rng(ss)
                space = CanSpace.random(n, seed=rng)
                maxima.append(place_balls(space, n, d, seed=rng).max_load)
            return MaxLoadDistribution.from_samples(maxima)

        spec_dict = {
            "kind": "ablation_geometry",
            "n": n,
            "geometry": "can",
            "d": d,
            "trials": trials,
            "seed": can_seed,
        }
        cells[("can", d)] = fetch_or_compute(spec_dict, compute, cache=store)
    return ExperimentReport(
        name="ablation_geometry",
        title=f"Ablation: bin geometry x d (n = m = {n})",
        cells=cells,
        row_keys=["uniform", "ring", "torus", "can"],
        col_keys=list(d_values),
        col_label=lambda d: f"d = {d}",
        row_label=str,
        meta={"n": n, "trials": trials, "seed": seed},
    )


def tiebreak_sweep(
    *,
    n: int = 2**12,
    d_values=(2, 3),
    trials: int = 100,
    seed: int = 20030206,
    threads=None,
    cache="auto",
) -> ExperimentReport:
    """Strategies x d grid at fixed n."""
    store = resolve_cache(cache)
    cells = {}
    for d in d_values:
        for name, (tiebreak, partitioned) in STRATEGIES.items():
            spec = CellSpec("ring", n, d, strategy=tiebreak, partitioned=partitioned)
            cells[(d, name)] = submit_cell(
                spec, trials, cell_seed(spec, seed), cache=store, threads=threads
            )
    return ExperimentReport(
        name="ablation_tiebreak",
        title=f"Ablation: tie-breaking strategies x d (ring, n = {n}, m = n)",
        cells=cells,
        row_keys=list(d_values),
        col_keys=list(STRATEGIES),
        col_label=str,
        row_label=lambda d: f"d={d}",
        meta={"n": n, "trials": trials, "seed": seed},
    )


def mn_sweep(
    *,
    n: int = 2**12,
    ratios=(1, 2, 4, 8),
    d_values=(1, 2),
    trials: int = 50,
    seed: int = 20030206,
    threads=None,
    cache="auto",
) -> ExperimentReport:
    """Max load vs m/n (the heavily loaded remark)."""
    store = resolve_cache(cache)
    cells = {}
    for r in ratios:
        for d in d_values:
            spec = CellSpec("ring", n, d, m=r * n)
            cells[(r, d)] = submit_cell(
                spec, trials, cell_seed(spec, seed), cache=store, threads=threads
            )
    return ExperimentReport(
        name="ablation_mn",
        title=f"Ablation: max load vs m/n (ring, n = {n})",
        cells=cells,
        row_keys=list(ratios),
        col_keys=list(d_values),
        col_label=lambda d: f"d = {d}",
        row_label=lambda r: f"m={r}n",
        meta={"n": n, "trials": trials, "seed": seed},
    )


def dimension_sweep(
    *,
    n: int = 2**10,
    dims=(1, 2, 3),
    d_values=(1, 2),
    trials: int = 50,
    seed: int = 20030206,
    threads=None,
    cache="auto",
) -> ExperimentReport:
    """Torus dimension sweep (the higher-dimension remark)."""
    store = resolve_cache(cache)
    cells = {}
    for dim in dims:
        for d in d_values:
            spec = CellSpec("torus", n, d, dim=dim)
            cells[(dim, d)] = submit_cell(
                spec, trials, cell_seed(spec, seed), cache=store, threads=threads
            )
    return ExperimentReport(
        name="ablation_dim",
        title=f"Ablation: torus dimension (n = {n}, m = n)",
        cells=cells,
        row_keys=list(dims),
        col_keys=list(d_values),
        col_label=lambda d: f"d = {d}",
        row_label=lambda k: f"k={k}",
        meta={"n": n, "trials": trials, "seed": seed},
    )
