"""Round-based (parallel-arrival) d-choice placement.

In a real distributed system items do not arrive one at a time: a
*round* of ``b`` items is inserted concurrently, each seeing the loads
as of the round start (stale information).  This is the classical
parallel balls-into-bins relaxation; theory for the uniform case says
staleness costs only O(1) extra load for round sizes up to Θ(n), and
the `ablation_staleness` sweep measures the same resilience on the
geometric spaces — evidence for deploying the paper's scheme with
batched, asynchronous inserts (the systems concern behind its IPTPS
companion).

Unlike the fused engine (which is an *exact reorganization* of the
sequential process), this is a genuinely different process: decisions
within a round are made against the stale snapshot, and all increments
commit at the round boundary.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import choice_blocks
from repro.core.loads import max_load
from repro.core.spaces import GeometricSpace
from repro.core.strategies import TieBreak, decide_rows, strategy_needs_measures
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = ["place_balls_in_rounds"]


def place_balls_in_rounds(
    space: GeometricSpace,
    m: int,
    d: int = 2,
    *,
    round_size: int,
    strategy: TieBreak | str = TieBreak.RANDOM,
    partitioned: bool = False,
    seed=None,
) -> np.ndarray:
    """Place ``m`` balls in rounds of ``round_size`` with stale loads.

    Every ball in a round draws its ``d`` candidates and decides
    against the load vector frozen at the round start; ties use the
    shared tie-break kernels.  ``round_size = 1`` recovers the exact
    sequential process (asserted by tests); ``round_size = m`` is the
    fully parallel one-shot assignment.

    Returns the final load vector.

    Examples
    --------
    >>> from repro.core import RingSpace
    >>> ring = RingSpace.random(256, seed=0)
    >>> loads = place_balls_in_rounds(ring, 256, 2, round_size=64, seed=1)
    >>> int(loads.sum())
    256
    """
    m = check_non_negative_int(m, "m")
    d = check_positive_int(d, "d")
    round_size = check_positive_int(round_size, "round_size")
    strat = TieBreak.coerce(strategy)
    rng = resolve_rng(seed)
    loads = np.zeros(space.n, dtype=np.int64)
    measures = space.region_measures() if strategy_needs_measures(strat) else None
    for cand, tiebreaks in choice_blocks(
        space, rng, m, d, partitioned=partitioned, rng_block=round_size
    ):
        cand_loads = loads[cand]
        cand_measures = measures[cand] if measures is not None else None
        j = decide_rows(cand_loads, cand_measures, tiebreaks, strat)
        chosen = cand[np.arange(cand.shape[0]), j]
        # within a round several balls may pick the same bin: commit all
        np.add.at(loads, chosen, 1)
    return loads


def staleness_penalty(
    space_factory,
    m: int,
    d: int,
    round_sizes,
    *,
    trials: int = 10,
    seed: int = 0,
) -> dict[int, float]:
    """Mean max load per round size (helper for the staleness ablation).

    ``space_factory(seed)`` builds a fresh space per trial.
    """
    out: dict[int, float] = {}
    for b in round_sizes:
        maxima = []
        for t in range(check_positive_int(trials, "trials")):
            space = space_factory(seed + 1000 * t)
            loads = place_balls_in_rounds(
                space, m, d, round_size=b, seed=seed + 7919 * t
            )
            maxima.append(max_load(loads))
        out[int(b)] = float(np.mean(maxima))
    return out
