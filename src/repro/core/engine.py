"""The sequential reference engine and the RNG layout every engine shares.

The greedy process of Theorem 1 is inherently sequential — ball ``t``'s
decision depends on the loads left by ball ``t-1``.  This module holds
the two pieces every placement path is defined against:

``choice_blocks``
    The randomness layout: candidate bins and tie-break uniforms are
    pre-drawn in fixed-size RNG blocks, so RNG consumption is a pure
    function of ``(m, d, partitioned, rng_block)``.

``run_sequential``
    A plain Python loop over balls.  Trivially correct; the reference.

The one fast static engine is :func:`repro.core.multitrial.run_fused`:
it runs ``T`` independent trials in one pass (inside the ``cext``
kernel where it applies) and is what both
:func:`repro.core.placement.place_balls` (``T = 1``) and
:func:`repro.stats.trials.run_cell` call.  Per-trial results are
**bit-identical** to ``run_sequential`` for the same seed; the test
suite enforces this across spaces, strategies and shapes.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.core.spaces import GeometricSpace
from repro.core.strategies import TieBreak, decide_row, strategy_needs_measures
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = [
    "run_sequential",
    "choice_blocks",
    "DEFAULT_RNG_BLOCK",
    "auto_batch_size",
]

#: Number of balls whose randomness is pre-drawn per RNG block.  Fixed
#: (not tunable per-engine) so that engine choice never changes the
#: stream of random numbers consumed.
DEFAULT_RNG_BLOCK = 1 << 16


def auto_batch_size(n: int, d: int) -> int:
    """Event-window size for the dynamic engines' conflict-free prefixes.

    Birthday heuristics give an expected prefix of about ``sqrt(2 n) / d``
    rows; we aim a small multiple above it so one ``np.unique`` usually
    covers one prefix, clipped to keep per-batch temporaries cache-sized.
    """
    est = int(3.0 * math.sqrt(max(n, 1)) / max(d, 1))
    return max(32, min(est, 8192))


def choice_blocks(
    space: GeometricSpace,
    rng: np.random.Generator,
    m: int,
    d: int,
    *,
    partitioned: bool = False,
    rng_block: int = DEFAULT_RNG_BLOCK,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(candidate_bins, tiebreak_uniforms)`` blocks for m balls.

    Blocks have at most ``rng_block`` rows.  The draw order inside a
    block is fixed (candidates first, then tie-break uniforms), making
    RNG consumption a pure function of ``(m, d, partitioned, rng_block)``
    — independent of which engine consumes the blocks.
    """
    check_positive_int(rng_block, "rng_block")
    remaining = m
    while remaining > 0:
        b = min(rng_block, remaining)
        bins = space.sample_choice_bins(rng, b, d, partitioned=partitioned)
        tiebreaks = rng.random(b)
        yield bins, tiebreaks
        remaining -= b


def run_sequential(
    space: GeometricSpace,
    m: int,
    d: int,
    strategy: TieBreak,
    rng: np.random.Generator,
    *,
    partitioned: bool = False,
    rng_block: int = DEFAULT_RNG_BLOCK,
    record_heights: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Reference engine: place ``m`` balls one at a time.

    Returns ``(loads, heights)`` where ``heights`` is an ``(m,)`` array
    of ball heights (position in the stack, 1-based) when
    ``record_heights`` else ``None``.
    """
    m = check_non_negative_int(m, "m")
    d = check_positive_int(d, "d")
    loads = np.zeros(space.n, dtype=np.int64)
    measures = space.region_measures() if strategy_needs_measures(strategy) else None
    heights: list | None = [] if record_heights else None
    for bins, tiebreaks in choice_blocks(
        space, rng, m, d, partitioned=partitioned, rng_block=rng_block
    ):
        for cand, u in zip(bins, tiebreaks):
            j = decide_row(
                loads[cand],
                measures[cand] if measures is not None else None,
                u,
                strategy,
            )
            chosen = int(cand[j])
            if heights is not None:
                heights.append(int(loads[chosen]) + 1)
            loads[chosen] += 1
    heights_arr = np.asarray(heights, dtype=np.int64) if record_heights else None
    return loads, heights_arr
