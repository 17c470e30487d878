"""High-level facade for the greedy d-choice placement process.

:func:`place_balls` is the single entry point used by experiments,
examples and baselines for one run.  It runs one trial of the
trial-fused engine (:func:`repro.core.multitrial.run_fused`) and wraps
the outcome in a :class:`PlacementResult` carrying the statistics the
paper reports, bit-identical to
:func:`repro.core.engine.run_sequential`.  Many runs of a table cell
go through :func:`repro.stats.trials.run_cell`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import DEFAULT_RNG_BLOCK
from repro.core.loads import (
    height_counts_from_loads,
    load_histogram,
    load_imbalance,
    max_load,
    nu_profile,
)
from repro.core.multitrial import run_fused
from repro.core.spaces import GeometricSpace
from repro.core.strategies import TieBreak
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = ["PlacementResult", "place_balls"]


@dataclass(frozen=True)
class PlacementResult:
    """Outcome of one run of the greedy d-choice process.

    Attributes
    ----------
    loads:
        Final per-bin load vector, length ``n``.
    m, d:
        Number of balls and choices per ball.
    strategy:
        The tie-breaking rule used.
    partitioned:
        Whether choices were drawn from Vöcking's interval partition.
    engine:
        Which engine produced the result: ``"fused"`` for static runs,
        the dynamic engine's name for :meth:`from_dynamic`.
    heights:
        Per-ball heights (1-based), present only when requested.
    """

    loads: np.ndarray
    m: int
    d: int
    strategy: TieBreak
    partitioned: bool = False
    engine: str = "fused"
    heights: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        total = int(self.loads.sum())
        if total != self.m:
            raise ValueError(
                f"loads sum to {total} but m={self.m}; engine accounting bug"
            )

    # ------------------------------------------------------------------
    # statistics (the vocabulary of the paper's proofs and tables)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of bins."""
        return int(self.loads.shape[0])

    @property
    def max_load(self) -> int:
        """Maximum bin load — the statistic tabulated in Tables 1-3."""
        return max_load(self.loads)

    def load_histogram(self) -> np.ndarray:
        """``hist[k]`` = bins holding exactly ``k`` balls."""
        return load_histogram(self.loads)

    def nu_profile(self) -> np.ndarray:
        """ν_i = bins with load at least i (layered-induction profile)."""
        return nu_profile(self.loads)

    def height_counts(self) -> np.ndarray:
        """Balls at each exact height (index 0 unused)."""
        return height_counts_from_loads(self.loads)

    @property
    def imbalance(self) -> float:
        """Max-to-mean load ratio."""
        return load_imbalance(self.loads)

    # ------------------------------------------------------------------
    # bridge from the dynamic subsystem
    # ------------------------------------------------------------------
    @classmethod
    def from_dynamic(cls, dynamic) -> "PlacementResult":
        """Final state of a :class:`~repro.dynamics.result.DynamicResult`
        as a static placement over the live bins.

        Lets every static analysis (ν-profiles, table statistics,
        theory comparisons) run unchanged on the endpoint of a dynamic
        trajectory.  Inactive slots are dropped, so ``n`` here is the
        number of bins live at the end of the trace.
        """
        loads = np.asarray(dynamic.loads)[np.asarray(dynamic.active)]
        return cls(
            loads=loads,
            m=int(loads.sum()),
            d=dynamic.d,
            strategy=dynamic.strategy,
            partitioned=dynamic.partitioned,
            engine=dynamic.engine,
        )


def place_balls(
    space: GeometricSpace,
    m: int,
    d: int = 2,
    *,
    strategy: TieBreak | str = TieBreak.RANDOM,
    partitioned: bool = False,
    seed=None,
    rng_block: int = DEFAULT_RNG_BLOCK,
    record_heights: bool = False,
) -> PlacementResult:
    """Sequentially place ``m`` balls with ``d`` choices each.

    This is the process of Theorem 1: each ball draws ``d`` uniform
    points of the space, maps them to owning bins, and joins the least
    loaded candidate, resolving ties with ``strategy``.  It runs as one
    trial of :func:`repro.core.multitrial.run_fused`, whose kernel
    backend follows ``REPRO_KERNEL_BACKEND`` (else auto-detection).

    Parameters
    ----------
    space:
        A :class:`RingSpace`, :class:`TorusSpace`, or any other
        :class:`GeometricSpace` (baselines provide a uniform one).
    m:
        Number of balls (items).  The paper's tables use ``m = n``; the
        ``m ≠ n`` remark is exercised by the ablation experiments.
    d:
        Choices per ball; ``d = 1`` reduces to plain nearest-neighbor
        hashing (the Θ(log n) regime), ``d ≥ 2`` activates the
        double-logarithmic regime.
    strategy:
        Tie-breaking rule, see :class:`~repro.core.strategies.TieBreak`.
    partitioned:
        Draw choice ``j`` from the ``j``-th of ``d`` equal sub-blocks
        (Vöcking).  Combine with ``strategy="first"`` for the paper's
        ``arc-left``.
    seed:
        Anything :func:`repro.utils.rng.resolve_rng` accepts.
    rng_block:
        Pre-draw block size.  It sets how the candidate and tie-break
        draws interleave, so results depend on it: another size gives
        other loads for the same seed.  Every engine draws the same
        blocks, so all engines agree at a given size.
    record_heights:
        Also return per-ball heights (costs O(m) memory).

    Examples
    --------
    >>> from repro.core import RingSpace
    >>> ring = RingSpace.random(128, seed=1)
    >>> res = place_balls(ring, m=128, d=2, seed=2)
    >>> res.max_load <= 6
    True
    """
    m = check_non_negative_int(m, "m")
    d = check_positive_int(d, "d")
    strat = TieBreak.coerce(strategy)
    loads, heights = run_fused(
        [space],
        m,
        d,
        strat,
        [resolve_rng(seed)],
        partitioned=partitioned,
        rng_block=rng_block,
        record_heights=record_heights,
    )
    return PlacementResult(
        loads=loads[0],
        m=m,
        d=d,
        strategy=strat,
        partitioned=partitioned,
        engine="fused",
        heights=heights[0] if heights is not None else None,
    )
