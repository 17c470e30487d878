"""The sequential reference engine and the RNG layout every engine shares.

The greedy process of Theorem 1 is inherently sequential — ball ``t``'s
decision depends on the loads left by ball ``t-1``.  This module holds
the two pieces every placement path is defined against:

``choice_blocks``
    The randomness layout: candidate bins and tie-break uniforms are
    pre-drawn in fixed-size RNG blocks, so RNG consumption is a pure
    function of ``(m, d, partitioned, rng_block)``.

``CandidateStream``
    The same blocks stored by ball id, drawn lazily, with
    ``state_dict``/``from_state`` checkpoints: what the dynamic
    engines, trace replay and the placement server read inserts from.

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
from repro.core.strategies import (
    TieBreak,
    decide_row_scalar,
    strategy_needs_measures,
)
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = [
    "run_sequential",
    "choice_blocks",
    "CandidateStream",
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


class CandidateStream:
    """Per-insert candidate bins + tie-break uniforms, indexed by ball id.

    Each block is one :func:`choice_blocks` call, so the stream has the
    static engines' draw order.  ``total=None`` draws whole
    ``rng_block`` blocks lazily with no end: a server's stream, a pure
    function of the seed however requests arrive.  ``total=m`` holds
    exactly the rows of ``choice_blocks(m)``, short last block
    included, which keeps trace replay and the dynamic engines
    bit-identical to :func:`run_sequential`; :meth:`ensure` past ``m``
    raises :class:`RuntimeError`.
    """

    def __init__(
        self,
        space: GeometricSpace,
        rng,
        d: int,
        *,
        partitioned: bool = False,
        rng_block: int = DEFAULT_RNG_BLOCK,
        total: int | None = None,
    ) -> None:
        self._space = space
        self._rng = resolve_rng(rng)
        self.d = check_positive_int(d, "d")
        self.partitioned = bool(partitioned)
        self.rng_block = check_positive_int(rng_block, "rng_block")
        self.total = None if total is None else check_non_negative_int(total, "total")
        self.cands = np.empty((self.total or 0, self.d), dtype=np.int64)
        self.us = np.empty(self.total or 0, dtype=np.float64)
        self.drawn = 0

    def ensure(self, count: int) -> None:
        """Draw rows ``[0, count)`` that are not drawn yet."""
        if self.total is not None and count > self.total:
            raise RuntimeError(
                f"candidate stream exhausted: need {count} rows, it holds "
                f"{self.total}"
            )
        while self.drawn < count:
            b = self.rng_block
            if self.total is not None:
                b = min(b, self.total - self.drawn)
            end = self.drawn + b
            if end > self.us.size:
                grow = max(end, 2 * self.us.size)
                cands = np.empty((grow, self.d), dtype=np.int64)
                us = np.empty(grow, dtype=np.float64)
                cands[: self.drawn] = self.cands[: self.drawn]
                us[: self.drawn] = self.us[: self.drawn]
                self.cands, self.us = cands, us
            bins, tiebreaks = next(
                choice_blocks(
                    self._space,
                    self._rng,
                    b,
                    self.d,
                    partitioned=self.partitioned,
                    rng_block=b,
                )
            )
            self.cands[self.drawn : end] = bins
            self.us[self.drawn : end] = tiebreaks
            self.drawn = end

    def state_dict(self, consumed: int) -> tuple[dict, dict]:
        """Snapshot the stream once rows ``[0, consumed)`` are used.

        Returns ``(meta, arrays)``: the generator state, the stream's
        shape and its drawn-but-unconsumed rows ``[consumed, drawn)``,
        so a :meth:`from_state` stream continues byte-identically.
        """
        meta = {
            "rng_state": self._rng.bit_generator.state,
            "rng_block": self.rng_block,
            "partitioned": self.partitioned,
            "total": self.total,
            "drawn": self.drawn,
            "consumed": int(consumed),
        }
        arrays = {
            "stream_cands": self.cands[consumed : self.drawn],
            "stream_us": self.us[consumed : self.drawn],
        }
        return meta, arrays

    @classmethod
    def from_state(cls, space, d, meta: dict, arrays: dict):
        """Rebuild a stream from :meth:`state_dict` output."""
        stream = cls(
            space,
            np.random.default_rng(0),
            d,
            partitioned=meta["partitioned"],
            rng_block=meta["rng_block"],
            total=meta["total"],
        )
        stream._rng.bit_generator.state = meta["rng_state"]
        drawn, consumed = meta["drawn"], meta["consumed"]
        rows = max(drawn, stream.us.size)
        stream.cands = np.zeros((rows, stream.d), dtype=np.int64)
        stream.us = np.zeros(rows, dtype=np.float64)
        stream.cands[consumed:drawn] = arrays["stream_cands"]
        stream.us[consumed:drawn] = arrays["stream_us"]
        stream.drawn = drawn
        return stream


def run_sequential(
    space: GeometricSpace,
    m: int,
    d: int,
    strategy: TieBreak | str,
    rng: np.random.Generator,
    *,
    partitioned: bool = False,
    rng_block: int = DEFAULT_RNG_BLOCK,
    record_heights: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Reference engine: place ``m`` balls one at a time.

    Returns ``(loads, heights)`` where ``heights`` is an ``(m,)`` array
    of ball heights (position in the stack, 1-based) when
    ``record_heights`` else ``None``.  ``strategy`` may be a name, as
    :meth:`TieBreak.coerce` reads it; an unknown one raises
    :class:`ValueError` before ``rng`` draws.
    """
    m = check_non_negative_int(m, "m")
    d = check_positive_int(d, "d")
    strategy = TieBreak.coerce(strategy)
    loads = [0] * space.n
    measures = (
        space.region_measures().tolist() if strategy_needs_measures(strategy) else None
    )
    heights: list | None = [] if record_heights else None
    for bins, tiebreaks in choice_blocks(
        space, rng, m, d, partitioned=partitioned, rng_block=rng_block
    ):
        for cand, u in zip(bins.tolist(), tiebreaks.tolist()):
            j = decide_row_scalar(
                [loads[c] for c in cand],
                [measures[c] for c in cand] if measures is not None else None,
                u,
                strategy,
            )
            chosen = cand[j]
            if heights is not None:
                heights.append(loads[chosen] + 1)
            loads[chosen] += 1
    heights_arr = np.asarray(heights, dtype=np.int64) if record_heights else None
    return np.array(loads, dtype=np.int64), heights_arr
