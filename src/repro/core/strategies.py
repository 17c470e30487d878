"""Tie-breaking strategies for the greedy d-choice process.

A ball probes ``d`` candidate bins and joins one of least load; when
several candidates are tied at the minimum the *strategy* decides.  The
paper's Table 3 compares four strategies on the ring at ``d = 2``:

* ``arc-random`` — uniform among tied candidates (the Theorem 1 model:
  "ties broken arbitrarily"),
* ``arc-larger`` — tie to the candidate whose arc is longest,
* ``arc-smaller`` — tie to the candidate whose arc is shortest (the
  paper's own heuristic, empirically best),
* ``arc-left`` — Vöcking's Always-Go-Left: choices are drawn from ``d``
  partitioned intervals and ties go to the lowest interval index
  (here: the lowest choice index, combined with ``partitioned=True``
  sampling).

All engines resolve ties through the *same* kernels below (a scalar
variant, a numpy single-row variant and a vectorized batch variant
with identical arithmetic), so their outputs agree bit-for-bit.
"""

from __future__ import annotations

import enum
import math

import numpy as np

__all__ = [
    "TieBreak",
    "decide_rows",
    "decide_row",
    "decide_row_scalar",
    "strategy_needs_measures",
]


class TieBreak(str, enum.Enum):
    """How to resolve ties among least-loaded candidates."""

    RANDOM = "random"
    FIRST = "first"
    SMALLER = "smaller"
    LARGER = "larger"

    @classmethod
    def coerce(cls, value: "TieBreak | str") -> "TieBreak":
        """Accept enum members or their string values (case-insensitive)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                pass
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown tie-break strategy {value!r}; expected one of {valid}")


def strategy_needs_measures(strategy: TieBreak) -> bool:
    """Whether the strategy consults region measures (arc/area sizes)."""
    return strategy in (TieBreak.SMALLER, TieBreak.LARGER)


# ----------------------------------------------------------------------
# vectorized kernel: decide a batch of conflict-free rows at once
# ----------------------------------------------------------------------
def decide_rows(
    cand_loads: np.ndarray,
    cand_measures: np.ndarray | None,
    tiebreak_uniforms: np.ndarray,
    strategy: TieBreak,
) -> np.ndarray:
    """Choose one candidate column per row.

    Parameters
    ----------
    cand_loads:
        ``(B, d)`` loads of each row's candidates *at decision time*.
    cand_measures:
        ``(B, d)`` region measures of the candidates, or ``None`` when
        the strategy does not need them.
    tiebreak_uniforms:
        ``(B,)`` uniforms in ``[0, 1)``, one per row (consumed only by
        ``RANDOM`` but always supplied so RNG usage is
        strategy-independent).
    strategy:
        The tie-breaking rule.

    Returns
    -------
    ``(B,)`` int64 array of chosen column indices in ``[0, d)``.
    """
    loads = np.asarray(cand_loads)
    if loads.ndim != 2:
        raise ValueError(f"cand_loads must be 2-D, got shape {loads.shape}")
    b, d = loads.shape
    # Work column-by-column: d is tiny (1-4) while b is the batch, so
    # length-b contiguous kernels beat numpy's axis-1 reductions, whose
    # per-row dispatch dominates on (b, small) arrays.  The arithmetic
    # (min/tie mask, floor(u·k) rule, first-index preference) is
    # unchanged from the definitional row-wise form that decide_row /
    # decide_row_scalar implement.
    cols = [loads[:, j] for j in range(d)]
    min_load = cols[0].copy()
    for c in cols[1:]:
        np.minimum(min_load, c, out=min_load)
    tied = [c == min_load for c in cols]
    out = np.zeros(b, dtype=np.int64)

    if strategy is TieBreak.FIRST:
        # lowest tied index: assign high columns first, let low overwrite
        for j in range(d - 1, -1, -1):
            out[tied[j]] = j
        return out

    if strategy is TieBreak.RANDOM:
        k = tied[0].astype(np.int64)
        for t in tied[1:]:
            k += t
        # floor(u * k) is in [0, k-1] because u < 1
        target = (np.asarray(tiebreak_uniforms) * k).astype(np.int64) + 1
        run = np.zeros(b, dtype=np.int64)
        for j in range(d):
            run += tied[j]
            out[tied[j] & (run == target)] = j
        return out

    if cand_measures is None:
        raise ValueError(f"strategy {strategy.value!r} requires candidate measures")
    key = np.asarray(cand_measures, dtype=np.float64)
    if key.shape != loads.shape:
        raise ValueError(
            f"cand_measures shape {key.shape} != cand_loads shape {loads.shape}"
        )
    if strategy in (TieBreak.SMALLER, TieBreak.LARGER):
        sentinel = np.inf if strategy is TieBreak.SMALLER else -np.inf
        best = np.where(tied[0], key[:, 0], sentinel)
        for j in range(1, d):
            cand = np.where(tied[j], key[:, j], sentinel)
            # strict comparison keeps the lowest index on measure ties
            upd = cand < best if strategy is TieBreak.SMALLER else cand > best
            out[upd] = j
            if strategy is TieBreak.SMALLER:
                np.minimum(best, cand, out=best)
            else:
                np.maximum(best, cand, out=best)
        return out
    raise AssertionError(f"unhandled strategy {strategy!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# single-row kernel: one ball, numpy in / numpy out (the sequential
# reference's step — no Python-list round trip)
# ----------------------------------------------------------------------
def decide_row(
    cand_loads: np.ndarray,
    cand_measures: np.ndarray | None,
    tiebreak_u: float,
    strategy: TieBreak,
) -> int:
    """Single-row twin of :func:`decide_rows`.

    Takes the length-``d`` load (and measure) rows as numpy arrays and
    performs the row-wise arithmetic of :func:`decide_rows` directly —
    same min/tie mask, same ``floor(u * k)`` rule, same first-index
    preference — so engines may mix batch and single-ball decisions
    freely without breaking bit-identity.
    """
    min_load = cand_loads.min()
    tied = cand_loads == min_load
    if strategy is TieBreak.FIRST:
        return int(np.argmax(tied))
    if strategy is TieBreak.RANDOM:
        k = int(tied.sum())
        # truncation == floor: u * k is non-negative
        target = int(tiebreak_u * k) + 1
        return int(np.argmax(np.cumsum(tied) == target))
    if cand_measures is None:
        raise ValueError(f"strategy {strategy.value!r} requires candidate measures")
    if strategy is TieBreak.SMALLER:
        return int(np.argmin(np.where(tied, cand_measures, np.inf)))
    if strategy is TieBreak.LARGER:
        return int(np.argmax(np.where(tied, cand_measures, -np.inf)))
    raise AssertionError(f"unhandled strategy {strategy!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# scalar kernel: one row, plain Python (fast path of the sequential engine)
# ----------------------------------------------------------------------
def decide_row_scalar(
    loads_row,
    measures_row,
    u: float,
    strategy: TieBreak,
) -> int:
    """Scalar twin of :func:`decide_rows` for a single ball.

    ``loads_row``/``measures_row`` are length-``d`` sequences.  The
    arithmetic mirrors the vectorized kernel exactly (same floor rule,
    same first-index preference), which is what makes the two engines
    bit-identical.
    """
    d = len(loads_row)
    min_load = min(loads_row)
    if strategy is TieBreak.FIRST:
        for j in range(d):
            if loads_row[j] == min_load:
                return j
    elif strategy is TieBreak.RANDOM:
        k = 0
        for j in range(d):
            if loads_row[j] == min_load:
                k += 1
        target = math.floor(u * k) + 1
        seen = 0
        for j in range(d):
            if loads_row[j] == min_load:
                seen += 1
                if seen == target:
                    return j
    elif strategy is TieBreak.SMALLER:
        best_j, best_key = -1, math.inf
        for j in range(d):
            if loads_row[j] == min_load and measures_row[j] < best_key:
                best_j, best_key = j, measures_row[j]
        return best_j
    elif strategy is TieBreak.LARGER:
        best_j, best_key = -1, -math.inf
        for j in range(d):
            if loads_row[j] == min_load and measures_row[j] > best_key:
                best_j, best_key = j, measures_row[j]
        return best_j
    else:  # pragma: no cover
        raise AssertionError(f"unhandled strategy {strategy!r}")
    raise AssertionError("tie-break fell through")  # pragma: no cover
