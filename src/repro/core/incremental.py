"""Incremental two-choice placement state: O(d) per-event updates.

The batch engines (:mod:`repro.core.engine`,
:mod:`repro.dynamics.engine`) are trace-shaped: they want every event
up front so randomness can be pre-drawn and decisions vectorized.  The
paper's process, however, is *online* — each ball commits on arrival —
and a serving deployment (the ``repro.serve`` tier) never sees the end
of its trace.  :class:`IncrementalState` is the state object both
shapes share:

* **live bin loads** plus the ball→bin index, updated in ``O(d)`` per
  insert and ``O(1)`` per delete/lookup with no recompute;
* the **cyclic-successor remap** under bin churn (consistent hashing's
  clockwise hand-off on the ring) and the merged region measures the
  ``smaller``/``larger`` tie-breaks read;
* :meth:`apply_window` — a churn-free window of inserts, deletes and
  lookups (the batched dynamic engine's inner loop, one call per
  serving block), dispatching between a compiled kernel
  (``dynamic_window``), the mixed-event conflict-free-prefix numpy path,
  and a scalar fast path for windows below
  :data:`repro.kernels.SMALL_WINDOW_CUTOFF`;
* NPZ :meth:`save` / :meth:`load` snapshots, so a long-lived server
  can checkpoint and resume mid-stream.

Decision semantics are *identical* to the batch engines by
construction: the scalar path **is** the sequential reference
(:func:`repro.core.strategies.decide_row_scalar`), the vectorized and
kernel paths are the existing batched machinery, and churn
re-placement consumes the auxiliary RNG exactly as before.  Feeding
the same candidate stream through this class therefore reproduces
``simulate_dynamics`` bit-for-bit — enforced by
``tests/serve/test_incremental_parity.py``.

Randomness is deliberately *external*: inserts take their candidate
row and tie-break uniform as arguments, which every caller reads from
one :class:`repro.core.engine.CandidateStream`.  Only churn
re-placement draws internally, from ``aux_rng``, one
:func:`~repro.core.engine.choice_blocks` row per displaced ball.
:func:`seeded_state` builds the pair from one seed in the spawn order
replay parity rests on; the dynamic engines, trace replay and the
placement server all start there.
"""

from __future__ import annotations

import json

import numpy as np

from repro.core.engine import DEFAULT_RNG_BLOCK, CandidateStream, choice_blocks
from repro.core.spaces import GeometricSpace
from repro.core.strategies import (
    TieBreak,
    decide_row_scalar,
    decide_rows,
    strategy_needs_measures,
)
from repro.kernels import (
    SMALL_WINDOW_CUTOFF,
    STRATEGY_CODES,
    KernelBackend,
)
from repro.obs import counter_add, histogram_observe
from repro.obs import enabled as obs_enabled
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_positive_int

__all__ = ["IncrementalState", "mixed_conflict_prefix", "seeded_state"]

#: Op codes inside :meth:`IncrementalState.apply_window` windows (and
#: ``repro.serve``'s ``OP_*``) — insert/delete numerically identical to
#: :class:`repro.dynamics.events.EventKind` so trace arrays pass through.
KIND_INSERT = 0
KIND_DELETE = 1
KIND_LOOKUP = 2

#: Snapshot format version written by :meth:`IncrementalState.save`.
_SNAPSHOT_FORMAT = 2


def mixed_conflict_prefix(touched: np.ndarray, is_insert: np.ndarray) -> int:
    """Longest event prefix decidable from the prefix-start load vector.

    ``touched`` is ``(B, d)``: an insert row holds its candidate bins, a
    delete row its target's bin broadcast ``d`` times (``-1`` when the
    target is inserted within the same batch — its true bin is then the
    chosen bin of that earlier insert, already accounted for by the
    insert's candidates).  An event conflicts when it is an insert and
    any of its bins was touched by an earlier row; deletes never
    conflict.  Returns at least 1 for non-empty input.

    Examples
    --------
    >>> import numpy as np
    >>> t = np.array([[0, 1], [2, 2], [1, 3]])        # rows: ins, del, ins
    >>> mixed_conflict_prefix(t, np.array([True, False, True]))
    2
    >>> mixed_conflict_prefix(t[:2], np.array([True, False]))
    2
    """
    if touched.ndim != 2:
        raise ValueError(f"touched must be 2-D, got shape {touched.shape}")
    b, d = touched.shape
    if b == 0:
        return 0
    flat = touched.ravel()
    _, first_flat, inverse = np.unique(flat, return_index=True, return_inverse=True)
    first_row = first_flat[inverse] // d
    own_row = np.repeat(np.arange(b, dtype=np.int64), d)
    conflicts = (first_row < own_row) & np.repeat(is_insert, d)
    if not conflicts.any():
        return b
    return int(own_row[conflicts].min())


def seeded_state(
    space: GeometricSpace,
    d: int,
    strategy: TieBreak | str,
    seed=None,
    *,
    partitioned: bool = False,
    rng_block: int = DEFAULT_RNG_BLOCK,
    total: int | None = None,
) -> tuple[IncrementalState, CandidateStream]:
    """A fresh :class:`IncrementalState` and its candidate stream, from one seed.

    The churn generator is spawned off ``seed`` first; spawning draws
    nothing, so the stream then holds exactly the rows
    :func:`~repro.core.engine.choice_blocks` draws from ``seed`` alone.
    This one order keeps the dynamic engines, trace replay and the
    placement server bit-identical to each other and, on insert-only
    traces, to :func:`~repro.core.engine.run_sequential`.  ``total``
    bounds the stream (and sizes the ball index) at a trace's insert
    count; ``None`` leaves it unbounded, as a server's is.
    """
    rng = resolve_rng(seed)
    aux_rng = rng.spawn(1)[0]
    state = IncrementalState(space, d, strategy, partitioned=partitioned,
                             aux_rng=aux_rng, expect_balls=total or 0)
    stream = CandidateStream(space, rng, d, partitioned=partitioned,
                             rng_block=rng_block, total=total)
    return state, stream


class IncrementalState:
    """Live placement state with O(d) per-event updates and NPZ snapshots.

    Parameters
    ----------
    space:
        The geometric space (bin ownership + region measures).
    d:
        Choices per insert.
    strategy:
        Tie-break rule (:class:`~repro.core.strategies.TieBreak`).
    partitioned:
        Whether candidate draws use the partitioned variant (recorded
        for snapshots; draws themselves are the caller's).
    aux_rng:
        Generator consumed by churn re-placement only
        (:func:`seeded_state` spawns it off the seed); without one,
        a bin holding balls cannot leave.
    expect_balls:
        Initial ball-index capacity (grows on demand).
    """

    def __init__(
        self,
        space: GeometricSpace,
        d: int,
        strategy: TieBreak | str,
        *,
        partitioned: bool = False,
        aux_rng: np.random.Generator | None = None,
        expect_balls: int = 0,
    ) -> None:
        self.space = space
        self.n = space.n
        self.d = check_positive_int(d, "d")
        self.strategy = TieBreak.coerce(strategy)
        self.partitioned = bool(partitioned)
        self.aux_rng = aux_rng
        self.loads = np.zeros(self.n, dtype=np.int64)
        self.ball_bin = np.full(max(int(expect_balls), 0), -1, dtype=np.int64)
        self.active = np.ones(self.n, dtype=bool)
        self.needs_measures = strategy_needs_measures(self.strategy)
        self.base_measures = space.region_measures() if self.needs_measures else None
        self.measures = self.base_measures
        self.remap: np.ndarray | None = None  # None == identity (no churn yet)
        self.inserts_done = 0
        self.deletes_done = 0

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------
    def reserve(self, capacity: int) -> None:
        """Grow the ball→bin index to hold ids ``< capacity`` (amortized)."""
        cur = self.ball_bin.shape[0]
        if capacity <= cur:
            return
        new = max(capacity, 2 * cur, 16)
        grown = np.full(new, -1, dtype=np.int64)
        grown[:cur] = self.ball_bin
        self.ball_bin = grown

    # ------------------------------------------------------------------
    # scalar event application (the sequential reference semantics)
    # ------------------------------------------------------------------
    def insert(self, ball: int, cand_row: np.ndarray, u: float) -> int:
        """Place ``ball`` given its candidate row and tie-break uniform.

        Returns the chosen bin.  ``O(d)``: one load gather, one scalar
        tie-break, one increment.
        """
        if ball >= self.ball_bin.shape[0]:
            self.reserve(ball + 1)
        cand = cand_row if self.remap is None else self.remap[cand_row]
        row = self.loads[cand]
        mrow = self.measures[cand] if self.needs_measures else None
        j = decide_row_scalar(
            row.tolist(),
            None if mrow is None else mrow.tolist(),
            float(u),
            self.strategy,
        )
        chosen = int(cand[j])
        self.loads[chosen] += 1
        self.ball_bin[ball] = chosen
        self.inserts_done += 1
        return chosen

    def delete(self, ball: int) -> int:
        """Remove ``ball``; returns the bin it vacated.  ``O(1)``."""
        if not 0 <= ball < self.ball_bin.shape[0]:
            raise RuntimeError(f"delete of unplaced ball {ball}")
        b = int(self.ball_bin[ball])
        if b < 0:
            raise RuntimeError(f"delete of unplaced ball {ball}")
        self.loads[b] -= 1
        self.ball_bin[ball] = -1
        self.deletes_done += 1
        return b

    def lookup(self, ball: int) -> int:
        """The bin currently holding ``ball`` (``-1`` if unplaced).  ``O(1)``."""
        if not 0 <= ball < self.ball_bin.shape[0]:
            return -1
        return int(self.ball_bin[ball])

    # ------------------------------------------------------------------
    # churn (scalar by nature: rare, topology-changing)
    # ------------------------------------------------------------------
    def check_churn(self, slot: int, *, leaving: bool) -> None:
        """Raise :class:`ValueError` unless bin ``slot`` may leave (join) now.

        The rules :class:`~repro.dynamics.events.EventTrace` enforces on
        traces: the slot is in range, only an active bin leaves, only an
        inactive bin joins, and the last active bin never leaves.
        """
        if not 0 <= slot < self.n:
            raise ValueError(f"bin slot {slot} outside [0, {self.n})")
        if leaving:
            if not self.active[slot]:
                raise ValueError(f"bin {slot} leaves but is already inactive")
            if np.count_nonzero(self.active) <= 1:
                raise ValueError("the last active bin cannot leave")
        elif self.active[slot]:
            raise ValueError(f"bin {slot} joins but is already active")

    def bin_leave(self, slot: int) -> None:
        """Deactivate bin ``slot``, re-placing its displaced balls.

        Invalid churn (:meth:`check_churn`) raises before any change.
        """
        self.check_churn(slot, leaving=True)
        displaced = np.nonzero(self.ball_bin == slot)[0]
        if displaced.size and self.aux_rng is None:
            raise RuntimeError(
                "churn re-placement needs aux_rng (construct IncrementalState "
                "with aux_rng=... to enable bin churn)"
            )
        self.active[slot] = False
        self._recompute_topology()
        self.loads[slot] = 0
        for ball in displaced:
            self._replace_ball(int(ball))

    def bin_join(self, slot: int) -> None:
        """Reactivate bin ``slot`` (empty: no eager rebalancing on joins).

        Invalid churn (:meth:`check_churn`) raises before any change.
        """
        self.check_churn(slot, leaving=False)
        self.active[slot] = True
        self._recompute_topology()

    def _replace_ball(self, ball: int) -> None:
        raw, us = next(
            choice_blocks(
                self.space, self.aux_rng, 1, self.d, partitioned=self.partitioned
            )
        )
        cand = self.remap[raw[0]]
        u = float(us[0])
        row = self.loads[cand]
        mrow = self.measures[cand] if self.needs_measures else None
        j = decide_row_scalar(
            row.tolist(), None if mrow is None else mrow.tolist(), u, self.strategy
        )
        chosen = int(cand[j])
        self.loads[chosen] += 1
        self.ball_bin[ball] = chosen

    def _recompute_topology(self) -> None:
        """Rebuild the cyclic-successor remap and merged measures."""
        if self.active.all():
            self.remap = None
            self.measures = self.base_measures
            return
        n = self.n
        sentinel = 2 * n
        cand = np.where(self.active, np.arange(n, dtype=np.int64), sentinel)
        # next active index at or after j, wrapping to the first active
        succ = np.minimum.accumulate(cand[::-1])[::-1]
        first = int(np.argmax(self.active))
        self.remap = np.where(succ >= sentinel, first, succ).astype(np.int64)
        if self.base_measures is not None:
            self.measures = np.bincount(
                self.remap, weights=self.base_measures, minlength=n
            )

    # ------------------------------------------------------------------
    # batched window application (the batched dynamic engine's inner loop)
    # ------------------------------------------------------------------
    def apply_window(
        self,
        kinds: np.ndarray,
        args: np.ndarray,
        start: int,
        stop: int,
        cands: np.ndarray,
        us: np.ndarray,
        *,
        batch_size: int,
        backend: KernelBackend | None = None,
        out: np.ndarray | None = None,
    ) -> None:
        """Apply a churn-free window of insert/delete/lookup ops in order.

        ``cands``/``us`` are indexed by ball id (a
        :class:`~repro.core.engine.CandidateStream`'s arrays).  ``out``,
        unless ``None``, receives op ``i``'s result in ``out[i]`` the
        moment the op is decided: the chosen bin, ``-1`` for a delete, a
        lookup's bin at that point (``-1`` if unplaced).  Three dispatch
        tiers, all bit-identical:

        * windows below :data:`repro.kernels.SMALL_WINDOW_CUTOFF`
          ops run the scalar reference directly — per-op application
          beats both kernel dispatch and numpy batching at that size
          (the serving tier's single-request fast path);
        * an accelerated ``backend`` runs the whole window through its
          compiled ``dynamic_window`` kernel (strictly in-order — the
          sequential semantics itself);
        * otherwise each lookup run is one gather, and each insert and
          delete run is decided in provably order-independent prefixes.
        """
        rows = stop - start
        if rows <= 0:
            return
        amax = int(args[start:stop].max())
        if amax >= self.ball_bin.shape[0]:
            self.reserve(amax + 1)
        _obs = obs_enabled()
        if rows <= SMALL_WINDOW_CUTOFF:
            if _obs:
                counter_add("dynamics.scalar_steps", rows)
            for i in range(start, stop):
                self._step(kinds, args, i, cands, us, out)
            return
        if backend is not None and backend.dynamic_window is not None:
            if _obs:
                counter_add("dynamics.kernel_windows")
                histogram_observe("dynamics.window_events", rows)
            ins, dels = backend.dynamic_window(
                kinds,
                args,
                start,
                stop,
                cands,
                us,
                self.d,
                self.remap,
                self.loads,
                self.measures if self.needs_measures else None,
                STRATEGY_CODES[self.strategy.value],
                self.ball_bin,
                out,
            )
            self.inserts_done += ins
            self.deletes_done += dels
            return
        looked = kinds[start:stop] == KIND_LOOKUP
        if looked.any():
            # lookups read the index between mutation runs; each run of
            # inserts and deletes re-enters here free of lookups
            edges = np.flatnonzero(np.diff(looked.view(np.int8))) + 1 + start
            bounds = [start, *edges.tolist(), stop]
            for ra, rb in zip(bounds[:-1], bounds[1:]):
                if kinds[ra] != KIND_LOOKUP:
                    self.apply_window(
                        kinds, args, ra, rb, cands, us, batch_size=batch_size, out=out
                    )
                elif out is not None:
                    out[ra:rb] = self.ball_bin[args[ra:rb]]
            return
        d = self.d
        i = start
        while i < stop:
            end = min(i + batch_size, stop)
            kw = kinds[i:end]
            aw = args[i:end]
            is_insert = kw == KIND_INSERT
            b = end - i
            touched = np.empty((b, d), dtype=np.int64)
            if is_insert.any():
                raw = cands[aw[is_insert]]
                touched[is_insert] = raw if self.remap is None else self.remap[raw]
            if not is_insert.all():
                touched[~is_insert] = self.ball_bin[aw[~is_insert], None]
            prefix = mixed_conflict_prefix(touched, is_insert)
            if _obs:
                # the mixed-event vectorization's effectiveness in one number:
                # how many events each conflict-free prefix actually covered
                histogram_observe("dynamics.window_events", prefix)
            # --- apply the conflict-free prefix from the current loads ---
            p_ins = is_insert[:prefix]
            ins_ids = aw[:prefix][p_ins]
            if ins_ids.size:
                sub = touched[:prefix][p_ins]
                cand_loads = self.loads[sub]
                cand_measures = self.measures[sub] if self.needs_measures else None
                j = decide_rows(cand_loads, cand_measures, us[ins_ids], self.strategy)
                chosen = sub[np.arange(ins_ids.size), j]
                # prefix inserts have pairwise-disjoint candidates: no dups
                self.loads[chosen] += 1
                self.ball_bin[ins_ids] = chosen
                self.inserts_done += int(ins_ids.size)
                if out is not None:
                    out[i : i + prefix][p_ins] = chosen
            del_ids = aw[:prefix][~p_ins]
            if del_ids.size:
                bins = self.ball_bin[del_ids]
                np.subtract.at(self.loads, bins, 1)
                self.ball_bin[del_ids] = -1
                self.deletes_done += int(del_ids.size)
                if out is not None:
                    out[i : i + prefix][~p_ins] = -1
            i += prefix
            if prefix < b:
                # the event at `i` reads a bin the prefix touched: its
                # decision needs the updated loads, so step it scalar
                if _obs:
                    counter_add("dynamics.scalar_steps")
                self._step(kinds, args, i, cands, us, out)
                i += 1

    def _step(self, kinds, args, i: int, cands, us, out) -> None:
        """Apply op ``i`` through the scalar reference; record its result."""
        arg = int(args[i])
        kind = kinds[i]
        if kind == KIND_INSERT:
            result = self.insert(arg, cands[arg], float(us[arg]))
        elif kind == KIND_DELETE:
            self.delete(arg)
            result = -1
        else:
            result = self.lookup(arg)
        if out is not None:
            out[i] = result

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def live_loads(self) -> np.ndarray:
        """Loads of the currently active bins."""
        return self.loads[self.active]

    @property
    def occupancy(self) -> int:
        """Balls currently placed (inserts minus deletes)."""
        return self.inserts_done - self.deletes_done

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def save(self, path, *, extra_arrays=None, extra_meta=None) -> None:
        """Checkpoint the live state to an NPZ file.

        The live arrays (loads, ball→bin index, active mask, ring
        positions) are written directly — no intermediate serialization
        — together with a JSON metadata record (dimensions, strategy,
        counters, the churn RNG state).  ``extra_arrays`` /
        ``extra_meta`` let callers (the serving tier) piggyback their
        own state into the same file; extra array names must not start
        with ``core_``.
        """
        meta = {
            "format": _SNAPSHOT_FORMAT,
            "n": int(self.n),
            "d": int(self.d),
            "strategy": self.strategy.value,
            "partitioned": self.partitioned,
            "inserts_done": int(self.inserts_done),
            "deletes_done": int(self.deletes_done),
            "space_kind": type(self.space).__name__,
            "aux_rng_state": (
                None if self.aux_rng is None else self.aux_rng.bit_generator.state
            ),
        }
        if extra_meta:
            meta["extra"] = extra_meta
        arrays = {
            "core_loads": self.loads,
            "core_ball_bin": self.ball_bin,
            "core_active": self.active,
            "core_meta": np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            ),
        }
        positions = getattr(self.space, "positions", None)
        if positions is not None:
            arrays["core_positions"] = np.asarray(positions)
        if extra_arrays:
            for name, arr in extra_arrays.items():
                if name.startswith("core_"):
                    raise ValueError(f"extra array name {name!r} is reserved")
                arrays[name] = arr
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path, *, space: GeometricSpace | None = None):
        """Restore a :meth:`save` checkpoint.

        Returns ``(state, extra)`` where ``extra`` is
        ``{"meta": extra_meta_dict, "arrays": {name: array}}`` holding
        whatever the caller piggybacked.  ``space`` may be omitted for
        ring snapshots (rebuilt from the stored positions); other
        spaces must be supplied by the caller and are validated against
        the stored dimensions.
        """
        with np.load(path, allow_pickle=False) as payload:
            meta = json.loads(bytes(payload["core_meta"]).decode("utf-8"))
            if meta.get("format") != _SNAPSHOT_FORMAT:
                raise ValueError(
                    f"unsupported snapshot format {meta.get('format')!r} in {path}"
                )
            if space is None:
                if meta["space_kind"] == "RingSpace" and "core_positions" in payload:
                    from repro.core.ring import RingSpace

                    space = RingSpace(payload["core_positions"])
                else:
                    raise ValueError(
                        f"snapshot holds a {meta['space_kind']}; pass space= to load"
                    )
            if space.n != meta["n"]:
                raise ValueError(
                    f"snapshot expects n={meta['n']} bins but space has {space.n}"
                )
            state = cls(
                space,
                meta["d"],
                meta["strategy"],
                partitioned=meta["partitioned"],
            )
            state.loads = payload["core_loads"].copy()
            state.ball_bin = payload["core_ball_bin"].copy()
            state.active = payload["core_active"].copy()
            state.inserts_done = meta["inserts_done"]
            state.deletes_done = meta["deletes_done"]
            if meta["aux_rng_state"] is not None:
                state.aux_rng = np.random.default_rng(0)
                state.aux_rng.bit_generator.state = meta["aux_rng_state"]
            state._recompute_topology()
            extra_arrays = {
                name: payload[name].copy()
                for name in payload.files
                if not name.startswith("core_")
            }
        return state, {"meta": meta.get("extra", {}), "arrays": extra_arrays}
