"""Dynamic placement engines: sequential reference and vectorized batched.

This module extends the static reference of :mod:`repro.core.engine`
to the dynamic process replayed from an
:class:`~repro.dynamics.events.EventTrace`:

``run_sequential_dynamic``
    One event at a time.  Trivially correct; the reference.

``run_batched_dynamic``
    Batches *mixed* blocks of insert and delete events by their
    conflict-free prefix.  Within a batch, an event prefix can be
    decided from the batch-start load vector when no **insert** reads a
    bin touched by any earlier event in the prefix:

    * an insert touches its ``d`` candidate bins,
    * a delete touches the single bin holding its target ball,
    * deletes never *read* loads, so they never conflict themselves —
      they only dirty their bin for later inserts.

    Inserts in such a prefix are decided in one vectorized shot (their
    candidate sets are pairwise disjoint by construction), deletes are
    applied with one scatter-subtract, and the first conflicting event
    is stepped scalar before the remainder is batched again.

Bin churn events (rare by nature) and epoch snapshots act as batch
barriers and run through code shared verbatim between the engines, so
the two engines produce **bit-identical load trajectories** — the same
per-epoch snapshots, not just the same endpoint.  The test suite
enforces this across spaces, strategies, delete policies and churn.

RNG discipline mirrors the static engine: all insert randomness is
pre-drawn through :func:`repro.core.engine.choice_blocks` (so an
insert-only trace reproduces ``run_sequential`` bit-for-bit on the same
seed), while churn re-placement draws from a generator spawned off the
main seed, consumed identically by both engines because churn handling
is shared scalar code.

When bins leave, ownership is remapped by **cyclic successor**: a
candidate drawn in a departed bin's region belongs to the next active
bin in index order.  On the ring — whose bins are stored in position
order — this is exactly consistent hashing's hand-off to the clockwise
successor; on other spaces it is a documented convention.  Region
measures used by the ``smaller``/``larger`` strategies are merged the
same way, so tie-breaking stays meaningful under churn.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.engine import DEFAULT_RNG_BLOCK, auto_batch_size, choice_blocks
from repro.core.incremental import IncrementalState, mixed_conflict_prefix
from repro.core.loads import nu_profile
from repro.core.spaces import GeometricSpace
from repro.core.strategies import TieBreak
from repro.dynamics.events import EventKind, EventTrace
from repro.dynamics.result import DynamicResult
from repro.kernels import KernelBackend, resolve_backend, resolve_threads
from repro.obs import counter_add, obs_session, trace_span
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "run_sequential_dynamic",
    "run_batched_dynamic",
    "simulate_dynamics",
    "mixed_conflict_prefix",
]


def _predraw_inserts(
    space: GeometricSpace,
    rng: np.random.Generator,
    count: int,
    d: int,
    partitioned: bool,
    rng_block: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize candidate bins and tie-break uniforms for all inserts.

    Uses :func:`choice_blocks`, so the RNG stream layout is identical to
    the static engines' and independent of which dynamic engine runs.
    """
    cands = np.empty((count, d), dtype=np.int64)
    us = np.empty(count, dtype=np.float64)
    pos = 0
    for bins, tiebreaks in choice_blocks(
        space, rng, count, d, partitioned=partitioned, rng_block=rng_block
    ):
        b = bins.shape[0]
        cands[pos : pos + b] = bins
        us[pos : pos + b] = tiebreaks
        pos += b
    return cands, us


class _PredrawPipeline:
    """Background producer of the pre-drawn insert candidate stream.

    The synchronous :func:`_predraw_inserts` pays the full candidate
    generation cost up front, serializing it with trace replay.  This
    pipeline fills the same ``cands``/``us`` arrays chunk-by-chunk from
    the **same** :func:`choice_blocks` iterator on a producer thread
    (numpy's bulk fills release the GIL), so replay of event window
    ``w`` overlaps generation of the candidates windows ``w+1, ...``
    will read.  :meth:`ensure` gates the consumer: it blocks until the
    first ``count`` insert rows are materialized.

    Bit-identity: one iterator, one thread consuming it, identical
    block layout — the stream is byte-for-byte the synchronous one;
    pipelining changes *when* rows are filled, never their values.
    """

    def __init__(self, space, rng, count, d, partitioned, rng_block):
        self.cands = np.empty((count, d), dtype=np.int64)
        self.us = np.empty(count, dtype=np.float64)
        self._filled = 0
        self._error: BaseException | None = None
        self._cond = threading.Condition()
        self._thread = threading.Thread(
            target=self._produce,
            args=(space, rng, count, d, partitioned, rng_block),
            name="repro-predraw",
            daemon=True,
        )
        self._thread.start()

    def _produce(self, space, rng, count, d, partitioned, rng_block):
        try:
            pos = 0
            for bins, tiebreaks in choice_blocks(
                space, rng, count, d, partitioned=partitioned, rng_block=rng_block
            ):
                b = bins.shape[0]
                self.cands[pos : pos + b] = bins
                self.us[pos : pos + b] = tiebreaks
                pos += b
                with self._cond:
                    self._filled = pos
                    self._cond.notify_all()
        except BaseException as exc:  # pragma: no cover - defensive
            with self._cond:
                self._error = exc
                self._cond.notify_all()

    def ensure(self, count: int) -> None:
        """Block until the first ``count`` insert rows are filled."""
        if self._filled >= count and self._error is None:
            # lock-free fast path: _filled grows monotonically and a
            # stale (smaller) read only sends us through the slow path
            return
        with self._cond:
            while self._filled < count and self._error is None:
                self._cond.wait()
            if self._error is not None:
                raise self._error


class _DynamicState:
    """Trace-replay wrapper over the shared :class:`IncrementalState` core.

    The behaviour-bearing state — scalar event application, churn
    handling, topology remaps — lives in
    :class:`repro.core.incremental.IncrementalState`, which both
    engines (and the ``repro.serve`` tier) mutate through the same
    methods, so the engines can only differ in *when* they decide
    events, never in *how*.  This wrapper owns what is trace-specific:
    the pre-drawn candidate stream (optionally pipelined), epoch
    snapshots, and result assembly.
    """

    def __init__(
        self,
        space: GeometricSpace,
        trace: EventTrace,
        d: int,
        strategy: TieBreak,
        rng,
        *,
        partitioned: bool,
        rng_block: int,
        record_loads: bool,
        threads: int = 1,
    ) -> None:
        if not isinstance(trace, EventTrace):
            raise TypeError(f"trace must be an EventTrace, got {type(trace).__name__}")
        if trace.n_slots is not None and trace.n_slots != space.n:
            raise ValueError(
                f"trace expects {trace.n_slots} bin slots but space has {space.n}"
            )
        self.space = space
        self.n = space.n
        self.d = check_positive_int(d, "d")
        self.strategy = TieBreak.coerce(strategy)
        self.partitioned = partitioned
        self.trace = trace
        rng = resolve_rng(rng)
        # spawned (not consumed) before the insert pre-draw, so the
        # insert stream matches the static engines' exactly
        aux_rng = rng.spawn(1)[0]
        if threads >= 2 and trace.num_inserts > 0:
            self._pipeline = _PredrawPipeline(
                space, rng, trace.num_inserts, self.d, partitioned, rng_block
            )
            self.cands = self._pipeline.cands
            self.us = self._pipeline.us
        else:
            self._pipeline = None
            self.cands, self.us = _predraw_inserts(
                space, rng, trace.num_inserts, self.d, partitioned, rng_block
            )
        self.core = IncrementalState(
            space,
            self.d,
            self.strategy,
            partitioned=partitioned,
            aux_rng=aux_rng,
            expect_balls=trace.num_inserts,
        )
        self.record_loads = record_loads
        self._max: list[int] = []
        self._tot: list[int] = []
        self._live: list[int] = []
        self._nu: list[np.ndarray] = []
        self._snaps: list[np.ndarray] = []

    @property
    def loads(self) -> np.ndarray:
        """The core's live per-bin load vector."""
        return self.core.loads

    @property
    def active(self) -> np.ndarray:
        """The core's live-bin mask."""
        return self.core.active

    @property
    def inserts_done(self) -> int:
        """Inserts applied so far (core counter)."""
        return self.core.inserts_done

    @property
    def deletes_done(self) -> int:
        """Deletes applied so far (core counter)."""
        return self.core.deletes_done

    def ensure_cands(self, count: int) -> None:
        """Wait until the first ``count`` insert rows are pre-drawn.

        A no-op without a pipelined predraw.  Ball ids are validated
        consecutive in trace order, so the cumulative insert count of a
        window upper-bounds every ball id it can read.
        """
        if self._pipeline is not None:
            self._pipeline.ensure(count)

    # ------------------------------------------------------------------
    # scalar event application (the sequential engine; conflict steps)
    # ------------------------------------------------------------------
    def apply_insert(self, ball: int) -> None:
        self.core.insert(ball, self.cands[ball], float(self.us[ball]))

    def apply_delete(self, ball: int) -> None:
        self.core.delete(ball)

    # ------------------------------------------------------------------
    # churn (shared scalar code in the core: both engines run it)
    # ------------------------------------------------------------------
    def bin_leave(self, slot: int) -> None:
        self.core.bin_leave(slot)

    def bin_join(self, slot: int) -> None:
        self.core.bin_join(slot)

    # ------------------------------------------------------------------
    # snapshots and result assembly
    # ------------------------------------------------------------------
    def snapshot(self) -> None:
        live_loads = self.core.live_loads()
        self._max.append(int(live_loads.max()))
        self._tot.append(self.core.occupancy)
        self._live.append(int(self.active.sum()))
        self._nu.append(nu_profile(live_loads))
        if self.record_loads:
            self._snaps.append(self.loads.copy())

    def result(self, engine: str) -> DynamicResult:
        return DynamicResult(
            loads=self.loads,
            active=self.active,
            d=self.d,
            strategy=self.strategy,
            engine=engine,
            inserts=self.inserts_done,
            deletes=self.deletes_done,
            epoch_ends=self.trace.epoch_ends,
            max_load_over_time=np.array(self._max, dtype=np.int64),
            total_load_over_time=np.array(self._tot, dtype=np.int64),
            live_bins_over_time=np.array(self._live, dtype=np.int64),
            nu_profiles=tuple(self._nu),
            partitioned=self.partitioned,
            load_snapshots=tuple(self._snaps) if self.record_loads else None,
        )


def run_sequential_dynamic(
    space: GeometricSpace,
    trace: EventTrace,
    d: int,
    strategy: TieBreak,
    rng,
    *,
    partitioned: bool = False,
    rng_block: int = DEFAULT_RNG_BLOCK,
    record_loads: bool = False,
) -> DynamicResult:
    """Reference engine: replay the trace one event at a time."""
    state = _DynamicState(
        space,
        trace,
        d,
        strategy,
        rng,
        partitioned=partitioned,
        rng_block=rng_block,
        record_loads=record_loads,
    )
    kinds = trace.kinds
    args = trace.args
    epoch_ends = trace.epoch_ends
    next_epoch_idx = 0
    for i in range(trace.num_events):
        kind = kinds[i]
        arg = int(args[i])
        if kind == EventKind.INSERT:
            state.apply_insert(arg)
        elif kind == EventKind.DELETE:
            state.apply_delete(arg)
        elif kind == EventKind.BIN_LEAVE:
            state.bin_leave(arg)
        else:
            state.bin_join(arg)
        if next_epoch_idx < epoch_ends.size and i + 1 == int(epoch_ends[next_epoch_idx]):
            state.snapshot()
            next_epoch_idx += 1
    return state.result("sequential")


def run_batched_dynamic(
    space: GeometricSpace,
    trace: EventTrace,
    d: int,
    strategy: TieBreak,
    rng,
    *,
    partitioned: bool = False,
    rng_block: int = DEFAULT_RNG_BLOCK,
    batch_size: int | None = None,
    record_loads: bool = False,
    backend: KernelBackend | str | None = None,
    threads: int | None = None,
) -> DynamicResult:
    """Vectorized engine: mixed-event conflict-free-prefix batching.

    Bit-identical to :func:`run_sequential_dynamic` (enforced by tests):
    randomness is pre-drawn in the shared layout, decisions run through
    the same tie-break kernels, churn events and snapshots are shared
    scalar code acting as batch barriers, and only events provably
    independent of intra-batch ordering are decided together.

    ``backend`` selects the kernel backend for the churn-free event
    windows (:func:`repro.kernels.resolve_backend` semantics);
    accelerated backends replace the prefix machinery with one compiled
    in-order pass per window, with identical trajectories.

    ``threads`` (:func:`repro.kernels.resolve_threads` semantics) ``>=
    2`` pipelines the insert pre-draw on a producer thread
    (:class:`_PredrawPipeline`): each event window waits only for the
    candidates it can actually read — gated by the cumulative insert
    count at its end — so candidate generation overlaps replay.  The
    window chain itself is a serial dependency (each decision reads the
    loads the previous one wrote), so this overlap is the dynamic
    path's whole multicore story; results are bit-identical for every
    thread count.
    """
    if batch_size is None:
        batch_size = auto_batch_size(space.n, d)
    batch_size = check_positive_int(batch_size, "batch_size")
    backend_obj = resolve_backend(backend)
    eff_threads = resolve_threads(threads)
    state = _DynamicState(
        space,
        trace,
        d,
        strategy,
        rng,
        partitioned=partitioned,
        rng_block=rng_block,
        record_loads=record_loads,
        threads=eff_threads,
    )
    kinds = trace.kinds
    args = trace.args
    # inserts-before-or-at each event index, for pipeline gating (ball
    # ids are consecutive in trace order, so this bounds window reads)
    insert_cum = (
        np.cumsum(kinds == EventKind.INSERT) if state._pipeline is not None else None
    )
    churn_positions = np.nonzero(kinds >= EventKind.BIN_LEAVE)[0]
    churn_ptr = 0
    i = 0
    for epoch_end in trace.epoch_ends.tolist():
        while i < epoch_end:
            if churn_ptr < churn_positions.size and churn_positions[churn_ptr] == i:
                if kinds[i] == EventKind.BIN_LEAVE:
                    state.bin_leave(int(args[i]))
                else:
                    state.bin_join(int(args[i]))
                churn_ptr += 1
                i += 1
                continue
            stop = epoch_end
            if churn_ptr < churn_positions.size:
                stop = min(stop, int(churn_positions[churn_ptr]))
            if insert_cum is not None and stop > 0:
                state.ensure_cands(int(insert_cum[stop - 1]))
            state.core.apply_window(
                kinds,
                args,
                i,
                stop,
                state.cands,
                state.us,
                batch_size=batch_size,
                backend=backend_obj,
            )
            i = stop
        state.snapshot()
    return state.result("batched")


def simulate_dynamics(
    space: GeometricSpace,
    trace: EventTrace,
    d: int = 2,
    *,
    strategy: TieBreak | str = TieBreak.RANDOM,
    seed=None,
    engine: str = "auto",
    batch_size: int | None = None,
    rng_block: int = DEFAULT_RNG_BLOCK,
    partitioned: bool = False,
    record_loads: bool = False,
    backend: KernelBackend | str | None = None,
    threads: int | None = None,
    obs: bool | None = None,
) -> DynamicResult:
    """Replay a dynamic workload on a space — the dynamics facade.

    The dynamic counterpart of :func:`repro.core.placement.place_balls`:
    same seed handling, same guarantee that the engine choice never
    changes the result.

    ``obs`` scopes the observability switch for this call
    (:func:`repro.obs.obs_session`): ``True`` traces a
    ``simulate_dynamics`` span (with window-size histograms and event
    counters underneath), ``False`` silences an otherwise-enabled
    process, ``None`` (default) follows the global/env switch.
    Observability never changes results.

    ``engine="auto"`` resolves to ``"batched"``, which beats the
    sequential reference at every ``n`` on every backend.  ``backend``
    selects the kernel backend (:func:`repro.kernels.resolve_backend`:
    env var → this kwarg → auto-detect); with an accelerated backend the
    batched engine's event windows run through the compiled window
    kernel.  ``engine="sequential"`` is always the pure-Python
    reference and ignores ``backend``.  Results are bit-identical
    across every engine/backend combination.

    ``threads`` (:func:`repro.kernels.resolve_threads`:
    ``REPRO_NUM_THREADS`` → this kwarg → physical cores) ``>= 2``
    pipelines the insert pre-draw on a producer thread in the batched
    engine; the sequential reference stays single-threaded.  Thread
    count never changes results (enforced by
    ``tests/kernels/test_threads_parity.py``).

    Examples
    --------
    >>> from repro.core import RingSpace
    >>> from repro.dynamics import steady_state_trace
    >>> ring = RingSpace.random(128, seed=1)
    >>> trace = steady_state_trace(128, pairs=256, seed=2)
    >>> res = simulate_dynamics(ring, trace, d=2, seed=3)
    >>> res.occupancy
    128
    >>> res.peak_max_load <= 8
    True
    """
    with obs_session(obs):
        if not isinstance(trace, EventTrace):
            raise TypeError(
                f"trace must be an EventTrace, got {type(trace).__name__}"
            )
        strat = TieBreak.coerce(strategy)
        rng = resolve_rng(seed)
        backend_obj = resolve_backend(backend)
        if engine == "auto":
            engine = "batched"
        if engine not in ("sequential", "batched"):
            raise ValueError(
                f"engine must be 'auto', 'sequential' or 'batched', got {engine!r}"
            )
        eff_threads = resolve_threads(threads)
        with trace_span(
            "simulate_dynamics",
            engine=engine,
            backend=backend_obj.name,
            events=trace.num_events,
            n=space.n,
            d=d,
            threads=eff_threads,
        ):
            counter_add("dynamics.events", trace.num_events)
            if engine == "sequential":
                return run_sequential_dynamic(
                    space,
                    trace,
                    d,
                    strat,
                    rng,
                    partitioned=partitioned,
                    rng_block=rng_block,
                    record_loads=record_loads,
                )
            return run_batched_dynamic(
                space,
                trace,
                d,
                strat,
                rng,
                partitioned=partitioned,
                rng_block=rng_block,
                batch_size=batch_size,
                record_loads=record_loads,
                backend=backend_obj,
                threads=eff_threads,
            )
