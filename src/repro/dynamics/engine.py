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
barriers — the batched engine takes its windows from
:meth:`~repro.dynamics.events.EventTrace.windows` — and run through
code shared verbatim between the engines
(:class:`~repro.core.incremental.IncrementalState` and
:class:`~repro.dynamics.result.EpochRecorder`), so the two engines
produce **bit-identical load trajectories** — the same per-epoch
snapshots, not just the same endpoint.  The test suite enforces this
across spaces, strategies, delete policies and churn.

RNG discipline mirrors the static engine: both engines start from
:func:`repro.core.incremental.seeded_state`, which spawns the churn
generator off the seed and then builds a
:class:`repro.core.engine.CandidateStream` bounded at the trace's
insert count.  All insert randomness is drawn up front into that
stream, which holds exactly the rows of
:func:`repro.core.engine.choice_blocks` (so an insert-only trace
reproduces ``run_sequential`` bit-for-bit on the same seed), while
churn re-placement draws from the spawned generator, consumed
identically by both engines because churn handling is shared scalar
code.

When bins leave, ownership is remapped by **cyclic successor**: a
candidate drawn in a departed bin's region belongs to the next active
bin in index order.  On the ring — whose bins are stored in position
order — this is exactly consistent hashing's hand-off to the clockwise
successor; on other spaces it is a documented convention.  Region
measures used by the ``smaller``/``larger`` strategies are merged the
same way, so tie-breaking stays meaningful under churn.
"""

from __future__ import annotations

from repro.core.engine import DEFAULT_RNG_BLOCK, auto_batch_size
from repro.core.incremental import mixed_conflict_prefix, seeded_state
from repro.core.spaces import GeometricSpace
from repro.core.strategies import TieBreak
from repro.dynamics.events import EventKind, EventTrace, check_trace
from repro.dynamics.result import DynamicResult, EpochRecorder
from repro.kernels import KernelBackend, resolve_backend
from repro.obs import counter_add, obs_session, trace_span
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "run_sequential_dynamic",
    "run_batched_dynamic",
    "simulate_dynamics",
    "mixed_conflict_prefix",
]


def _seeded_replay(space, trace, d, strategy, rng, *, partitioned, rng_block):
    """Validate ``trace`` against ``space``; return the seeded state and
    its stream, bounded at the trace's inserts and drawn in full."""
    check_trace(trace, space)
    state, stream = seeded_state(
        space,
        d,
        strategy,
        rng,
        partitioned=partitioned,
        rng_block=rng_block,
        total=trace.num_inserts,
    )
    stream.ensure(trace.num_inserts)
    return state, stream


def _result(state, trace: EventTrace, recorder: EpochRecorder, engine: str):
    """The :class:`DynamicResult` of a finished replay."""
    snapshots = recorder.snapshots
    return DynamicResult(
        loads=state.loads,
        active=state.active,
        d=state.d,
        strategy=state.strategy,
        engine=engine,
        inserts=state.inserts_done,
        deletes=state.deletes_done,
        epoch_ends=trace.epoch_ends,
        partitioned=state.partitioned,
        load_snapshots=None if snapshots is None else tuple(snapshots),
        **recorder.series(),
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
    state, stream = _seeded_replay(
        space, trace, d, strategy, rng, partitioned=partitioned, rng_block=rng_block
    )
    recorder = EpochRecorder(record_loads)
    cands, us = stream.cands, stream.us
    kinds = trace.kinds
    args = trace.args
    epoch_ends = trace.epoch_ends
    next_epoch_idx = 0
    for i in range(trace.num_events):
        kind = kinds[i]
        arg = int(args[i])
        if kind == EventKind.INSERT:
            state.insert(arg, cands[arg], float(us[arg]))
        elif kind == EventKind.DELETE:
            state.delete(arg)
        elif kind == EventKind.BIN_LEAVE:
            state.bin_leave(arg)
        else:
            state.bin_join(arg)
        if next_epoch_idx < epoch_ends.size and i + 1 == int(epoch_ends[next_epoch_idx]):
            recorder.sample(state)
            next_epoch_idx += 1
    return _result(state, trace, recorder, "sequential")


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
) -> DynamicResult:
    """Vectorized engine: mixed-event conflict-free-prefix batching.

    Bit-identical to :func:`run_sequential_dynamic` (enforced by tests):
    randomness is pre-drawn in the shared layout, decisions run through
    the same tie-break kernels, churn events and snapshots are shared
    scalar code acting as batch barriers (the steps of
    :meth:`EventTrace.windows`), and only events provably independent
    of intra-batch ordering are decided together.

    ``backend`` selects the kernel backend for the churn-free event
    windows (:func:`repro.kernels.resolve_backend` semantics);
    accelerated backends replace the prefix machinery with one compiled
    in-order pass per window, with identical trajectories.
    """
    if batch_size is None:
        batch_size = auto_batch_size(space.n, d)
    batch_size = check_positive_int(batch_size, "batch_size")
    backend_obj = resolve_backend(backend)
    state, stream = _seeded_replay(
        space, trace, d, strategy, rng, partitioned=partitioned, rng_block=rng_block
    )
    recorder = EpochRecorder(record_loads)
    for step, a, b in trace.windows():
        if step == "events":
            state.apply_window(trace.kinds, trace.args, a, b, stream.cands,
                               stream.us, batch_size=batch_size,
                               backend=backend_obj)
        elif step == "leave":
            state.bin_leave(b)
        elif step == "join":
            state.bin_join(b)
        else:
            recorder.sample(state)
    return _result(state, trace, recorder, "batched")


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
        check_trace(trace, space)
        strat = TieBreak.coerce(strategy)
        rng = resolve_rng(seed)
        backend_obj = resolve_backend(backend)
        if engine == "auto":
            engine = "batched"
        if engine not in ("sequential", "batched"):
            raise ValueError(
                f"engine must be 'auto', 'sequential' or 'batched', got {engine!r}"
            )
        with trace_span(
            "simulate_dynamics",
            engine=engine,
            backend=backend_obj.name,
            events=trace.num_events,
            n=space.n,
            d=d,
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
            )
