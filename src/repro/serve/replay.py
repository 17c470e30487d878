"""Trace replay through the placement server, with checkpoint/resume.

:func:`replay_trace` feeds an :class:`~repro.dynamics.events.EventTrace`
through a :class:`~repro.serve.server.PlacementServer` using the batch
engines' exact RNG discipline — the churn generator spawned first,
then a :class:`~repro.core.engine.CandidateStream` bounded at the
trace's insert count, which the server draws from lazily.  Because
the server applies events strictly in order through the same decision
kernels, the final loads *and* the per-epoch trajectory are
bit-identical to :func:`repro.dynamics.simulate_dynamics` on the same
seed — the serving tier's parity contract, enforced by
``tests/serve/test_incremental_parity.py``.

Checkpointing: ``checkpoint_at=k`` stops the replay after ``k`` events
and writes a full server snapshot (candidate stream included, plus the
trajectory series so far and the caller's parameters) to
``checkpoint``; ``resume_from`` restores it and replays the rest.  A
resumed replay's artifact is byte-identical to an uninterrupted run's
— checked by the CI ``serve`` leg with ``cmp``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import DEFAULT_RNG_BLOCK, CandidateStream
from repro.core.incremental import IncrementalState
from repro.core.loads import nu_profile
from repro.core.spaces import GeometricSpace
from repro.core.strategies import TieBreak
from repro.dynamics.events import EventKind, EventTrace
from repro.kernels import KernelBackend, resolve_backend
from repro.obs import counter_add, trace_span
from repro.serve.server import LatencyStats, PlacementServer
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_positive_int

__all__ = ["ReplayResult", "checkpoint_params", "replay_trace"]


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one (possibly partial) trace replay through a server.

    Mirrors :class:`repro.dynamics.result.DynamicResult` for the
    trajectory fields so parity tests compare them directly, and adds
    the serving-tier measurements (``latency``, ``max_batch``,
    ``backend``).  ``events`` is how far the replay got —
    ``checkpoint_at`` when it stopped to checkpoint, the trace length
    otherwise.
    """

    loads: np.ndarray
    active: np.ndarray
    d: int
    strategy: TieBreak
    inserts: int
    deletes: int
    events: int
    epoch_ends: np.ndarray
    max_load_over_time: np.ndarray
    total_load_over_time: np.ndarray
    live_bins_over_time: np.ndarray
    nu_profiles: tuple
    latency: LatencyStats
    backend: str
    max_batch: int
    checkpointed: bool = False

    @property
    def occupancy(self) -> int:
        """Balls currently placed."""
        return self.inserts - self.deletes

    @property
    def max_load(self) -> int:
        """Maximum live-bin load at the end of the replay."""
        return int(self.loads[self.active].max())


def checkpoint_params(path) -> dict:
    """The caller-supplied parameter record stored in a checkpoint.

    The ``serve replay`` CLI stores its workload parameters here
    (via ``checkpoint_meta``) so ``--resume`` can rebuild the space and
    trace without re-specifying them.
    """
    from repro.serve.server import _checkpoint_meta

    return _checkpoint_meta(path).get("extra", {}).get("params", {})


def _restore(space, trace, resume_from, backend):
    """Rebuild (server, series, cursor) from a replay checkpoint."""
    server, extra = PlacementServer.load(resume_from, space=space, backend=backend)
    replay_meta = extra["meta"].get("replay")
    if replay_meta is None:
        raise ValueError(f"{resume_from} is not a replay checkpoint")
    if replay_meta["trace_events"] != trace.num_events:
        raise ValueError(
            f"checkpoint was taken against a {replay_meta['trace_events']}-event "
            f"trace, not {trace.num_events} events"
        )
    arrays = extra["arrays"]
    series = {
        "max": arrays["replay_max"].tolist(),
        "tot": arrays["replay_tot"].tolist(),
        "live": arrays["replay_live"].tolist(),
        "nu": list(
            np.split(arrays["replay_nu_flat"], np.cumsum(arrays["replay_nu_lens"])[:-1])
        )
        if arrays["replay_nu_lens"].size
        else [],
    }
    return server, series, int(replay_meta["events_done"])


def replay_trace(
    space: GeometricSpace,
    trace: EventTrace,
    d: int = 2,
    *,
    strategy: TieBreak | str = TieBreak.RANDOM,
    seed=None,
    partitioned: bool = False,
    rng_block: int = DEFAULT_RNG_BLOCK,
    max_batch: int = 1024,
    backend: KernelBackend | str | None = None,
    checkpoint=None,
    checkpoint_at: int | None = None,
    checkpoint_meta: dict | None = None,
    resume_from=None,
) -> ReplayResult:
    """Replay ``trace`` through a placement server; measure latency.

    Submission is micro-batched at ``max_batch`` ops per block with
    churn events and epoch boundaries as barriers — exactly the batched
    dynamic engine's window structure, so results are bit-identical to
    :func:`~repro.dynamics.simulate_dynamics` for the same ``seed``
    regardless of ``max_batch`` or ``backend``.

    ``checkpoint_at`` stops after that many events and saves a resumable
    snapshot to ``checkpoint`` (with ``checkpoint_meta`` recorded for
    :func:`checkpoint_params`); ``resume_from`` continues one.  A
    resumed replay takes its candidate stream and its churn generator
    from the snapshot, so ``seed`` is unused on resume, but applies its
    own ``max_batch``.
    """
    if not isinstance(trace, EventTrace):
        raise TypeError(f"trace must be an EventTrace, got {type(trace).__name__}")
    backend_obj = resolve_backend(backend)
    strat = TieBreak.coerce(strategy)
    max_batch = check_positive_int(max_batch, "max_batch")
    if resume_from is not None:
        server, series, start = _restore(space, trace, resume_from, backend_obj)
        server.max_batch = max_batch  # load() restored the saver's
    else:
        rng = resolve_rng(seed)
        # spawn order matches the dynamic engines: churn RNG first
        aux_rng = rng.spawn(1)[0]
        state = IncrementalState(
            space,
            d,
            strat,
            partitioned=partitioned,
            aux_rng=aux_rng,
            expect_balls=trace.num_inserts,
        )
        stream = CandidateStream(
            space,
            rng,
            d,
            partitioned=partitioned,
            rng_block=rng_block,
            total=trace.num_inserts,
        )
        server = PlacementServer(
            space,
            d,
            strategy=strat,
            partitioned=partitioned,
            max_batch=max_batch,
            backend=backend_obj,
            state=state,
            stream=stream,
        )
        series = {"max": [], "tot": [], "live": [], "nu": []}
        start = 0
    kinds = trace.kinds
    args = trace.args
    churn_positions = np.nonzero(kinds >= EventKind.BIN_LEAVE)[0]
    epoch_ends = trace.epoch_ends
    stop_at = trace.num_events if checkpoint_at is None else int(checkpoint_at)
    if not start <= stop_at <= trace.num_events:
        raise ValueError(
            f"checkpoint_at must be in [{start}, {trace.num_events}], got {stop_at}"
        )
    checkpointed = False
    with trace_span(
        "serve.replay",
        events=trace.num_events,
        n=space.n,
        d=d,
        backend=backend_obj.name,
        max_batch=max_batch,
    ):
        counter_add("serve.replay_events", stop_at - start)
        i = start
        churn_ptr = int(np.searchsorted(churn_positions, i))
        state = server.state
        for epoch_end in epoch_ends.tolist()[len(series["max"]):]:
            while i < epoch_end and i < stop_at:
                if (
                    churn_ptr < churn_positions.size
                    and churn_positions[churn_ptr] == i
                ):
                    if kinds[i] == EventKind.BIN_LEAVE:
                        server.bin_leave(int(args[i]))
                    else:
                        server.bin_join(int(args[i]))
                    churn_ptr += 1
                    i += 1
                    continue
                stop = min(epoch_end, stop_at)
                if churn_ptr < churn_positions.size:
                    stop = min(stop, int(churn_positions[churn_ptr]))
                server.submit_ids(kinds[i:stop], args[i:stop])
                i = stop
            if i < epoch_end:
                break  # checkpoint point reached mid-epoch
            live = state.live_loads()
            series["max"].append(int(live.max()))
            series["tot"].append(state.occupancy)
            series["live"].append(int(state.active.sum()))
            series["nu"].append(nu_profile(live))
        if checkpoint_at is not None and i == stop_at and stop_at < trace.num_events:
            checkpointed = True
            if checkpoint is None:
                raise ValueError("checkpoint_at requires a checkpoint path")
            nu_lens = np.array([p.size for p in series["nu"]], dtype=np.int64)
            nu_flat = (
                np.concatenate(series["nu"])
                if series["nu"]
                else np.empty(0, dtype=np.int64)
            )
            server.save(
                checkpoint,
                extra_arrays={
                    "replay_max": np.array(series["max"], dtype=np.int64),
                    "replay_tot": np.array(series["tot"], dtype=np.int64),
                    "replay_live": np.array(series["live"], dtype=np.int64),
                    "replay_nu_flat": nu_flat,
                    "replay_nu_lens": nu_lens,
                },
                extra_meta={
                    "replay": {
                        "events_done": i,
                        "trace_events": trace.num_events,
                    },
                    "params": checkpoint_meta or {},
                },
            )
    return ReplayResult(
        loads=state.loads,
        active=state.active,
        d=state.d,
        strategy=strat,
        inserts=state.inserts_done,
        deletes=state.deletes_done,
        events=i,
        epoch_ends=epoch_ends,
        max_load_over_time=np.array(series["max"], dtype=np.int64),
        total_load_over_time=np.array(series["tot"], dtype=np.int64),
        live_bins_over_time=np.array(series["live"], dtype=np.int64),
        nu_profiles=tuple(np.asarray(p) for p in series["nu"]),
        latency=server.latency_stats(),
        backend=backend_obj.name,
        max_batch=max_batch,
        checkpointed=checkpointed,
    )
