"""``repro.serve``: a long-lived, stateful online placement service.

The paper's two-choice placement is inherently *online* — each ball
commits on arrival — yet the batch engines want whole traces up
front.  This tier serves the process one request at a time without
giving up the batch engines' speed:

:mod:`repro.serve.server`
    :class:`PlacementServer` — live
    :class:`~repro.core.incremental.IncrementalState` behind a request
    pipeline: single ops apply at once, ``submit()``/``submit_ids()``
    micro-batch insert/lookup/delete ops into blocks of at most
    ``max_batch``, each one ``apply_window`` call (the compiled
    ``dynamic_window`` kernel, or the scalar reference below
    :data:`repro.kernels.SMALL_WINDOW_CUTOFF`), and ``save()``/
    ``load()`` checkpoint the whole server to NPZ mid-stream.
:mod:`repro.serve.replay`
    :func:`replay_trace` — feed a :class:`repro.dynamics.events.EventTrace`
    through a server with the batch engines' exact RNG layout (one
    :class:`~repro.core.engine.CandidateStream`, bounded at the trace's
    insert count), so final loads *and* per-epoch trajectories are
    bit-identical to :func:`repro.dynamics.simulate_dynamics`
    (enforced by ``tests/serve``); measures decision latency along the
    way.
:mod:`repro.serve.workload`
    :func:`zipf_replay_ops` — the Zipf-skewed lookup/churn op stream
    behind ``benchmarks/run_serve_benchmarks.py`` (``BENCH_serve.json``).
:mod:`repro.serve.cli`
    ``python -m repro.experiments serve replay ...`` — deterministic
    replay artifacts, checkpoint/resume, latency summaries.

Decision semantics never depend on batching: a request stream produces
the same placements whether submitted one op at a time, in
micro-batches, or replayed as one trace — the same contract the batch
engines make, extended to a server that never sees its trace end.
:class:`CandidateStream` is re-exported from :mod:`repro.core.engine`,
where the dynamic engines share it.
"""

from repro.core.engine import CandidateStream
from repro.serve.server import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    LatencyStats,
    PlacementServer,
)
from repro.serve.replay import ReplayResult, checkpoint_params, replay_trace
from repro.serve.workload import zipf_replay_ops

__all__ = [
    "OP_INSERT",
    "OP_DELETE",
    "OP_LOOKUP",
    "CandidateStream",
    "LatencyStats",
    "PlacementServer",
    "ReplayResult",
    "checkpoint_params",
    "replay_trace",
    "zipf_replay_ops",
]
