"""The placement server: incremental state behind a batched request pipeline.

Request model
-------------
Three op kinds (:data:`OP_INSERT`, :data:`OP_DELETE`,
:data:`OP_LOOKUP`; inserts/deletes numerically match
:class:`repro.dynamics.events.EventKind` so trace arrays pass through
unchanged).  Two submission shapes, both applied now:

* **single ops** — :meth:`PlacementServer.insert`,
  :meth:`~PlacementServer.delete` and :meth:`~PlacementServer.lookup`
  take one key and return its bin;
* **batches** — :meth:`PlacementServer.submit` (string keys) /
  :meth:`PlacementServer.submit_ids` (raw ball ids) return per-op
  results.

A batch is micro-batched into blocks of at most ``max_batch``, and
each block is one
:meth:`repro.core.incremental.IncrementalState.apply_window` call —
the compiled ``dynamic_window`` kernel, the scalar reference below
:data:`repro.kernels.SMALL_WINDOW_CUTOFF` ops, or the numpy tier —
which writes every op's result, lookups included, at the moment the
op is decided.  Batching is a *latency/throughput* knob only: any
partition of the same op sequence produces bit-identical placements
and results, because every tier applies ops strictly in order with
the same decision kernels.

Randomness
----------
Candidate bins and tie-break uniforms come from one
:class:`~repro.core.engine.CandidateStream`, drawn lazily as inserts
arrive.  A server's own stream is unbounded and always draws whole
``rng_block`` blocks, so its decisions depend only on its seed, never
on request arrival patterns.  Trace replay (:mod:`repro.serve.replay`)
passes a stream bounded at the trace's insert count, which holds
exactly the rows the dynamic engines read; that is what makes replay
bit-identical to :func:`repro.dynamics.simulate_dynamics`.  Both
streams come from :func:`repro.core.incremental.seeded_state`.

Every applied block records decision latency into the bounded
quarter-octave histogram behind :class:`LatencyStats` (and, when
observability is on, the ``serve.op_latency_s`` / ``serve.batch_ops``
histograms — readable with p50/p95/p99 via ``obs report``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.engine import DEFAULT_RNG_BLOCK, CandidateStream, auto_batch_size
from repro.core.incremental import KIND_DELETE, KIND_INSERT, KIND_LOOKUP
from repro.core.incremental import IncrementalState, seeded_state
from repro.core.spaces import GeometricSpace
from repro.kernels import KernelBackend, resolve_backend
from repro.obs import counter_add, histogram_observe
from repro.obs import enabled as obs_enabled
from repro.obs.metrics import bucket_index
from repro.obs.report import histogram_quantiles
from repro.utils.validation import check_positive_int

__all__ = [
    "OP_INSERT",
    "OP_DELETE",
    "OP_LOOKUP",
    "LatencyStats",
    "PlacementServer",
]

#: Request op codes: the ops of ``IncrementalState.apply_window``
#: windows, whose insert/delete codes match ``EventKind``.
OP_INSERT, OP_DELETE, OP_LOOKUP = KIND_INSERT, KIND_DELETE, KIND_LOOKUP
_OP_CODES = (OP_INSERT, OP_DELETE, OP_LOOKUP)


@dataclass(frozen=True)
class LatencyStats:
    """Decision-latency summary over every op a server has applied.

    Latency is wall time inside the submit path (key mapping + window
    application), attributed per op as its block's time divided by the
    block size, so at ``max_batch=1`` it is each request's latency.
    ``count``, ``total_s``, ``mean_s`` and ``max_s`` are exact; the
    quantiles are count-weighted estimates read from quarter-octave
    buckets, each within a factor ``2**0.25`` of the exact one.
    """

    count: int
    total_s: float
    ops_per_s: float
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    def format(self) -> str:
        """One human-readable summary line (microsecond quantiles)."""
        return (
            f"{self.count} ops in {self.total_s:.3f}s = {self.ops_per_s:,.0f} ops/s; "
            f"per-op latency p50={self.p50_s * 1e6:.2f}us "
            f"p95={self.p95_s * 1e6:.2f}us p99={self.p99_s * 1e6:.2f}us "
            f"max={self.max_s * 1e6:.2f}us"
        )


class _LatencyRecorder:
    """Per-block latency accumulator behind :class:`LatencyStats`.

    Keeps the op count, total time and extreme per-op times exactly,
    and each block's ops as a count in the quarter-octave bucket of
    their per-op time (:func:`repro.obs.metrics.bucket_index`), so
    memory stays bounded for arbitrarily long serving sessions.
    """

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0
        self.buckets: dict[int, int] = {}

    def record(self, seconds: float, ops: int) -> None:
        """Record one applied block of ``ops`` ops taking ``seconds``."""
        per_op = seconds / ops
        bucket = bucket_index(per_op)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + ops
        self.count += ops
        self.total_s += seconds
        self.min_s = min(self.min_s, per_op)
        self.max_s = max(self.max_s, per_op)

    def stats(self) -> LatencyStats:
        """Fold the recorded blocks into a :class:`LatencyStats`."""
        if not self.count:
            return LatencyStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        summary = {"count": self.count, "min": self.min_s, "max": self.max_s,
                   "buckets": self.buckets}
        p50, p95, p99 = histogram_quantiles(summary, (0.50, 0.95, 0.99))
        return LatencyStats(
            count=self.count,
            total_s=self.total_s,
            ops_per_s=self.count / self.total_s if self.total_s > 0 else 0.0,
            mean_s=self.total_s / self.count,
            p50_s=p50,
            p95_s=p95,
            p99_s=p99,
            max_s=self.max_s,
        )


class PlacementServer:
    """A long-lived two-choice placement service over one geometric space.

    Keys are ``str`` (what :meth:`save` can store); :meth:`insert` and
    :meth:`submit` raise :class:`TypeError` for any other key type
    before touching state.  :meth:`submit` and :meth:`submit_ids` raise
    :class:`ValueError`, also before touching state, for an op code
    other than :data:`OP_INSERT`, :data:`OP_DELETE` or
    :data:`OP_LOOKUP`, or for ``kinds`` whose length differs from the
    keys' or args'.  :meth:`bin_leave` and :meth:`bin_join` raise
    :class:`ValueError` before touching state for churn a trace could
    not contain
    (:meth:`~repro.core.incremental.IncrementalState.check_churn`).

    Parameters
    ----------
    space, d, strategy, partitioned:
        The placement process (as in the batch engines).
    seed:
        Master seed of the state and its unbounded candidate stream
        (:func:`repro.core.incremental.seeded_state`, the dynamic
        engines' spawn order).  Ignored when ``state`` is supplied.
    max_batch:
        Micro-batch size: :meth:`submit` and :meth:`submit_ids` apply
        their batches in blocks of at most this many ops (the
        latency-vs-throughput knob; see ``docs/serving.md``).
    backend:
        Kernel backend (:func:`repro.kernels.resolve_backend`
        semantics).
    state, stream:
        Pre-built :class:`~repro.core.incremental.IncrementalState` /
        :class:`~repro.core.engine.CandidateStream` (the replay harness
        and :meth:`load` use these; normal construction leaves them
        ``None``).
    """

    def __init__(
        self,
        space: GeometricSpace,
        d: int = 2,
        *,
        strategy="random",
        seed=None,
        partitioned: bool = False,
        max_batch: int = 1024,
        backend: KernelBackend | str | None = None,
        rng_block: int = DEFAULT_RNG_BLOCK,
        state: IncrementalState | None = None,
        stream: CandidateStream | None = None,
    ) -> None:
        self.space = space
        self.max_batch = check_positive_int(max_batch, "max_batch")
        self.backend = resolve_backend(backend)
        if state is None:
            state, own_stream = seeded_state(
                space, d, strategy, seed, partitioned=partitioned, rng_block=rng_block
            )
            stream = own_stream if stream is None else stream
        elif stream is None:
            raise ValueError("a pre-built state requires a pre-built stream")
        if state.n != space.n:
            raise ValueError(f"state has n={state.n} bins but space has {space.n}")
        self.state = state
        self.stream = stream
        self._batch_size = auto_batch_size(space.n, state.d)
        self._next_ball = 0
        self._key_ball: dict = {}
        self._lat = _LatencyRecorder()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Balls currently placed."""
        return self.state.occupancy

    @property
    def loads(self) -> np.ndarray:
        """The live per-bin load vector (a view; do not mutate)."""
        return self.state.loads

    def latency_stats(self) -> LatencyStats:
        """Decision-latency summary over everything applied so far."""
        return self._lat.stats()

    def reset_latency(self) -> None:
        """Drop the latency history (so benchmarks can exclude warm-up)."""
        self._lat = _LatencyRecorder()

    # ------------------------------------------------------------------
    # scalar fast path
    # ------------------------------------------------------------------
    def insert(self, key: str) -> int:
        """Place one key now; returns its bin.  The batch=1 fast path."""
        _check_keys((key,))
        t0 = perf_counter()
        if key in self._key_ball:
            raise KeyError(f"key {key!r} is already live")
        ball = self._next_ball
        self.stream.ensure(ball + 1)
        self._next_ball = ball + 1
        self._key_ball[key] = ball
        chosen = self.state.insert(
            ball, self.stream.cands[ball], float(self.stream.us[ball])
        )
        self._record(perf_counter() - t0, 1)
        return chosen

    def delete(self, key) -> int:
        """Remove one key now; returns the bin it vacated."""
        t0 = perf_counter()
        ball = self._key_ball.pop(key)
        freed = self.state.delete(ball)
        self._record(perf_counter() - t0, 1)
        return freed

    def lookup(self, key) -> int:
        """The bin currently holding ``key`` (raises for unknown keys)."""
        t0 = perf_counter()
        bin_ = self.state.lookup(self._key_ball[key])
        self._record(perf_counter() - t0, 1)
        return bin_

    # ------------------------------------------------------------------
    # batched submission
    # ------------------------------------------------------------------
    def submit(self, kinds, keys) -> np.ndarray:
        """Apply a batch of ``(kind, key)`` ops now; per-op results.

        ``kinds`` is a sequence of op codes, ``keys`` the matching key
        sequence.  Results: inserts and lookups yield the bin, deletes
        ``-1``.  Ops apply strictly in order; the batch is split into
        ``max_batch`` blocks internally (identical results for any
        split).  A key that is not a ``str`` raises ``TypeError``, and an
        unknown op code or a ``kinds``/``keys`` length mismatch raises
        ``ValueError``, before anything is applied.  Inserting a live
        key or deleting/looking up an unknown key raises ``KeyError``;
        the failing block then changes nothing, key map included
        (earlier blocks stay applied).  A bounded candidate stream too
        short for the batch's inserts raises ``RuntimeError`` before
        anything is applied.
        """
        _check_keys(keys)
        kinds = _check_kinds(kinds, len(keys), "keys")
        # the stream covers every ball id the inserts can take before any
        # key is mapped
        self.stream.ensure(self._next_ball + np.count_nonzero(kinds == OP_INSERT))
        results = np.empty(kinds.size, dtype=np.int64)
        args = np.empty(kinds.size, dtype=np.int64)
        key_ball = self._key_ball
        for a in range(0, kinds.size, self.max_batch):
            b = min(a + self.max_batch, kinds.size)
            t0 = perf_counter()
            ball = self._next_ball
            try:
                for i in range(a, b):
                    kind = kinds[i]
                    key = keys[i]
                    if kind == OP_INSERT:
                        if key in key_ball:
                            raise KeyError(f"key {key!r} is already live")
                        key_ball[key] = ball
                        args[i] = ball
                        ball += 1
                    elif kind == OP_DELETE:
                        args[i] = key_ball.pop(key)
                    else:
                        args[i] = key_ball[key]
            except KeyError:
                # undo the block's mapped ops, latest first
                for j in range(i - 1, a - 1, -1):
                    if kinds[j] == OP_INSERT:
                        del key_ball[keys[j]]
                    elif kinds[j] == OP_DELETE:
                        key_ball[keys[j]] = int(args[j])
                raise
            self._next_ball = ball
            self._apply_block(kinds, args, a, b, results)
            self._record(perf_counter() - t0, b - a)
        return results

    def submit_ids(self, kinds, args) -> np.ndarray:
        """Apply a batch of ops addressed by raw ball id (replay path).

        The args must keep the trace discipline
        (:class:`~repro.dynamics.events.EventTrace` validates it for
        traces; this method re-checks): insert args are consecutive from
        the server's next ball id, every id is non-negative and below the
        next ball id once the batch's inserts are counted, and every
        delete targets a ball placed at its turn.  A lookup of an
        unplaced ball yields ``-1``.  No key map is touched.  Args that
        break the discipline, an unknown op code or a ``kinds``/``args``
        length mismatch raise ``ValueError``, and a bounded candidate
        stream too short for the inserts ``RuntimeError``, before
        anything is applied.
        """
        args = np.ascontiguousarray(args, dtype=np.int64)
        kinds = _check_kinds(kinds, args.size, "args")
        t0 = perf_counter()
        inserts = self._check_ids(kinds, args)
        self.stream.ensure(self._next_ball + inserts)
        self._next_ball += inserts
        results = np.empty(args.size, dtype=np.int64)
        for a in range(0, args.size, self.max_batch):
            b = min(a + self.max_batch, args.size)
            self._apply_block(kinds, args, a, b, results)
            t1 = perf_counter()
            self._record(t1 - t0, b - a)
            t0 = t1
        return results

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------
    def bin_leave(self, slot: int) -> None:
        """A bin departs; its balls re-place onto the survivors.

        Invalid churn raises before any change
        (:meth:`~repro.core.incremental.IncrementalState.bin_leave`).
        """
        self.state.bin_leave(slot)

    def bin_join(self, slot: int) -> None:
        """A bin (re)joins empty; invalid churn raises before any change."""
        self.state.bin_join(slot)

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def save(self, path, *, extra_arrays=None, extra_meta=None) -> None:
        """Checkpoint the whole server to one NPZ file.

        Writes the incremental core (loads, ball→bin index, active mask,
        churn RNG), the key map, the candidate stream's RNG state +
        unconsumed tail, and the serving knob ``max_batch`` — everything
        needed for :meth:`load` to resume
        byte-identically to an uninterrupted server.  Keys are stored
        as their UTF-8 bytes (lone surrogates pass through) plus
        per-key byte lengths, so every ``str`` round-trips exactly.
        """
        arrays = dict(extra_arrays or {})
        encoded = [k.encode("utf-8", "surrogatepass") for k in self._key_ball]
        arrays["serve_key_bytes"] = np.frombuffer(b"".join(encoded), np.uint8)
        arrays["serve_key_lens"] = np.fromiter(
            map(len, encoded), dtype=np.int64, count=len(encoded)
        )
        arrays["serve_key_ids"] = np.fromiter(
            self._key_ball.values(), dtype=np.int64, count=len(encoded)
        )
        stream_meta, stream_arrays = self.stream.state_dict(self._next_ball)
        arrays.update(stream_arrays)
        meta = {
            "next_ball": self._next_ball,
            "max_batch": self.max_batch,
            "stream": stream_meta,
        }
        full_meta = dict(extra_meta or {})
        full_meta["server"] = meta
        self.state.save(path, extra_arrays=arrays, extra_meta=full_meta)

    @classmethod
    def load(
        cls,
        path,
        *,
        space: GeometricSpace | None = None,
        backend: KernelBackend | str | None = None,
    ):
        """Restore a :meth:`save` checkpoint; returns ``(server, extra)``.

        ``extra`` is the ``{"meta", "arrays"}`` dict of whatever the
        saver piggybacked (the replay harness stores its trajectory
        series there).  ``space`` may be omitted for ring snapshots.
        """
        state, extra = IncrementalState.load(path, space=space)
        meta = extra["meta"].pop("server")
        arrays = extra["arrays"]
        blob = arrays.pop("serve_key_bytes").tobytes()
        ends = np.cumsum(arrays.pop("serve_key_lens")).tolist()
        keys = [
            blob[a:b].decode("utf-8", "surrogatepass")
            for a, b in zip([0, *ends[:-1]], ends)
        ]
        ids = arrays.pop("serve_key_ids").tolist()
        stream = CandidateStream.from_state(
            state.space,
            state.d,
            meta["stream"],
            {name: arrays.pop(name) for name in ("stream_cands", "stream_us")},
        )
        server = cls(
            state.space,
            state.d,
            strategy=state.strategy,
            partitioned=state.partitioned,
            max_batch=meta["max_batch"],
            backend=backend,
            state=state,
            stream=stream,
        )
        server._next_ball = meta["next_ball"]
        server._key_ball = dict(zip(keys, ids))
        return server, extra

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_ids(self, kinds: np.ndarray, args: np.ndarray) -> int:
        """Raise ``ValueError`` unless ``submit_ids`` ops keep the trace
        discipline against the current state; returns their insert
        count."""
        first = self._next_ball
        ins = np.flatnonzero(kinds == OP_INSERT)
        if not np.array_equal(args[ins], np.arange(first, first + ins.size)):
            raise ValueError(
                f"submit_ids insert args must be consecutive from ball {first}"
            )
        end = first + ins.size
        if args.size and (args.min() < 0 or args.max() >= end):
            raise ValueError(f"submit_ids ball ids must lie in [0, {end})")
        # a delete's ball was placed before the call, or inserted
        # earlier in it, and no earlier delete took it
        dels = np.flatnonzero(kinds == OP_DELETE)
        ids, held = args[dels], self.state.ball_bin
        old, new = ids < min(first, held.size), ids >= first
        placed = np.zeros(ids.size, dtype=bool)
        placed[old] = held[ids[old]] >= 0
        placed[new] = ins[ids[new] - first] < dels[new]
        ids.sort()  # a gathered copy; sorting beats np.unique's hashing
        if not placed.all() or (ids[1:] == ids[:-1]).any():
            raise ValueError("submit_ids deletes must target placed balls")
        return ins.size

    def _apply_block(self, kinds, args, a: int, b: int, results) -> None:
        """Apply ops ``[a, b)`` in one window, writing their results; the
        stream already covers their ball ids."""
        stream = self.stream
        self.state.apply_window(kinds, args, a, b, stream.cands, stream.us,
                                batch_size=self._batch_size,
                                backend=self.backend, out=results)

    def _record(self, seconds: float, ops: int) -> None:
        self._lat.record(seconds, ops)
        if obs_enabled():
            counter_add("serve.ops", ops)
            histogram_observe("serve.batch_ops", ops)
            histogram_observe("serve.op_latency_s", seconds / ops)


def _check_kinds(kinds, count: int, what: str) -> np.ndarray:
    """Validate a batch's op codes against its ``count`` keys or args.

    Returns the codes as contiguous ``int8``; raises :class:`ValueError`
    for a shape mismatch or an unknown code, before any state change.
    """
    raw = np.asarray(kinds)
    if raw.shape != (count,):
        raise ValueError(f"op kinds of shape {raw.shape} do not match {count} {what}")
    bad = ~np.isin(raw, _OP_CODES)
    if bad.any():
        raise ValueError(
            f"invalid op code {raw[bad][0]!r}; expected one of {_OP_CODES}"
        )
    return np.ascontiguousarray(raw, dtype=np.int8)


def _check_keys(keys) -> None:
    """Reject non-``str`` keys: checkpoints store keys as strings, so
    ``5`` or ``b"ab"`` would not survive :meth:`PlacementServer.save`."""
    for key in keys:
        if not isinstance(key, str):
            raise TypeError(
                f"PlacementServer keys must be str, got {type(key).__name__} "
                f"{key!r}"
            )


def _checkpoint_meta(path) -> dict:
    """Read just the JSON metadata record of a server/replay checkpoint."""
    with np.load(path, allow_pickle=False) as payload:
        return json.loads(bytes(payload["core_meta"]).decode("utf-8"))
