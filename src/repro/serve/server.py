"""The placement server: incremental state behind a batched request pipeline.

Request model
-------------
Three op kinds (:data:`OP_INSERT`, :data:`OP_DELETE`,
:data:`OP_LOOKUP`; inserts/deletes numerically match
:class:`repro.dynamics.events.EventKind` so trace arrays pass through
unchanged).  Two submission shapes:

* **immediate** — :meth:`PlacementServer.submit` (string keys) /
  :meth:`PlacementServer.submit_ids` (raw ball ids) apply a batch now
  and return per-op results;
* **queued** — :meth:`PlacementServer.enqueue` buffers ops into a
  bounded pending queue (capacity ``max_pending``); the queue drains
  automatically when full (backpressure: the producing caller absorbs
  the flush cost) and on :meth:`PlacementServer.flush`, which returns
  the queued ops' results in order.

Either way the ops are micro-batched into blocks of at most
``max_batch`` and applied through
:meth:`repro.core.incremental.IncrementalState.apply_window` — the
compiled ``dynamic_window`` kernel for large mutation runs, the scalar
reference below :data:`repro.kernels.SMALL_WINDOW_CUTOFF`.  Lookups
between mutations are answered by one vectorized gather from the
ball→bin index.  Batching is a *latency/throughput* knob only: any
partition of the same op sequence produces bit-identical placements,
because every tier applies events strictly in order with the same
decision kernels.

Randomness
----------
Candidate bins and tie-break uniforms come from a
:class:`CandidateStream`.  The online mode draws full RNG blocks
lazily as inserts arrive — the block layout is fixed (always
``rng_block`` rows), so a server's decisions depend only on its seed,
never on request arrival patterns.  The pre-drawn mode wraps the batch
engines' :func:`repro.core.engine.choice_blocks` arrays, which is what
makes trace replay (:mod:`repro.serve.replay`) bit-identical to
:func:`repro.dynamics.simulate_dynamics`.

Every applied block records decision latency into a
:class:`LatencyStats` reservoir (and, when observability is on, the
``serve.op_latency_s`` / ``serve.batch_ops`` histograms — readable
with p50/p95/p99 via ``obs report``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.engine import DEFAULT_RNG_BLOCK, auto_batch_size
from repro.core.incremental import IncrementalState
from repro.core.spaces import GeometricSpace
from repro.kernels import KernelBackend, resolve_backend, resolve_threads
from repro.obs import counter_add, histogram_observe
from repro.obs import enabled as obs_enabled
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "OP_INSERT",
    "OP_DELETE",
    "OP_LOOKUP",
    "CandidateStream",
    "LatencyStats",
    "PlacementServer",
]

#: Request op codes.  Insert/delete match ``EventKind`` numerically.
OP_INSERT = 0
OP_DELETE = 1
OP_LOOKUP = 2


class CandidateStream:
    """Per-insert candidate bins + tie-break uniforms, indexed by ball id.

    Two modes:

    * **online** (the constructor): draws full blocks of ``rng_block``
      rows lazily from ``rng`` as :meth:`ensure` demands them.  Always
      whole blocks, so the stream is a pure function of the seed —
      independent of request batching.
    * **pre-drawn** (:meth:`predrawn`): wraps externally materialized
      arrays (the batch engines' :func:`choice_blocks` layout), with an
      optional ``ensure`` hook gating a background predraw pipeline.
    """

    def __init__(
        self,
        space: GeometricSpace,
        rng,
        d: int,
        *,
        partitioned: bool = False,
        rng_block: int = DEFAULT_RNG_BLOCK,
    ) -> None:
        self._space = space
        self._rng = resolve_rng(rng)
        self.d = check_positive_int(d, "d")
        self.partitioned = bool(partitioned)
        self.rng_block = check_positive_int(rng_block, "rng_block")
        self.cands = np.empty((0, self.d), dtype=np.int64)
        self.us = np.empty(0, dtype=np.float64)
        self.drawn = 0
        self._ensure_hook = None
        self._online = True

    @classmethod
    def predrawn(cls, cands: np.ndarray, us: np.ndarray, *, ensure=None):
        """Wrap pre-materialized candidate arrays (replay parity mode).

        ``ensure`` (optional) is called with the required row count
        before reads — the hook a background predraw pipeline gates on.
        """
        stream = cls.__new__(cls)
        stream._space = None
        stream._rng = None
        stream.d = int(cands.shape[1])
        stream.partitioned = False
        stream.rng_block = DEFAULT_RNG_BLOCK
        stream.cands = cands
        stream.us = us
        stream.drawn = cands.shape[0]
        stream._ensure_hook = ensure
        stream._online = False
        return stream

    def ensure(self, count: int) -> None:
        """Materialize candidate rows ``[0, count)`` (blocking if needed)."""
        if not self._online:
            if self._ensure_hook is not None:
                self._ensure_hook(count)
            elif count > self.drawn:
                raise RuntimeError(
                    f"pre-drawn candidate stream exhausted: need {count} rows, "
                    f"have {self.drawn}"
                )
            return
        while self.drawn < count:
            if self.drawn + self.rng_block > self.cands.shape[0]:
                grow = max(self.drawn + self.rng_block, 2 * self.cands.shape[0])
                cands = np.empty((grow, self.d), dtype=np.int64)
                us = np.empty(grow, dtype=np.float64)
                cands[: self.drawn] = self.cands[: self.drawn]
                us[: self.drawn] = self.us[: self.drawn]
                self.cands, self.us = cands, us
            b = self.rng_block
            self.cands[self.drawn : self.drawn + b] = self._space.sample_choice_bins(
                self._rng, b, self.d, partitioned=self.partitioned
            )
            self.us[self.drawn : self.drawn + b] = self._rng.random(b)
            self.drawn += b

    def state_dict(self, consumed: int) -> tuple[dict, dict]:
        """Snapshot the stream for :meth:`PlacementServer.save`.

        Returns ``(meta, arrays)``: the RNG state plus the drawn-but-
        unconsumed tail rows ``[consumed, drawn)``, so a restored
        server's future draws are byte-identical to an uninterrupted
        one's.  Pre-drawn streams raise — replay owns their restore
        (it re-predraws from the seed).
        """
        if not self._online:
            raise RuntimeError(
                "pre-drawn candidate streams are snapshotted by their owner "
                "(replay re-predraws from the seed); only online streams "
                "save RNG state"
            )
        meta = {
            "kind": "online",
            "rng_state": self._rng.bit_generator.state,
            "rng_block": self.rng_block,
            "partitioned": self.partitioned,
            "drawn": self.drawn,
            "consumed": int(consumed),
        }
        arrays = {
            "serve_tail_cands": self.cands[consumed : self.drawn],
            "serve_tail_us": self.us[consumed : self.drawn],
        }
        return meta, arrays

    @classmethod
    def from_state(cls, space, d, meta: dict, arrays: dict):
        """Rebuild an online stream from :meth:`state_dict` output."""
        stream = cls(
            space,
            np.random.default_rng(0),
            d,
            partitioned=meta["partitioned"],
            rng_block=meta["rng_block"],
        )
        stream._rng.bit_generator.state = meta["rng_state"]
        drawn, consumed = meta["drawn"], meta["consumed"]
        stream.cands = np.zeros((drawn, d), dtype=np.int64)
        stream.us = np.zeros(drawn, dtype=np.float64)
        stream.cands[consumed:drawn] = arrays["serve_tail_cands"]
        stream.us[consumed:drawn] = arrays["serve_tail_us"]
        stream.drawn = drawn
        return stream


@dataclass(frozen=True)
class LatencyStats:
    """Decision-latency summary over every op a server has applied.

    Latency is wall time inside the submit path (key mapping + window
    application), attributed per op as its block's time divided by the
    block size; quantiles are count-weighted over blocks, so a batch=1
    stream yields true per-request latencies.
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

    One entry per applied block — bounded memory for arbitrarily long
    serving sessions, exact count-weighted quantiles over per-op times.
    """

    def __init__(self) -> None:
        self._per_op: list[float] = []
        self._ops: list[int] = []
        self.count = 0
        self.total_s = 0.0

    def record(self, seconds: float, ops: int) -> None:
        """Record one applied block of ``ops`` ops taking ``seconds``."""
        self._per_op.append(seconds / ops)
        self._ops.append(ops)
        self.count += ops
        self.total_s += seconds

    def stats(self) -> LatencyStats:
        """Fold the recorded blocks into a :class:`LatencyStats`."""
        if not self.count:
            return LatencyStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        per_op = np.array(self._per_op)
        ops = np.array(self._ops, dtype=np.int64)
        order = np.argsort(per_op, kind="stable")
        per_op, ops = per_op[order], ops[order]
        cum = np.cumsum(ops)

        def q(quantile: float) -> float:
            target = quantile * self.count
            idx = int(np.searchsorted(cum, target))
            return float(per_op[min(idx, per_op.size - 1)])

        return LatencyStats(
            count=self.count,
            total_s=self.total_s,
            ops_per_s=self.count / self.total_s if self.total_s > 0 else 0.0,
            mean_s=self.total_s / self.count,
            p50_s=q(0.50),
            p95_s=q(0.95),
            p99_s=q(0.99),
            max_s=float(per_op[-1]),
        )


class PlacementServer:
    """A long-lived two-choice placement service over one geometric space.

    Keys are ``str`` (what :meth:`save` can store); :meth:`insert`,
    :meth:`submit` and :meth:`enqueue` raise :class:`TypeError` for any
    other key type before touching state.  :meth:`bin_leave` and
    :meth:`bin_join` raise :class:`ValueError`, also before touching
    state, for churn a trace could not contain
    (:meth:`~repro.core.incremental.IncrementalState.check_churn`).

    Parameters
    ----------
    space, d, strategy, partitioned:
        The placement process (as in the batch engines).
    seed:
        Master seed: the churn RNG is spawned first, then the online
        candidate stream — the same spawn order as the dynamic
        engines.  Ignored when ``state`` is supplied.
    max_batch:
        Micro-batch size: immediate submits and queue drains are
        applied in blocks of at most this many ops (the
        latency-vs-throughput knob; see ``docs/serving.md``).
    max_pending:
        Bounded queue capacity for :meth:`enqueue`; reaching it drains
        the queue synchronously (backpressure).
    backend, threads:
        Kernel backend / thread budget
        (:func:`repro.kernels.resolve_backend` /
        :func:`~repro.kernels.resolve_threads` semantics).  Threads
        ``>= 2`` matter on the replay path, where candidate pre-draw
        runs on a producer pipeline.
    state, stream:
        Pre-built :class:`~repro.core.incremental.IncrementalState` /
        :class:`CandidateStream` (the replay harness and
        :meth:`load` use these; normal construction leaves them
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
        max_pending: int = 65536,
        backend: KernelBackend | str | None = None,
        threads: int | None = None,
        rng_block: int = DEFAULT_RNG_BLOCK,
        state: IncrementalState | None = None,
        stream: CandidateStream | None = None,
    ) -> None:
        self.space = space
        self.max_batch = check_positive_int(max_batch, "max_batch")
        self.max_pending = check_positive_int(max_pending, "max_pending")
        if self.max_pending < self.max_batch:
            raise ValueError(
                f"max_pending ({self.max_pending}) must be >= max_batch "
                f"({self.max_batch})"
            )
        self.backend = resolve_backend(backend)
        self.threads = resolve_threads(threads)
        if state is None:
            rng = resolve_rng(seed)
            # spawn order mirrors the dynamic engines: churn RNG first,
            # then the insert candidate stream
            aux_rng = rng.spawn(1)[0]
            state = IncrementalState(
                space, d, strategy, partitioned=partitioned, aux_rng=aux_rng
            )
            if stream is None:
                stream = CandidateStream(
                    space,
                    rng,
                    d,
                    partitioned=partitioned,
                    rng_block=rng_block,
                )
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
        self._pending_kinds = np.empty(self.max_pending, dtype=np.int8)
        self._pending_keys: list = []
        self._pending_n = 0
        self._delivered: list[np.ndarray] = []

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
        self._flush_if_pending()
        t0 = perf_counter()
        if key in self._key_ball:
            raise KeyError(f"key {key!r} is already live")
        ball = self._next_ball
        self._next_ball = ball + 1
        self._key_ball[key] = ball
        self.stream.ensure(ball + 1)
        chosen = self.state.insert(
            ball, self.stream.cands[ball], float(self.stream.us[ball])
        )
        self._record(perf_counter() - t0, 1)
        return chosen

    def delete(self, key) -> int:
        """Remove one key now; returns the bin it vacated."""
        self._flush_if_pending()
        t0 = perf_counter()
        ball = self._key_ball.pop(key)
        freed = self.state.delete(ball)
        self._record(perf_counter() - t0, 1)
        return freed

    def lookup(self, key) -> int:
        """The bin currently holding ``key`` (raises for unknown keys)."""
        self._flush_if_pending()
        t0 = perf_counter()
        bin_ = self.state.lookup(self._key_ball[key])
        self._record(perf_counter() - t0, 1)
        return bin_

    # ------------------------------------------------------------------
    # immediate batched submission
    # ------------------------------------------------------------------
    def submit(self, kinds, keys) -> np.ndarray:
        """Apply a batch of ``(kind, key)`` ops now; per-op results.

        ``kinds`` is a sequence of op codes, ``keys`` the matching key
        sequence.  Results: inserts and lookups yield the bin, deletes
        ``-1``.  Ops apply strictly in order; the batch is split into
        ``max_batch`` blocks internally (identical results for any
        split).  A key that is not a ``str`` raises ``TypeError`` before
        anything is applied.  Inserting a live key or deleting/looking
        up an unknown key raises ``KeyError`` before any op of the
        failing block is applied (earlier blocks stay applied; the key
        map may hold the failing block's earlier inserts).
        """
        _check_keys(keys)
        self._flush_if_pending()
        kinds = np.ascontiguousarray(kinds, dtype=np.int8)
        return self._submit_keyed(kinds, keys)

    def submit_ids(self, kinds, args) -> np.ndarray:
        """Apply a batch of ops addressed by raw ball id (replay path).

        Insert args must be consecutive from the server's next ball id
        — the trace discipline (:class:`~repro.dynamics.events.EventTrace`
        validates it for traces; this method re-checks).  No key map is
        touched.
        """
        self._flush_if_pending()
        kinds = np.ascontiguousarray(kinds, dtype=np.int8)
        args = np.ascontiguousarray(args, dtype=np.int64)
        results = np.empty(args.size, dtype=np.int64)
        for a in range(0, args.size, self.max_batch):
            b = min(a + self.max_batch, args.size)
            t0 = perf_counter()
            ins = kinds[a:b] == OP_INSERT
            n_ins = int(ins.sum())
            if n_ins:
                expected = np.arange(
                    self._next_ball, self._next_ball + n_ins, dtype=np.int64
                )
                if not np.array_equal(args[a:b][ins], expected):
                    raise ValueError(
                        "submit_ids insert args must be consecutive from "
                        f"ball {self._next_ball}"
                    )
                self._next_ball += n_ins
            self._apply_block(kinds, args, a, b, results)
            self._record(perf_counter() - t0, b - a)
        return results

    # ------------------------------------------------------------------
    # queued submission with backpressure
    # ------------------------------------------------------------------
    def enqueue(self, kind: int, key: str) -> None:
        """Buffer one op; drains synchronously when the queue fills.

        The queue is the bounded ingress buffer: up to ``max_pending``
        ops accumulate, then the enqueueing caller pays for the drain
        (backpressure).  Results are delivered, in op order, by the
        next :meth:`flush`.
        """
        _check_keys((key,))
        self._pending_kinds[self._pending_n] = kind
        self._pending_keys.append(key)
        self._pending_n += 1
        if self._pending_n >= self.max_pending:
            self._delivered.append(self._drain_pending())

    def flush(self) -> np.ndarray:
        """Drain the queue; results of every op enqueued since last flush."""
        if self._pending_n:
            self._delivered.append(self._drain_pending())
        parts, self._delivered = self._delivered, []
        if not parts:
            return np.empty(0, dtype=np.int64)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    @property
    def pending(self) -> int:
        """Ops currently buffered in the queue."""
        return self._pending_n

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------
    def bin_leave(self, slot: int) -> None:
        """A bin departs; its balls re-place onto the survivors."""
        self.state.check_churn(slot, leaving=True)
        self._flush_if_pending()
        self.state.bin_leave(slot)

    def bin_join(self, slot: int) -> None:
        """A bin (re)joins empty."""
        self.state.check_churn(slot, leaving=False)
        self._flush_if_pending()
        self.state.bin_join(slot)

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def save(self, path, *, extra_arrays=None, extra_meta=None) -> None:
        """Checkpoint the whole server to one NPZ file.

        Flushes the queue, then writes the incremental core (loads,
        ball→bin index, active mask, churn RNG), the key map, the
        candidate stream's RNG state + unconsumed tail, and the serving
        knobs — everything needed for :meth:`load` to resume
        byte-identically to an uninterrupted server.  Pre-drawn
        streams (replay) store no stream state; their owner re-predraws.
        """
        self.flush()
        arrays = dict(extra_arrays or {})
        keys = list(self._key_ball)
        arrays["serve_keys"] = (
            np.array(keys, dtype=np.str_) if keys else np.empty(0, dtype="U1")
        )
        arrays["serve_key_ids"] = np.fromiter(
            (self._key_ball[k] for k in keys), dtype=np.int64, count=len(keys)
        )
        meta = {
            "next_ball": self._next_ball,
            "max_batch": self.max_batch,
            "max_pending": self.max_pending,
        }
        if self.stream._online:
            stream_meta, stream_arrays = self.stream.state_dict(self._next_ball)
            meta["stream"] = stream_meta
            arrays.update(stream_arrays)
        else:
            meta["stream"] = {"kind": "predrawn", "consumed": self._next_ball}
        full_meta = dict(extra_meta or {})
        full_meta["server"] = meta
        self.state.save(path, extra_arrays=arrays, extra_meta=full_meta)

    @classmethod
    def load(
        cls,
        path,
        *,
        space: GeometricSpace | None = None,
        stream: CandidateStream | None = None,
        backend: KernelBackend | str | None = None,
        threads: int | None = None,
    ):
        """Restore a :meth:`save` checkpoint; returns ``(server, extra)``.

        ``extra`` is the ``{"meta", "arrays"}`` dict of whatever the
        saver piggybacked (the replay harness stores its trajectory
        series there).  ``space`` may be omitted for ring snapshots.
        A checkpoint of a pre-drawn (replay) stream needs ``stream=``
        re-supplied by the caller.
        """
        state, extra = IncrementalState.load(path, space=space)
        meta = extra["meta"].pop("server")
        arrays = extra["arrays"]
        keys = arrays.pop("serve_keys").tolist()
        ids = arrays.pop("serve_key_ids").tolist()
        stream_meta = meta["stream"]
        if stream is None:
            if stream_meta.get("kind") != "online":
                raise ValueError(
                    "checkpoint was saved with a pre-drawn candidate stream; "
                    "pass stream= (the replay harness re-predraws it)"
                )
            stream = CandidateStream.from_state(
                state.space,
                state.d,
                stream_meta,
                {
                    "serve_tail_cands": arrays.pop("serve_tail_cands"),
                    "serve_tail_us": arrays.pop("serve_tail_us"),
                },
            )
        else:
            arrays.pop("serve_tail_cands", None)
            arrays.pop("serve_tail_us", None)
        server = cls(
            state.space,
            state.d,
            strategy=state.strategy,
            partitioned=state.partitioned,
            max_batch=meta["max_batch"],
            max_pending=meta["max_pending"],
            backend=backend,
            threads=threads,
            state=state,
            stream=stream,
        )
        server._next_ball = meta["next_ball"]
        server._key_ball = dict(zip(keys, ids))
        return server, extra

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _flush_if_pending(self) -> None:
        if self._pending_n:
            self._delivered.append(self._drain_pending())

    def _drain_pending(self) -> np.ndarray:
        kinds = self._pending_kinds[: self._pending_n].copy()
        keys = self._pending_keys
        self._pending_keys = []
        self._pending_n = 0
        return self._submit_keyed(kinds, keys)

    def _submit_keyed(self, kinds: np.ndarray, keys) -> np.ndarray:
        results = np.empty(kinds.size, dtype=np.int64)
        args = np.empty(kinds.size, dtype=np.int64)
        key_ball = self._key_ball
        for a in range(0, kinds.size, self.max_batch):
            b = min(a + self.max_batch, kinds.size)
            t0 = perf_counter()
            ball = self._next_ball
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
            self._next_ball = ball
            self._apply_block(kinds, args, a, b, results)
            self._record(perf_counter() - t0, b - a)
        return results

    def _apply_block(self, kinds, args, a: int, b: int, results) -> None:
        """Apply ops ``[a, b)``: mutation runs batched, lookups gathered."""
        self.stream.ensure(self._next_ball)
        state = self.state
        is_lookup = (kinds[a:b] == OP_LOOKUP).view(np.int8)
        run_edges = np.flatnonzero(np.diff(is_lookup)) + 1 + a
        bounds = [a, *run_edges.tolist(), b]
        for r in range(len(bounds) - 1):
            ra, rb = bounds[r], bounds[r + 1]
            if kinds[ra] == OP_LOOKUP:
                results[ra:rb] = state.ball_bin[args[ra:rb]]
            else:
                state.apply_window(
                    kinds,
                    args,
                    ra,
                    rb,
                    self.stream.cands,
                    self.stream.us,
                    batch_size=self._batch_size,
                    backend=self.backend,
                )
                seg_kinds = kinds[ra:rb]
                seg = results[ra:rb]
                seg[...] = -1
                ins = seg_kinds == OP_INSERT
                if ins.any():
                    seg[ins] = state.ball_bin[args[ra:rb][ins]]

    def _record(self, seconds: float, ops: int) -> None:
        self._lat.record(seconds, ops)
        if obs_enabled():
            counter_add("serve.ops", ops)
            histogram_observe("serve.batch_ops", ops)
            histogram_observe("serve.op_latency_s", seconds / ops)


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
