"""Event traces for dynamic balls-into-bins workloads.

A *trace* is a concrete, replayable sequence of events over the four
dynamic operations the DHT setting needs:

* ``INSERT`` — a new ball arrives and is placed with d choices,
* ``DELETE`` — a previously inserted ball departs,
* ``BIN_LEAVE`` — a bin (server) leaves; its balls are re-placed,
* ``BIN_JOIN`` — a bin slot comes (back) online, initially empty.

Traces are generated *ahead of execution*: which ball a delete removes
depends only on the arrival/departure order and the delete policy —
never on where balls were placed — so generators can resolve delete
targets to concrete ball ids.  That makes a trace a pure data object
both engines replay identically, which is what allows the batched
engine (:mod:`repro.dynamics.engine`) to prove bit-identical
trajectories against the sequential reference.

Delete policies:

* ``random`` — a uniform ball among the currently live ones (the
  memoryless departure model; matches M/M/∞ thinning),
* ``fifo`` — the oldest live ball (expiring caches, TTL'd DHT items),
* ``lifo`` — the newest live ball (adversarial: bursts that churn the
  most recently placed mass).

Generators produce the workload families of the DHT application:
:func:`steady_state_trace` (fixed-occupancy insert/delete alternation),
:func:`poisson_trace` (the embedded jump chain of an M/M/∞ queue),
:func:`adversarial_burst_trace` (insert/delete storms), and
:func:`churn_storm_trace` (bins leave and rejoin in waves).
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import resolve_rng
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = [
    "EventKind",
    "DeletePolicy",
    "EventTrace",
    "TraceBuilder",
    "steady_state_trace",
    "poisson_trace",
    "adversarial_burst_trace",
    "churn_storm_trace",
    "check_trace",
]


class EventKind(enum.IntEnum):
    """Operation codes stored in :attr:`EventTrace.kinds`."""

    INSERT = 0
    DELETE = 1
    BIN_LEAVE = 2
    BIN_JOIN = 3


class DeletePolicy(str, enum.Enum):
    """Which live ball a delete event removes."""

    RANDOM = "random"
    FIFO = "fifo"
    LIFO = "lifo"

    @classmethod
    def coerce(cls, value: "DeletePolicy | str") -> "DeletePolicy":
        """Accept enum members or their string values (case-insensitive)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                pass
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown delete policy {value!r}; expected one of {valid}")


class _LiveSet:
    """The set of live ball ids with O(log) removal under any policy.

    Supports uniform-random removal (swap-remove over a dense list),
    oldest-first and newest-first removal (lazy min-/max-heaps over ids;
    ids are assigned in insertion order, so id order *is* age order).
    """

    def __init__(self) -> None:
        self._items: list[int] = []
        self._pos: dict[int, int] = {}
        self._oldest: list[int] = []
        self._newest: list[int] = []

    def __len__(self) -> int:
        return len(self._items)

    def add(self, ball: int) -> None:
        self._pos[ball] = len(self._items)
        self._items.append(ball)
        heapq.heappush(self._oldest, ball)
        heapq.heappush(self._newest, -ball)

    def _swap_remove(self, ball: int) -> None:
        i = self._pos.pop(ball)
        last = self._items.pop()
        if last != ball:
            self._items[i] = last
            self._pos[last] = i

    def pop_random(self, u: float) -> int:
        ball = self._items[int(u * len(self._items))]
        self._swap_remove(ball)
        return ball

    def pop_fifo(self) -> int:
        while True:
            ball = heapq.heappop(self._oldest)
            if ball in self._pos:
                self._swap_remove(ball)
                return ball

    def pop_lifo(self) -> int:
        while True:
            ball = -heapq.heappop(self._newest)
            if ball in self._pos:
                self._swap_remove(ball)
                return ball


@dataclass(frozen=True)
class EventTrace:
    """A validated, replayable dynamic workload.

    Attributes
    ----------
    kinds:
        ``(E,)`` int8 array of :class:`EventKind` codes.
    args:
        ``(E,)`` int64 array: the ball id for ``INSERT``/``DELETE``
        events (insert ids are consecutive ``0, 1, 2, ...`` in event
        order), the bin slot for ``BIN_LEAVE``/``BIN_JOIN``.
    epoch_ends:
        Strictly increasing event counts at which engines snapshot the
        load state; the last entry always equals the number of events
        (when the trace is non-empty), so trajectories include the
        final state.
    n_slots:
        Size of the bin-slot universe; required (and validated) when
        the trace contains churn events, ``None`` otherwise.
    meta:
        Free-form provenance recorded by the generators.

    Examples
    --------
    >>> t = steady_state_trace(4, pairs=2, epochs=1, seed=0)
    >>> t.num_inserts, t.num_deletes, t.final_occupancy
    (6, 2, 4)
    """

    kinds: np.ndarray
    args: np.ndarray
    epoch_ends: np.ndarray
    n_slots: int | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        frozen = {}
        for name, dtype in (("kinds", np.int8), ("args", np.int64),
                            ("epoch_ends", np.int64)):
            given = getattr(self, name)
            arr = np.asarray(given, dtype=dtype)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
            # freeze a private copy, never a caller-owned (still
            # writeable) array in place
            if isinstance(given, np.ndarray) and arr.flags.writeable:
                arr = arr.copy()
            arr.flags.writeable = False
            frozen[name] = arr
        for name, arr in frozen.items():
            object.__setattr__(self, name, arr)
        if self.kinds.shape != self.args.shape:
            raise ValueError(
                f"kinds and args must align, got {self.kinds.shape} vs "
                f"{self.args.shape}"
            )
        counts = self._validate_replay()
        object.__setattr__(self, "_counts", counts)

    def _validate_replay(self) -> tuple[int, int, int]:
        """Replay the trace symbolically; return (inserts, deletes, churn)."""
        e = int(self.kinds.size)
        ends = self.epoch_ends
        if e == 0:
            if ends.size:
                raise ValueError("empty trace cannot have epoch_ends")
        else:
            if ends.size == 0 or int(ends[-1]) != e:
                raise ValueError(
                    f"epoch_ends must close the trace (last == {e}), got {ends!r}"
                )
            if int(ends[0]) < 1 or np.any(np.diff(ends) <= 0):
                raise ValueError("epoch_ends must be strictly increasing and >= 1")
        valid = np.isin(self.kinds, [k.value for k in EventKind])
        if not valid.all():
            raise ValueError(f"unknown event kind {self.kinds[~valid][0]}")
        churn = int(np.count_nonzero(self.kinds >= EventKind.BIN_LEAVE))
        if churn and self.n_slots is None:
            raise ValueError("traces with bin churn must set n_slots")
        if self.n_slots is not None:
            check_positive_int(self.n_slots, "n_slots")
        next_ball = 0
        live: set[int] = set()
        inactive: set[int] = set()
        active_count = self.n_slots if self.n_slots is not None else 1
        for kind, arg in zip(self.kinds.tolist(), self.args.tolist()):
            if kind == EventKind.INSERT:
                if arg != next_ball:
                    raise ValueError(
                        f"insert ids must be consecutive: expected {next_ball}, "
                        f"got {arg}"
                    )
                live.add(arg)
                next_ball += 1
            elif kind == EventKind.DELETE:
                if arg not in live:
                    raise ValueError(f"delete of ball {arg} that is not live")
                live.discard(arg)
            elif kind == EventKind.BIN_LEAVE:
                if not 0 <= arg < self.n_slots:
                    raise ValueError(f"bin slot {arg} outside [0, {self.n_slots})")
                if arg in inactive:
                    raise ValueError(f"bin {arg} leaves but is already inactive")
                if active_count <= 1:
                    raise ValueError("the last active bin cannot leave")
                inactive.add(arg)
                active_count -= 1
            else:  # BIN_JOIN
                if not 0 <= arg < self.n_slots:
                    raise ValueError(f"bin slot {arg} outside [0, {self.n_slots})")
                if arg not in inactive:
                    raise ValueError(f"bin {arg} joins but is already active")
                inactive.discard(arg)
                active_count += 1
        inserts = next_ball
        deletes = inserts - len(live)
        return inserts, deletes, churn

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        """Events in the trace, of every kind."""
        return int(self.kinds.size)

    @property
    def num_inserts(self) -> int:
        """Insert events in the trace."""
        return self._counts[0]

    @property
    def num_deletes(self) -> int:
        """Delete events in the trace."""
        return self._counts[1]

    @property
    def has_churn(self) -> bool:
        """Whether any bin leaves or joins during the trace."""
        return self._counts[2] > 0

    @property
    def final_occupancy(self) -> int:
        """Balls still live after the whole trace (inserts - deletes)."""
        return self.num_inserts - self.num_deletes

    def windows(self, start: int = 0, stop: int | None = None):
        """Walk events ``[start, stop)`` in the steps a replay applies them.

        Yields ``(step, a, b)`` triples in event order:

        * ``("events", a, b)`` — events ``[a, b)``, a churn-free run of
          inserts and deletes inside one epoch;
        * ``("leave", i, slot)`` / ``("join", i, slot)`` — the churn
          event at position ``i``, a barrier on its own;
        * ``("epoch", k, end)`` — epoch ``k`` ends after ``end``
          events, for every ``epoch_ends[k]`` in ``(start, stop]``.

        ``stop`` defaults to the trace's end.  A replay cut at ``stop``
        and resumed from there walks the same steps as one uninterrupted
        walk, except that a run spanning ``stop`` is split in two.

        Examples
        --------
        >>> b = TraceBuilder(n_slots=2)
        >>> _ = b.insert(), b.insert()
        >>> b.mark_epoch()
        >>> b.bin_leave(0)
        >>> list(b.build().windows())
        [('events', 0, 2), ('epoch', 0, 2), ('leave', 2, 0), ('epoch', 1, 3)]
        """
        stop = self.num_events if stop is None else int(stop)
        if not 0 <= start <= stop <= self.num_events:
            raise ValueError(
                f"need 0 <= start <= stop <= {self.num_events}, got {start}, {stop}"
            )
        churn = np.flatnonzero(self.kinds[start:stop] >= EventKind.BIN_LEAVE) + start
        first, last = np.searchsorted(
            self.epoch_ends, [start, stop], side="right"
        ).tolist()
        ends = self.epoch_ends[first:last]
        cuts = np.unique(np.concatenate(([start, stop], churn, churn + 1, ends)))
        ends = ends.tolist()
        k = 0
        for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            kind = self.kinds[a]
            if kind == EventKind.BIN_LEAVE:
                yield "leave", a, int(self.args[a])
            elif kind == EventKind.BIN_JOIN:
                yield "join", a, int(self.args[a])
            else:
                yield "events", a, b
            if k < len(ends) and ends[k] == b:
                yield "epoch", first + k, b
                k += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EventTrace(events={self.num_events}, inserts={self.num_inserts}, "
            f"deletes={self.num_deletes}, churn={self._counts[2]}, "
            f"epochs={self.epoch_ends.size})"
        )


def check_trace(trace, space) -> None:
    """Raise unless ``space`` can replay ``trace``, before any state is built.

    :class:`TypeError` when ``trace`` is not an :class:`EventTrace`,
    :class:`ValueError` when its bin slots (``n_slots``) are not
    ``space.n``.  Both dynamic engines and
    :func:`repro.serve.replay_trace` (fresh or resumed) check through it.
    """
    if not isinstance(trace, EventTrace):
        raise TypeError(f"trace must be an EventTrace, got {type(trace).__name__}")
    if trace.n_slots is not None and trace.n_slots != space.n:
        raise ValueError(
            f"trace expects {trace.n_slots} bin slots but space has {space.n}"
        )


class TraceBuilder:
    """Imperative construction of an :class:`EventTrace`.

    Tracks the live-ball set (for delete-policy resolution) and the
    active-bin set (for churn validity) so generators only state intent.

    Examples
    --------
    >>> b = TraceBuilder()
    >>> _ = [b.insert() for _ in range(3)]
    >>> b.delete("fifo", resolve_rng(0))
    0
    >>> b.mark_epoch()
    >>> b.build().final_occupancy
    2
    """

    def __init__(self, n_slots: int | None = None) -> None:
        if n_slots is not None:
            n_slots = check_positive_int(n_slots, "n_slots")
        self._n_slots = n_slots
        self._active = set(range(n_slots)) if n_slots is not None else None
        self._kinds: list[int] = []
        self._args: list[int] = []
        self._epochs: list[int] = []
        self._live = _LiveSet()
        self._next_ball = 0

    @property
    def num_events(self) -> int:
        """Events appended so far, of every kind."""
        return len(self._kinds)

    @property
    def occupancy(self) -> int:
        """Balls live after the events appended so far."""
        return len(self._live)

    def insert(self) -> int:
        """Append an insert; returns the new ball's id."""
        ball = self._next_ball
        self._next_ball += 1
        self._live.add(ball)
        self._kinds.append(EventKind.INSERT)
        self._args.append(ball)
        return ball

    def delete(self, policy: DeletePolicy | str, rng) -> int:
        """Append a delete resolved by ``policy``; returns the ball id.

        ``rng`` is consumed (one uniform) only by the ``random`` policy,
        but is always required so callers keep RNG usage explicit.
        """
        if len(self._live) == 0:
            raise ValueError("cannot delete: no live balls")
        policy = DeletePolicy.coerce(policy)
        if policy is DeletePolicy.RANDOM:
            ball = self._live.pop_random(float(resolve_rng(rng).random()))
        elif policy is DeletePolicy.FIFO:
            ball = self._live.pop_fifo()
        else:
            ball = self._live.pop_lifo()
        self._kinds.append(EventKind.DELETE)
        self._args.append(ball)
        return ball

    def _check_slot(self, slot: int) -> int:
        if self._n_slots is None:
            raise ValueError("bin churn requires a TraceBuilder with n_slots")
        slot = check_non_negative_int(slot, "slot")
        if slot >= self._n_slots:
            raise ValueError(f"slot {slot} outside [0, {self._n_slots})")
        return slot

    def bin_leave(self, slot: int) -> None:
        """Append a bin departure."""
        slot = self._check_slot(slot)
        if slot not in self._active:
            raise ValueError(f"bin {slot} is already inactive")
        if len(self._active) <= 1:
            raise ValueError("the last active bin cannot leave")
        self._active.discard(slot)
        self._kinds.append(EventKind.BIN_LEAVE)
        self._args.append(slot)

    def bin_join(self, slot: int) -> None:
        """Append a bin (re)join."""
        slot = self._check_slot(slot)
        if slot in self._active:
            raise ValueError(f"bin {slot} is already active")
        self._active.add(slot)
        self._kinds.append(EventKind.BIN_JOIN)
        self._args.append(slot)

    def active_slots(self) -> np.ndarray:
        """Currently active bin slots, sorted (for deterministic draws)."""
        if self._active is None:
            raise ValueError("no slot universe: builder created without n_slots")
        return np.array(sorted(self._active), dtype=np.int64)

    def mark_epoch(self) -> None:
        """Snapshot boundary after the current last event (idempotent)."""
        e = len(self._kinds)
        if e == 0 or (self._epochs and self._epochs[-1] == e):
            return
        self._epochs.append(e)

    def build(self, **meta) -> EventTrace:
        """Finalize into a validated :class:`EventTrace`."""
        self.mark_epoch()
        return EventTrace(
            kinds=np.array(self._kinds, dtype=np.int8),
            args=np.array(self._args, dtype=np.int64),
            epoch_ends=np.array(self._epochs, dtype=np.int64),
            n_slots=self._n_slots,
            meta=meta,
        )


# ----------------------------------------------------------------------
# generators: the workload families of the DHT setting
# ----------------------------------------------------------------------
def steady_state_trace(
    m_target: int,
    pairs: int,
    *,
    policy: DeletePolicy | str = DeletePolicy.RANDOM,
    epochs: int = 10,
    seed=None,
) -> EventTrace:
    """Fixed-occupancy steady state: fill to ``m_target``, then churn.

    After a warm-up of ``m_target`` inserts, each of the ``pairs``
    steps deletes one ball (per ``policy``) and inserts a fresh one, so
    occupancy stays pinned at ``m_target`` while the population turns
    over — the regime in which a DHT spends its life.

    Examples
    --------
    >>> t = steady_state_trace(8, pairs=4, epochs=2, seed=1)
    >>> t.num_events, t.final_occupancy
    (16, 8)
    """
    m_target = check_positive_int(m_target, "m_target")
    pairs = check_non_negative_int(pairs, "pairs")
    epochs = check_positive_int(epochs, "epochs")
    rng = resolve_rng(seed)
    b = TraceBuilder()
    for _ in range(m_target):
        b.insert()
    b.mark_epoch()
    chunk_sizes = [len(c) for c in np.array_split(np.arange(pairs), epochs)]
    for size in chunk_sizes:
        for _ in range(size):
            b.delete(policy, rng)
            b.insert()
        b.mark_epoch()
    return b.build(
        generator="steady_state", m_target=m_target, pairs=pairs, policy=str(policy)
    )


def poisson_trace(
    events: int,
    target_occupancy: int,
    *,
    policy: DeletePolicy | str = DeletePolicy.RANDOM,
    epochs: int = 10,
    seed=None,
) -> EventTrace:
    """Embedded jump chain of an M/M/∞ queue (Poisson-thinned trace).

    Balls arrive at rate ``lambda = target_occupancy`` and each live
    ball departs at unit rate, so the next event is an insert with
    probability ``lambda / (lambda + k)`` at occupancy ``k``.  The
    occupancy performs a birth-death walk around ``target_occupancy``
    (its stationary mean) instead of being pinned there — arrivals and
    departures are *thinned*, not alternated.
    """
    events = check_positive_int(events, "events")
    target_occupancy = check_positive_int(target_occupancy, "target_occupancy")
    epochs = check_positive_int(epochs, "epochs")
    rng = resolve_rng(seed)
    lam = float(target_occupancy)
    b = TraceBuilder()
    marks = set(np.linspace(0, events, epochs + 1, dtype=np.int64)[1:].tolist())
    for step in range(1, events + 1):
        k = b.occupancy
        if k == 0 or rng.random() < lam / (lam + k):
            b.insert()
        else:
            b.delete(policy, rng)
        if step in marks:
            b.mark_epoch()
    return b.build(
        generator="poisson",
        target_occupancy=target_occupancy,
        policy=str(policy),
    )


def adversarial_burst_trace(
    base: int,
    burst: int,
    rounds: int,
    *,
    policy: DeletePolicy | str = DeletePolicy.LIFO,
    seed=None,
) -> EventTrace:
    """Alternating insert/delete storms on top of a standing base load.

    ``base`` balls are inserted once; each round then inserts ``burst``
    balls (pushing occupancy to a spike) and deletes ``burst`` balls by
    ``policy``.  The default ``lifo`` is the adversarial choice: the
    burst mass is churned every round, so the process keeps re-placing
    fresh balls on top of a saturated core.  Epochs bracket each spike
    so :class:`~repro.dynamics.result.DynamicResult` captures the peak.
    """
    base = check_non_negative_int(base, "base")
    burst = check_positive_int(burst, "burst")
    rounds = check_positive_int(rounds, "rounds")
    rng = resolve_rng(seed)
    b = TraceBuilder()
    for _ in range(base):
        b.insert()
    b.mark_epoch()
    for _ in range(rounds):
        for _ in range(burst):
            b.insert()
        b.mark_epoch()  # spike top
        for _ in range(burst):
            b.delete(policy, rng)
        b.mark_epoch()  # after drain
    return b.build(
        generator="adversarial_burst",
        base=base,
        burst=burst,
        rounds=rounds,
        policy=str(policy),
    )


def churn_storm_trace(
    n_slots: int,
    m: int,
    *,
    waves: int = 3,
    leave_fraction: float = 0.25,
    pairs_per_wave: int = 0,
    policy: DeletePolicy | str = DeletePolicy.RANDOM,
    rejoin: bool = True,
    seed=None,
) -> EventTrace:
    """Bins leave and (optionally) rejoin in waves under standing load.

    ``m`` balls are inserted, then each wave removes a random
    ``leave_fraction`` of the active bins (displacing their balls onto
    survivors), optionally churns ``pairs_per_wave`` delete/insert
    pairs while degraded, and finally rejoins the departed bins empty.
    This is the DHT churn-storm scenario: mass node failure followed by
    recovery, with the load guarantee measured along the way.
    """
    n_slots = check_positive_int(n_slots, "n_slots")
    m = check_non_negative_int(m, "m")
    waves = check_positive_int(waves, "waves")
    pairs_per_wave = check_non_negative_int(pairs_per_wave, "pairs_per_wave")
    if not 0.0 < leave_fraction < 1.0:
        raise ValueError(f"leave_fraction must be in (0, 1), got {leave_fraction}")
    rng = resolve_rng(seed)
    b = TraceBuilder(n_slots=n_slots)
    for _ in range(m):
        b.insert()
    b.mark_epoch()
    for _ in range(waves):
        active = b.active_slots()
        count = min(max(1, int(leave_fraction * active.size)), active.size - 1)
        leaving = rng.choice(active, size=count, replace=False)
        for slot in leaving:
            b.bin_leave(int(slot))
        b.mark_epoch()  # degraded state
        for _ in range(pairs_per_wave):
            if b.occupancy:
                b.delete(policy, rng)
            b.insert()
        if rejoin:
            for slot in leaving:
                b.bin_join(int(slot))
        b.mark_epoch()  # recovered state
    return b.build(
        generator="churn_storm",
        n_slots=n_slots,
        m=m,
        waves=waves,
        leave_fraction=leave_fraction,
        pairs_per_wave=pairs_per_wave,
        policy=str(policy),
        rejoin=rejoin,
    )
