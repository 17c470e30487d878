"""Reliability mechanics: successor lists, failures, and churn.

The paper's conclusion: "while we believe the two-choice paradigm will
prove useful for Chord-like networks, there is work to be done
considering how to apply it while maintaining reliability and other
useful features of these systems."  This module implements the standard
reliability story so that question is executable:

* **successor lists** — each node knows its ``r`` clockwise successors;
  a key stays reachable while fewer than ``r`` consecutive nodes fail
  (Chord's classical guarantee),
* **failure simulation** — mark nodes failed without removing them
  (routing must detour around them),
* **churn driver** — interleave joins/leaves/failures with item
  placements and measure how the two-choice balance and the redirect
  pointers degrade,
* **trace replay** — :meth:`ResilientChord.replay_trace` replays the
  bin-churn events of a :mod:`repro.dynamics` trace as node failures
  and recoveries, so the *same* workload drives both the placement
  trajectory (dynamic engines) and the routing availability (here).

Routing here is deliberately simple (successor walking with finger
shortcuts over *live* nodes); the point is measuring reachability and
balance under churn, not squeezing hops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dht.chord import ChordRing, in_interval
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = ["ResilientChord", "ChurnReport"]


@dataclass(frozen=True)
class ChurnReport:
    """Outcome of a churn episode."""

    lookups: int
    reachable: int
    mean_hops: float
    failed_nodes: int

    @property
    def availability(self) -> float:
        return self.reachable / self.lookups if self.lookups else 1.0


class ResilientChord:
    """A Chord ring with successor lists and fail-stop nodes.

    Parameters
    ----------
    ring:
        Underlying (healthy) topology.
    successors:
        Length ``r`` of each node's successor list.  Chord recommends
        ``r = Theta(log n)``; default ``ceil(2 log2 n)``.

    Examples
    --------
    >>> rc = ResilientChord(ChordRing.random(32, seed=0))
    >>> rc.fail(5)
    >>> rc.lookup_live(123456).owner_alive
    True
    """

    def __init__(self, ring: ChordRing, successors: int | None = None) -> None:
        if not isinstance(ring, ChordRing):
            raise TypeError(f"ring must be a ChordRing, got {type(ring).__name__}")
        self.ring = ring
        n = ring.n
        if successors is None:
            successors = min(n - 1, max(1, int(2 * np.ceil(np.log2(max(n, 2))))))
        self.r = check_positive_int(successors, "successors")
        if self.r >= n and n > 1:
            self.r = n - 1
        self._alive = np.ones(n, dtype=bool)

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    @property
    def alive(self) -> np.ndarray:
        v = self._alive.view()
        v.flags.writeable = False
        return v

    def fail(self, index: int) -> None:
        """Fail-stop the node at ``index`` (idempotent)."""
        if not 0 <= index < self.ring.n:
            raise ValueError(f"index {index} out of range")
        if self._alive.sum() <= 1:
            raise ValueError("cannot fail the last live node")
        self._alive[index] = False

    def recover(self, index: int) -> None:
        """Bring a failed node back."""
        if not 0 <= index < self.ring.n:
            raise ValueError(f"index {index} out of range")
        self._alive[index] = True

    def fail_random(self, count: int, seed=None) -> list[int]:
        """Fail ``count`` random live nodes; returns their indices."""
        count = check_non_negative_int(count, "count")
        rng = resolve_rng(seed)
        live = np.nonzero(self._alive)[0]
        if count >= live.size:
            raise ValueError(
                f"cannot fail {count} of {live.size} live nodes "
                "(at least one must survive)"
            )
        picks = rng.choice(live, size=count, replace=False)
        for i in picks:
            self.fail(int(i))
        return [int(i) for i in picks]

    # ------------------------------------------------------------------
    # routing over live nodes
    # ------------------------------------------------------------------
    def successor_list(self, index: int) -> list[int]:
        """The ``r`` clockwise successors of a node (live or not)."""
        n = self.ring.n
        return [(index + k) % n for k in range(1, self.r + 1)]

    def live_owner(self, ident: int) -> int:
        """First *live* node at or after ``ident`` clockwise.

        This is where the key's data resides after failures hand
        responsibility to successors.
        """
        idx = self.ring.successor_index(int(ident))
        n = self.ring.n
        for k in range(n):
            candidate = (idx + k) % n
            if self._alive[candidate]:
                return candidate
        raise RuntimeError("no live nodes")  # pragma: no cover - guarded

    @dataclass(frozen=True)
    class LiveLookup:
        owner_index: int
        hops: int
        owner_alive: bool
        detours: int

    def lookup_live(self, ident: int, start_index: int | None = None):
        """Route to the live owner, detouring around failed nodes.

        Per-hop rule: from a live node, take the farthest *live* finger
        that strictly precedes the target (classic Chord), else the
        first live successor.  Each failed candidate skipped counts as
        a detour (a timeout in a real deployment).
        """
        ident = int(ident)
        n = self.ring.n
        if start_index is None:
            live = np.nonzero(self._alive)[0]
            start_index = int(live[0])
        if not self._alive[start_index]:
            raise ValueError(f"start node {start_index} is failed")
        fingers = self.ring.finger_table()
        ids = self.ring.node_ids
        target_owner = self.live_owner(ident)
        cur = start_index
        hops = 0
        detours = 0
        max_hops = 4 * 64 + n  # generous: fingers + successor walking
        while cur != target_owner:
            cur_id = int(ids[cur])
            nxt = None
            for k in range(63, -1, -1):
                f = int(fingers[cur, k])
                if (
                    f != cur
                    and self._alive[f]
                    and in_interval(int(ids[f]), cur_id, ident)
                ):
                    nxt = f
                    break
            if nxt is None:
                # walk the successor list to the first live node
                for s in self.successor_list(cur):
                    if self._alive[s]:
                        nxt = s
                        break
                    detours += 1
                if nxt is None:
                    # successor list exhausted: r consecutive failures
                    raise RuntimeError(
                        f"{self.r} consecutive successors of node {cur} "
                        "failed; key unreachable"
                    )
            cur = nxt
            hops += 1
            if hops > max_hops:  # pragma: no cover - safety net
                raise RuntimeError("routing loop")
        return self.LiveLookup(
            owner_index=cur,
            hops=hops,
            owner_alive=bool(self._alive[cur]),
            detours=detours,
        )

    # ------------------------------------------------------------------
    # churn measurement
    # ------------------------------------------------------------------
    def _measure_lookups(self, lookups: int, rng: np.random.Generator) -> ChurnReport:
        """Availability and hop count over random lookups, as-is."""
        live = np.nonzero(self._alive)[0]
        reachable = 0
        total_hops = 0
        for _ in range(check_positive_int(lookups, "lookups")):
            ident = int(rng.integers(0, 1 << 63)) * 2
            start = int(rng.choice(live))
            try:
                res = self.lookup_live(ident, start)
            except RuntimeError:
                continue
            reachable += 1
            total_hops += res.hops
        return ChurnReport(
            lookups=lookups,
            reachable=reachable,
            mean_hops=total_hops / reachable if reachable else float("nan"),
            failed_nodes=int((~self._alive).sum()),
        )

    def churn_episode(
        self,
        fail_count: int,
        lookups: int = 200,
        seed=None,
    ) -> ChurnReport:
        """Fail ``fail_count`` nodes, then measure lookup availability."""
        rng = resolve_rng(seed)
        self.fail_random(fail_count, seed=rng)
        return self._measure_lookups(lookups, rng)

    def replay_trace(
        self,
        trace,
        *,
        lookups_per_epoch: int = 100,
        seed=None,
    ) -> list[ChurnReport]:
        """Replay a dynamics trace's bin churn as node failures/recoveries.

        Bridges the placement-level dynamics subsystem to the routing
        layer: the same :class:`~repro.dynamics.events.EventTrace` whose
        load trajectory the dynamic engines measure is replayed here as
        fail-stop (``BIN_LEAVE``) and recovery (``BIN_JOIN``) events on
        the Chord substrate, with lookup availability measured at every
        trace epoch.  Item-level (insert/delete) events do not touch
        routing and are skipped.

        The trace's slot universe must be this ring's node set
        (``trace.n_slots == ring.n``) when the trace contains churn;
        nodes are assumed all-alive at the start so the trace's
        "never drop the last bin" invariant maps onto the ring.

        Returns one :class:`ChurnReport` per trace epoch.
        """
        rng = resolve_rng(seed)
        if trace.has_churn and trace.n_slots != self.ring.n:
            raise ValueError(
                f"trace expects {trace.n_slots} bin slots but the ring has "
                f"{self.ring.n} nodes"
            )
        if not self._alive.all():
            raise ValueError("replay_trace requires an all-alive starting state")
        reports: list[ChurnReport] = []
        for step, _, slot in trace.windows():
            if step == "leave":
                self.fail(slot)
            elif step == "join":
                self.recover(slot)
            elif step == "epoch":
                reports.append(self._measure_lookups(lookups_per_epoch, rng))
        return reports
