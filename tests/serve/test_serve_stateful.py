"""Model-based stateful testing of the live placement server.

Hypothesis drives random sequences of the whole ``PlacementServer``
API — scalar insert/delete/lookup, batched ``submit`` (with blocks
that must fail and change nothing), bin churn, and save → load
mid-sequence —
against a twin server with another ``max_batch`` that never
checkpoints.  After every step both must agree on every decision and
pass :func:`helpers.check_state`, and the key map must match
occupancy.  Keys include NULs and lone surrogates, so every checkpoint
also exercises the key encoding.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
from helpers import check_state
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.ring import RingSpace
from repro.serve import OP_DELETE, OP_INSERT, OP_LOOKUP, PlacementServer

N_BINS = 6
KEYS = st.text(alphabet=["a", "\x00", "é", "\ud800", "🙂"], max_size=3)
OPS = st.sampled_from([OP_INSERT, OP_DELETE, OP_LOOKUP])


class ServerModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        space = RingSpace.random(N_BINS, seed=3)
        # a small rng_block makes checkpoints land mid-block; the twin
        # splits batches differently
        self.server = PlacementServer(space, d=2, seed=11, rng_block=5,
                                      max_batch=3)
        self.twin = PlacementServer(space, d=2, seed=11, rng_block=5,
                                    max_batch=4)
        self.live: set[str] = set()
        self.fresh = 0  # batched inserts take f"{fresh}{suffix}": unique
        self.dir = Path(tempfile.mkdtemp())

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _both(self, call):
        """Run ``call`` on both servers; outcomes must be identical."""
        outcomes = []
        for server in (self.server, self.twin):
            try:
                outcomes.append(np.asarray(call(server)).tolist())
            except (KeyError, ValueError) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def _draw_op(self, data, live):
        """One valid ``(kind, key)`` against ``live``, which it updates."""
        kind = data.draw(OPS)
        if kind == OP_INSERT or not live:
            self.fresh += 1
            key = f"{self.fresh}{data.draw(KEYS)}"
            live.add(key)
            return OP_INSERT, key
        key = data.draw(st.sampled_from(sorted(live)))
        if kind == OP_DELETE:
            live.discard(key)
        return kind, key

    @rule(key=KEYS)
    def insert(self, key):
        if self._both(lambda s: s.insert(key)) is not KeyError:
            self.live.add(key)

    @rule(key=KEYS)
    def delete(self, key):
        if self._both(lambda s: s.delete(key)) is not KeyError:
            self.live.discard(key)

    @rule(key=KEYS)
    def lookup(self, key):
        self._both(lambda s: s.lookup(key))

    @rule(data=st.data(), size=st.integers(0, 9))
    def submit(self, data, size):
        ops = [self._draw_op(data, self.live) for _ in range(size)]
        kinds = np.array([k for k, _ in ops], dtype=np.int8)
        keys = [key for _, key in ops]
        self._both(lambda s: s.submit(kinds, keys))

    @rule(data=st.data(), size=st.integers(0, 2))
    def submit_failing(self, data, size):
        # valid ops, then one unknown-key op inside both twins' first
        # block: the block must raise KeyError and change nothing
        live = set(self.live)
        ops = [self._draw_op(data, live) for _ in range(size)]
        bad = [(OP_DELETE, "ghost"), (OP_LOOKUP, "ghost")]
        if live:
            bad.append((OP_INSERT, data.draw(st.sampled_from(sorted(live)))))
        ops.append(data.draw(st.sampled_from(bad)))
        kinds = np.array([k for k, _ in ops], dtype=np.int8)
        keys = [key for _, key in ops]
        assert self._both(lambda s: s.submit(kinds, keys)) is KeyError

    @rule(slot=st.integers(0, N_BINS - 1))
    def bin_leave(self, slot):
        self._both(lambda s: s.bin_leave(slot))

    @rule(slot=st.integers(0, N_BINS - 1))
    def bin_join(self, slot):
        self._both(lambda s: s.bin_join(slot))

    @rule()
    def save_load(self):
        path = self.dir / "ck.npz"
        self.server.save(path)
        self.server, _ = PlacementServer.load(path)

    @invariant()
    def states_agree(self):
        for server in (self.server, self.twin):
            assert check_state(server.state) == []
            assert len(server._key_ball) == server.occupancy
        assert self.server._key_ball == self.twin._key_ball
        assert np.array_equal(self.server.loads, self.twin.loads)
        assert np.array_equal(self.server.state.active, self.twin.state.active)


TestServerModel = ServerModel.TestCase
TestServerModel.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
