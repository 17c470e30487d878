"""Tests for successor lists, failures and churn."""

import numpy as np
import pytest

from repro.dht.chord import ChordRing
from repro.dht.resilience import ResilientChord


@pytest.fixture
def rc():
    return ResilientChord(ChordRing.random(64, seed=0))


class TestConstruction:
    def test_default_successor_list_length(self, rc):
        assert rc.r == 12  # 2 * log2(64)

    def test_successor_list_wraps(self, rc):
        lst = rc.successor_list(62)
        assert lst[:3] == [63, 0, 1]
        assert len(lst) == rc.r

    def test_r_capped_below_n(self):
        rc = ResilientChord(ChordRing.random(4, seed=1), successors=10)
        assert rc.r == 3

    def test_rejects_non_ring(self):
        with pytest.raises(TypeError):
            ResilientChord("ring")


class TestFailures:
    def test_fail_and_recover(self, rc):
        rc.fail(5)
        assert not rc.alive[5]
        rc.recover(5)
        assert rc.alive[5]

    def test_cannot_fail_all(self):
        rc = ResilientChord(ChordRing.random(2, seed=2))
        rc.fail(0)
        with pytest.raises(ValueError, match="last live"):
            rc.fail(1)

    def test_fail_random_count(self, rc):
        failed = rc.fail_random(10, seed=3)
        assert len(failed) == 10
        assert (~rc.alive).sum() == 10

    def test_fail_random_rejects_overkill(self, rc):
        with pytest.raises(ValueError):
            rc.fail_random(64, seed=4)

    def test_live_owner_skips_failed(self, rc):
        ident = 12345
        healthy = rc.live_owner(ident)
        rc.fail(healthy)
        assert rc.live_owner(ident) != healthy
        # live owner is the next live node clockwise
        assert rc.live_owner(ident) == (healthy + 1) % 64 or rc.alive[
            rc.live_owner(ident)
        ]


class TestRoutingUnderFailures:
    def test_healthy_routing_matches_chord(self, rc):
        rng = np.random.default_rng(5)
        for _ in range(50):
            ident = int(rng.integers(0, 1 << 63)) * 2
            res = rc.lookup_live(ident, 0)
            assert res.owner_index == rc.ring.successor_index(ident)
            assert res.owner_alive

    def test_routing_survives_failures(self, rc):
        rc.fail_random(16, seed=6)  # 25% failure
        live = np.nonzero(rc.alive)[0]
        rng = np.random.default_rng(7)
        for _ in range(100):
            ident = int(rng.integers(0, 1 << 63)) * 2
            start = int(rng.choice(live))
            res = rc.lookup_live(ident, start)
            assert rc.alive[res.owner_index]
            assert res.owner_index == rc.live_owner(ident)

    def test_rejects_failed_start(self, rc):
        rc.fail(3)
        with pytest.raises(ValueError, match="failed"):
            rc.lookup_live(1, 3)

    def test_hops_stay_bounded(self, rc):
        rc.fail_random(8, seed=8)
        live = np.nonzero(rc.alive)[0]
        rng = np.random.default_rng(9)
        hops = []
        for _ in range(100):
            ident = int(rng.integers(0, 1 << 63)) * 2
            res = rc.lookup_live(ident, int(rng.choice(live)))
            hops.append(res.hops)
        # log n routing with detours; generous cap
        assert np.mean(hops) <= 4 * np.log2(64)

    def test_hops_stay_bounded_with_a_quarter_failed(self):
        rc = ResilientChord(ChordRing.random(512, seed=0))
        rc.fail_random(128, seed=1)
        rng = np.random.default_rng(2)
        live = np.nonzero(rc.alive)[0]
        idents = rng.integers(0, 1 << 63, size=256).astype(np.uint64) * np.uint64(2)
        starts = rng.choice(live, size=256)
        hops = [rc.lookup_live(int(i), int(s)).hops for i, s in zip(idents, starts)]
        assert np.mean(hops) <= 4 * np.log2(512)


class TestChurn:
    def test_episode_availability(self):
        rc = ResilientChord(ChordRing.random(128, seed=10))
        report = rc.churn_episode(fail_count=16, lookups=100, seed=11)
        assert report.failed_nodes == 16
        assert report.availability == 1.0  # r = 14 >> expected run of failures
        assert report.mean_hops > 0

    def test_heavy_churn_still_mostly_available(self):
        rc = ResilientChord(ChordRing.random(128, seed=12))
        report = rc.churn_episode(fail_count=64, lookups=100, seed=13)
        assert report.availability >= 0.9


class TestReplayTrace:
    def _storm(self, n, **kwargs):
        from repro.dynamics.events import churn_storm_trace

        return churn_storm_trace(n, 2 * n, **kwargs)

    def test_one_report_per_epoch(self):
        rc = ResilientChord(ChordRing.random(64, seed=20))
        trace = self._storm(64, waves=2, leave_fraction=0.2, seed=21)
        reports = rc.replay_trace(trace, lookups_per_epoch=40, seed=22)
        assert len(reports) == int(trace.epoch_ends.size)
        assert all(0.0 <= r.availability <= 1.0 for r in reports)

    def test_failures_track_trace_and_recover(self):
        rc = ResilientChord(ChordRing.random(64, seed=23))
        trace = self._storm(64, waves=1, leave_fraction=0.25, seed=24)
        reports = rc.replay_trace(trace, lookups_per_epoch=30, seed=25)
        # degraded epoch sees the departed nodes as failed...
        assert max(r.failed_nodes for r in reports) == 16
        # ...and the rejoin wave restores everyone
        assert reports[-1].failed_nodes == 0
        assert rc.alive.all()

    def test_no_rejoin_leaves_nodes_failed(self):
        rc = ResilientChord(ChordRing.random(64, seed=26))
        trace = self._storm(64, waves=1, leave_fraction=0.2, rejoin=False, seed=27)
        rc.replay_trace(trace, lookups_per_epoch=20, seed=28)
        assert (~rc.alive).sum() == 12

    def test_slot_mismatch_rejected(self):
        rc = ResilientChord(ChordRing.random(32, seed=29))
        trace = self._storm(64, waves=1, seed=30)
        with pytest.raises(ValueError, match="slots"):
            rc.replay_trace(trace)

    def test_requires_all_alive_start(self):
        rc = ResilientChord(ChordRing.random(64, seed=31))
        rc.fail(3)
        trace = self._storm(64, waves=1, seed=32)
        with pytest.raises(ValueError, match="all-alive"):
            rc.replay_trace(trace)

    def test_churn_free_trace_measures_healthy_ring(self):
        from repro.dynamics.events import steady_state_trace

        rc = ResilientChord(ChordRing.random(64, seed=33))
        trace = steady_state_trace(32, pairs=16, epochs=2, seed=34)
        reports = rc.replay_trace(trace, lookups_per_epoch=25, seed=35)
        assert len(reports) == int(trace.epoch_ends.size)
        assert all(r.failed_nodes == 0 for r in reports)
        assert all(r.availability == 1.0 for r in reports)
