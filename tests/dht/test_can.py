"""Tests for the CAN substrate: zones, adjacency, routing, engine."""

import numpy as np
import pytest

from repro.core.placement import place_balls
from repro.dht.can import CanNetwork, CanSpace, Zone


class TestZone:
    def test_volume_and_center(self):
        z = Zone((0.0, 0.0), (0.5, 1.0))
        assert z.volume == 0.5
        assert z.center.tolist() == [0.25, 0.5]

    def test_contains_half_open(self):
        z = Zone((0.0, 0.0), (0.5, 0.5))
        assert z.contains((0.0, 0.0))
        assert not z.contains((0.5, 0.25))

    def test_split_longest_side(self):
        z = Zone((0.0, 0.0), (1.0, 0.5))
        a, b = z.split()
        assert a.hi[0] == 0.5 and b.lo[0] == 0.5  # split along x (longer)
        assert a.volume == b.volume == z.volume / 2

    def test_box_distance_inside_zero(self):
        z = Zone((0.2, 0.2), (0.4, 0.4))
        assert z.box_distance(np.array([0.3, 0.3])) == 0.0

    def test_box_distance_wraps(self):
        z = Zone((0.9, 0.0), (1.0, 1.0))
        # point at x=0.05: closest approach across the seam is 0.05
        assert z.box_distance(np.array([0.05, 0.5])) == pytest.approx(0.05)


class TestCanNetwork:
    def test_partition_of_unity(self):
        can = CanNetwork.random(37, seed=0)
        assert sum(z.volume for z in can.zones) == pytest.approx(1.0)

    def test_every_point_owned_once(self):
        can = CanNetwork.random(25, seed=1)
        rng = np.random.default_rng(2)
        for p in rng.random((100, 2)):
            counts = sum(z.contains(p) for z in can.zones)
            assert counts == 1

    def test_single_zone(self):
        can = CanNetwork.random(1, seed=0)
        assert can.zones[0].volume == 1.0

    def test_dyadic_volumes(self):
        """CAN volumes are powers of 1/2 (repeated halving)."""
        can = CanNetwork.random(20, seed=3)
        for z in can.zones:
            log2v = np.log2(z.volume)
            assert log2v == pytest.approx(round(log2v), abs=1e-9)

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError, match="partition"):
            CanNetwork([Zone((0.0, 0.0), (0.5, 0.5))])

    def test_neighbors_symmetric(self):
        can = CanNetwork.random(30, seed=4)
        for i in range(can.n):
            for j in can.neighbors(i):
                assert i in can.neighbors(j)
                assert i != j

    def test_neighbors_nonempty(self):
        can = CanNetwork.random(16, seed=5)
        assert all(can.neighbors(i) for i in range(can.n))

    def test_two_zones_adjacent_across_seam(self):
        full = Zone((0.0, 0.0), (1.0, 1.0))
        a, b = full.split()
        can = CanNetwork([a, b])
        # adjacent both at x=0.5 and across the x=0/1 seam
        assert can.neighbors(0) == [1]


class TestRouting:
    def test_reaches_owner(self):
        can = CanNetwork.random(64, seed=6)
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = rng.random(2)
            start = int(rng.integers(can.n))
            route = can.route(p, start)
            assert route.owner_index == can.owner(p)
            assert route.path[0] == start

    def test_zero_hops_at_owner(self):
        can = CanNetwork.random(8, seed=8)
        p = np.array([0.3, 0.7])
        route = can.route(p, can.owner(p))
        assert route.hops == 0

    def test_hops_scale_like_sqrt_n(self):
        rng = np.random.default_rng(9)
        means = {}
        for n in (16, 256):
            can = CanNetwork.random(n, seed=10)
            hops = [
                can.route(rng.random(2), int(rng.integers(n))).hops
                for _ in range(60)
            ]
            means[n] = np.mean(hops)
        # CAN: ~ (k/2) n^{1/k}; ratio for 16 -> 256 should be ~4, far
        # below linear scaling (16x)
        assert means[256] / max(means[16], 0.5) < 8

    def test_mean_hops_within_can_bound(self):
        can = CanNetwork.random(256, seed=5)
        rng = np.random.default_rng(6)
        points = rng.random((128, 2))
        starts = rng.integers(0, can.n, size=128)
        hops = [can.route(p, int(s)).hops for p, s in zip(points, starts)]
        # CAN bound ~ (k/2) n^{1/k} = 16 for k=2, n=256
        assert np.mean(hops) <= 2 * 16

    def test_rejects_bad_start(self):
        can = CanNetwork.random(4, seed=11)
        with pytest.raises(ValueError):
            can.route(np.array([0.5, 0.5]), 99)


class TestCanSpace:
    @pytest.mark.parametrize("n, space_seed, seed", [(64, 12, 13), (1024, 7, 8)],
                             ids=["n64", "n1024"])
    def test_engine_integration(self, n, space_seed, seed):
        space = CanSpace.random(n, seed=space_seed)
        res = place_balls(space, n, 2, seed=seed)
        assert res.loads.sum() == n

    def test_measures_are_volumes(self):
        space = CanSpace.random(32, seed=14)
        assert space.region_measures().sum() == pytest.approx(1.0)

    def test_assign_matches_owner(self):
        space = CanSpace.random(40, seed=15)
        rng = np.random.default_rng(16)
        pts = rng.random((50, 2))
        vec = space.assign(pts)
        scalar = [space.network.owner(p) for p in pts]
        assert vec.tolist() == scalar

    def test_two_choices_tame_can_skew(self):
        """The paper's thesis on a third bin geometry: d=2 collapses the
        dyadic-zone imbalance."""
        n = 512
        d1, d2 = [], []
        for s in range(6):
            space = CanSpace.random(n, seed=s)
            d1.append(place_balls(space, n, 1, seed=100 + s).max_load)
            d2.append(place_balls(space, n, 2, seed=100 + s).max_load)
        assert np.mean(d2) < 0.6 * np.mean(d1)
        assert max(d2) <= 7

    def test_smaller_strategy_works(self):
        space = CanSpace.random(128, seed=17)
        res = place_balls(space, 128, 2, strategy="smaller", seed=18)
        assert res.loads.sum() == 128

    def test_rejects_non_network(self):
        with pytest.raises(TypeError):
            CanSpace("zones")
