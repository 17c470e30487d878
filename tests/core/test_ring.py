"""Tests for RingSpace: arc ownership and arc-length structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ring import RingSpace


class TestConstruction:
    def test_sorts_positions(self):
        ring = RingSpace([0.9, 0.1, 0.5])
        assert np.all(np.diff(ring.positions) > 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            RingSpace([])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            RingSpace([0.5, 1.0])
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            RingSpace([0.5, -0.25, 0.75])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            RingSpace([0.3, 0.3])

    def test_random_is_deterministic(self):
        a = RingSpace.random(32, seed=1)
        b = RingSpace.random(32, seed=1)
        assert np.array_equal(a.positions, b.positions)

    def test_positions_read_only(self):
        ring = RingSpace.random(8, seed=0)
        with pytest.raises(ValueError):
            ring.positions[0] = 0.5


class TestAssign:
    def test_clockwise_successor(self):
        ring = RingSpace([0.2, 0.6])
        # x in (0.6, 1) u [0, 0.2] -> server at 0.2 (index 0)
        assert ring.assign(np.array([0.7, 0.1])).tolist() == [0, 0]
        # x in (0.2, 0.6] -> server at 0.6 (index 1)
        assert ring.assign(np.array([0.3, 0.6])).tolist() == [1, 1]

    def test_exact_server_position_owned_by_server(self):
        ring = RingSpace([0.2, 0.6])
        assert ring.assign(np.array([0.2])).tolist() == [0]

    def test_wraparound(self):
        ring = RingSpace([0.5])
        assert ring.assign(np.array([0.9, 0.0])).tolist() == [0, 0]

    def test_rejects_out_of_range_points(self):
        ring = RingSpace([0.5])
        with pytest.raises(ValueError):
            ring.assign(np.array([1.0]))

    def test_vectorized_matches_scalar(self, small_ring):
        pts = np.linspace(0, 0.999, 57)
        batch = small_ring.assign(pts)
        singles = [int(small_ring.assign(np.array([p]))[0]) for p in pts]
        assert batch.tolist() == singles

    def test_large_query_batch(self):
        ring = RingSpace.random(1 << 16, seed=0)
        queries = np.random.default_rng(2).random(1 << 20)
        assert ring.assign(queries).shape == queries.shape


class TestRegionMeasures:
    def test_sum_to_one(self, small_ring):
        assert small_ring.region_measures().sum() == pytest.approx(1.0)

    def test_single_server_owns_everything(self):
        assert RingSpace([0.3]).region_measures().tolist() == [1.0]

    def test_two_servers(self):
        ring = RingSpace([0.2, 0.6])
        # bin 0 owns (0.6, 1)+(0, 0.2] = 0.6; bin 1 owns (0.2, 0.6] = 0.4
        assert ring.region_measures().tolist() == pytest.approx([0.6, 0.4])

    def test_measures_match_assignment_frequencies(self, small_ring, rng):
        """The measure of a bin IS its probability of being probed."""
        samples = rng.random(200_000)
        owners = small_ring.assign(samples)
        freq = np.bincount(owners, minlength=small_ring.n) / samples.size
        assert np.abs(freq - small_ring.region_measures()).max() < 5e-3

    @given(st.integers(2, 50), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_measures_always_valid(self, n, seed):
        lengths = RingSpace.random(n, seed=seed).region_measures()
        assert lengths.shape == (n,)
        assert np.all(lengths > 0)
        assert lengths.sum() == pytest.approx(1.0)


class TestArcQueries:
    def test_arcs_at_least_zero_threshold(self, small_ring):
        assert small_ring.arcs_at_least(0.0) == small_ring.n

    def test_arcs_at_least_monotone(self, small_ring):
        counts = [small_ring.arcs_at_least(c) for c in (0.5, 1, 2, 4, 8)]
        assert counts == sorted(counts, reverse=True)

    def test_arcs_at_least_rejects_negative(self, small_ring):
        with pytest.raises(ValueError):
            small_ring.arcs_at_least(-1)

    def test_longest_arcs_total_full(self, small_ring):
        assert small_ring.longest_arcs_total(small_ring.n) == pytest.approx(1.0)

    def test_longest_arcs_total_monotone(self, small_ring):
        totals = [small_ring.longest_arcs_total(a) for a in (1, 2, 4, 8, 16)]
        assert totals == sorted(totals)

    def test_longest_arcs_total_matches_sort(self, small_ring):
        lengths = np.sort(small_ring.region_measures())[::-1]
        for a in (1, 3, 10):
            assert small_ring.longest_arcs_total(a) == pytest.approx(
                lengths[:a].sum()
            )

    def test_longest_arcs_rejects_excess(self, small_ring):
        with pytest.raises(ValueError, match="exceeds"):
            small_ring.longest_arcs_total(small_ring.n + 1)


class TestBucketedAssign:
    """The bucket-table fast path must be indistinguishable from binary
    search — the engines' bit-identity doctrine extends to geometry."""

    @given(st.integers(1024, 5000), st.integers(0, 2**16), st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_matches_searchsorted(self, n, space_seed, query_seed):
        ring = RingSpace.random(n, seed=space_seed)
        pts = np.random.default_rng(query_seed).random(RingSpace._LUT_MIN_QUERIES)
        expected = np.searchsorted(ring.positions, pts, side="left") % n
        assert np.array_equal(ring.assign(pts), expected)

    def test_adversarial_boundary_points(self):
        """Exact server positions and their float neighbors."""
        ring = RingSpace.random(4096, seed=7)
        pos = ring.positions
        pts = np.concatenate([
            pos, np.nextafter(pos, 0), np.nextafter(pos, 1),
            np.array([0.0, np.nextafter(1.0, 0)]),
        ])
        expected = np.searchsorted(pos, pts, side="left") % ring.n
        assert np.array_equal(ring.assign(pts), expected)

    def test_small_queries_use_searchsorted_and_agree(self):
        """Below the gate both paths run; they must agree anyway."""
        ring = RingSpace.random(2048, seed=3)
        pts = np.random.default_rng(0).random(64)
        small = ring.assign(pts)
        assert np.array_equal(small, ring._assign_bucketed(pts) % ring.n)

    def test_table_is_lazy_and_cached(self, monkeypatch):
        """The numpy reference builds the table on the first bulk query."""
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        ring = RingSpace.random(2048, seed=1)
        assert ring._lut is None
        ring.assign(np.random.default_rng(0).random(RingSpace._LUT_MIN_QUERIES))
        assert ring._lut is not None
        nbuckets, table, pos_ext = ring._lut
        assert nbuckets == 2048 and table[0] == 0 and table[-1] == ring.n
        assert pos_ext[-1] == np.inf

    @pytest.mark.parametrize("n", [1, 2, 3, 1023, 1024, 4097])
    def test_compiled_table_pass_matches_numpy(self, monkeypatch, n):
        """A backend's ``ring_table`` pass builds the numpy table eagerly."""
        from repro.kernels import default_backend

        if default_backend().ring_table is None:
            pytest.skip("no compiled ring_table on this machine")
        eager = RingSpace.random(n, seed=5)
        assert eager._lut is not None
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        lazy = RingSpace.random(n, seed=5)
        assert lazy._lut is None
        for a, b in zip(eager._bucket_table(), lazy._bucket_table()):
            np.testing.assert_array_equal(a, b)
