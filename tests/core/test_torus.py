"""Tests for TorusSpace: periodic nearest-neighbor bins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.torus import TorusSpace


class TestConstruction:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            TorusSpace(np.zeros((0, 2)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            TorusSpace([[0.5, 1.0]])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            TorusSpace([[0.5, 0.5], [0.5, 0.5]])

    def test_rejects_big_dimension(self):
        with pytest.raises(ValueError, match="unsupported"):
            TorusSpace.random(4, dim=9)

    def test_random_shapes(self):
        t = TorusSpace.random(10, dim=3, seed=0)
        assert t.points.shape == (10, 3) and t.dim == 3


class TestAssign:
    def test_nearest_in_plain_metric(self):
        t = TorusSpace([[0.25, 0.25], [0.75, 0.75]])
        assert t.assign(np.array([[0.3, 0.3]])).tolist() == [0]

    def test_wraparound_metric(self):
        """Point at 0.05 is closer to a server at 0.95 across the seam."""
        t = TorusSpace([[0.95, 0.5], [0.5, 0.5]])
        assert t.assign(np.array([[0.02, 0.5]])).tolist() == [0]

    def test_one_dim_wraparound(self):
        t = TorusSpace([[0.1], [0.6]])
        assert t.assign(np.array([[0.9]])).tolist() == [0]

    def test_dimension_mismatch_raises(self, small_torus):
        with pytest.raises(ValueError, match="last dimension"):
            small_torus.assign(np.zeros((3, 3)))

    def test_rejects_out_of_range_points(self, small_torus):
        with pytest.raises(ValueError):
            small_torus.assign(np.array([[1.0, 0.5]]))

    def test_assignment_matches_brute_force(self, small_torus, rng):
        queries = rng.random((200, 2))
        owners = small_torus.assign(queries)
        pts = small_torus.points
        for q, got in zip(queries, owners):
            d = np.abs(pts - q)
            d = np.minimum(d, 1 - d)
            expected = int(np.argmin((d**2).sum(axis=1)))
            assert got == expected

    def test_large_query_batch(self):
        torus = TorusSpace.random(1 << 16, seed=0)
        queries = np.random.default_rng(3).random((1 << 18, 2))
        assert torus.assign(queries).shape == (queries.shape[0],)


class TestRegionMeasures:
    def test_single_point(self):
        assert TorusSpace([[0.5, 0.5]]).region_measures().tolist() == [1.0]

    def test_2d_sums_to_one(self, small_torus):
        m = small_torus.region_measures()
        assert m.sum() == pytest.approx(1.0)
        assert np.all(m > 0)

    def test_1d_exact_measures(self):
        t = TorusSpace([[0.0], [0.5]])
        assert t.region_measures().tolist() == pytest.approx([0.5, 0.5])

    def test_1d_asymmetric(self):
        t = TorusSpace([[0.0], [0.25]])
        # bisectors at 0.125 and 0.625: bin0 owns 0.5+0.125=0.625... no:
        # bin0 owns (0.625, 1] u [0, 0.125] = 0.5; bin1 owns the rest 0.5?
        # gaps: 0.25 and 0.75; each owns half of each adjacent gap:
        # bin0: 0.75/2 + 0.25/2 = 0.5, bin1: same.
        assert t.region_measures().tolist() == pytest.approx([0.5, 0.5])

    def test_1d_three_points(self):
        t = TorusSpace([[0.0], [0.2], [0.6]])
        expected = [0.5 * (0.4 + 0.2), 0.5 * (0.2 + 0.4), 0.5 * (0.4 + 0.4)]
        assert t.region_measures().tolist() == pytest.approx(expected)

    def test_measures_match_assignment_frequencies(self, small_torus, rng):
        samples = rng.random((100_000, 2))
        owners = small_torus.assign(samples)
        freq = np.bincount(owners, minlength=small_torus.n) / samples.shape[0]
        assert np.abs(freq - small_torus.region_measures()).max() < 6e-3

    def test_3d_monte_carlo_measures(self):
        t = TorusSpace.random(16, dim=3, seed=5)
        t._measure_samples = 50_000  # keep the test fast
        m = t.region_measures()
        assert m.sum() == pytest.approx(1.0)
        assert np.all(m >= 0)

    def test_measures_cached(self, small_torus):
        assert small_torus.region_measures() is small_torus.region_measures()

    @given(st.integers(2, 24), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_2d_measures_always_partition(self, n, seed):
        t = TorusSpace.random(n, dim=2, seed=seed)
        m = t.region_measures()
        assert m.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(m > 0)


class TestQueries:
    def test_regions_at_least_monotone(self, small_torus):
        counts = [small_torus.regions_at_least(c) for c in (0.5, 1, 2, 4)]
        assert counts == sorted(counts, reverse=True)

    def test_regions_at_least_rejects_negative(self, small_torus):
        with pytest.raises(ValueError):
            small_torus.regions_at_least(-0.5)

    def test_toroidal_distance_symmetry(self, small_torus, rng):
        a, b = rng.random((2, 10, 2))
        d1 = small_torus.toroidal_distance(a, b)
        d2 = small_torus.toroidal_distance(b, a)
        assert np.allclose(d1, d2)

    def test_toroidal_distance_max(self, small_torus):
        d = small_torus.toroidal_distance(
            np.array([0.0, 0.0]), np.array([0.5, 0.5])
        )
        assert d == pytest.approx(np.sqrt(0.5))


class TestChoiceSampling:
    def test_shape(self, small_torus, rng):
        bins = small_torus.sample_choice_bins(rng, 20, 3)
        assert bins.shape == (20, 3)
        assert bins.dtype == np.int64
        assert np.all((bins >= 0) & (bins < small_torus.n))

    def test_partitioned_slabs(self, rng):
        """With partitioned sampling, choice j comes from slab j."""
        # servers at x = 0.25 / 0.75: the x < 0.5 slab IS cell 0, the
        # x >= 0.5 slab IS cell 1 (bisectors at x = 0.0 and x = 0.5)
        t = TorusSpace([[0.25, 0.5], [0.75, 0.5]])
        bins = t.sample_choice_bins(rng, 500, 2, partitioned=True)
        assert (bins[:, 0] == 0).all()
        assert (bins[:, 1] == 1).all()
