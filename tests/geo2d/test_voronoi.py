"""Tests for toroidal Voronoi areas: exactness and cross-validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo2d.voronoi import (
    monte_carlo_region_measures,
    polygon_area,
    toroidal_voronoi_areas,
)


class TestPolygonArea:
    def test_unit_square(self):
        verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert polygon_area(verts) == pytest.approx(1.0)

    def test_vertex_order_irrelevant(self):
        verts = np.array([[1, 1], [0, 0], [0, 1], [1, 0]])
        assert polygon_area(verts) == pytest.approx(1.0)

    def test_triangle(self):
        verts = np.array([[0, 0], [2, 0], [0, 2]])
        assert polygon_area(verts) == pytest.approx(2.0)

    def test_degenerate(self):
        assert polygon_area(np.array([[0, 0], [1, 1]])) == 0.0


class TestToroidalVoronoiAreas:
    def test_single_point(self):
        assert toroidal_voronoi_areas([[0.5, 0.5]]).tolist() == [1.0]

    def test_two_points_split_evenly_when_antipodal(self):
        areas = toroidal_voronoi_areas([[0.25, 0.25], [0.75, 0.75]])
        assert areas.tolist() == pytest.approx([0.5, 0.5])

    def test_regular_grid_equal_cells(self):
        from repro.geo2d.pointsets import grid_points

        pts = grid_points(4)
        areas = toroidal_voronoi_areas(pts)
        assert np.allclose(areas, 1 / 16)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            toroidal_voronoi_areas([[0.1, 0.1], [0.1, 0.1]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            toroidal_voronoi_areas([[0.5, 1.5]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            toroidal_voronoi_areas([[0.5, 0.5, 0.5]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            toroidal_voronoi_areas(np.empty((0, 2)))

    @given(st.integers(2, 40), st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_partition_of_unity(self, n, seed):
        rng = np.random.default_rng(seed)
        areas = toroidal_voronoi_areas(rng.random((n, 2)))
        assert areas.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(areas > 0)

    def test_partition_of_unity_at_2048_points(self):
        areas = toroidal_voronoi_areas(np.random.default_rng(0).random((2048, 2)))
        assert abs(areas.sum() - 1.0) < 1e-9

    def test_translation_invariance(self):
        """Shifting all points on the torus must not change areas."""
        rng = np.random.default_rng(3)
        pts = rng.random((20, 2))
        areas = toroidal_voronoi_areas(pts)
        shifted = (pts + [0.37, 0.61]) % 1.0
        assert np.allclose(toroidal_voronoi_areas(shifted), areas, atol=1e-9)


class TestMonteCarloMeasures:
    def test_agrees_with_exact(self):
        rng = np.random.default_rng(4)
        pts = rng.random((50, 2))
        exact = toroidal_voronoi_areas(pts)
        mc = monte_carlo_region_measures(pts, 150_000, seed=5)
        assert np.abs(exact - mc).max() < 0.01

    @pytest.mark.parametrize("points_seed, n, dim, samples, seed", [
        (6, 10, 3, 20_000, 7),
        (1, 2048, 2, 100_000, 2),
    ], ids=["3d-n10", "2d-n2048"])
    def test_sums_to_one(self, points_seed, n, dim, samples, seed):
        pts = np.random.default_rng(points_seed).random((n, dim))
        mc = monte_carlo_region_measures(pts, samples, seed=seed)
        assert abs(mc.sum() - 1.0) < 1e-9

    def test_deterministic_given_seed(self):
        pts = np.random.default_rng(8).random((5, 2))
        a = monte_carlo_region_measures(pts, 10_000, seed=9)
        b = monte_carlo_region_measures(pts, 10_000, seed=9)
        assert np.array_equal(a, b)

    def test_block_boundary(self):
        """Sample counts spanning the internal block size stay exact."""
        pts = np.random.default_rng(10).random((4, 2))
        mc = monte_carlo_region_measures(pts, (1 << 17) + 13, seed=11)
        assert mc.sum() == pytest.approx(1.0)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            monte_carlo_region_measures([[0.5, 0.5]], 0)
