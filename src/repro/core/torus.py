"""The k-D unit torus with Euclidean Voronoi ownership (paper, Section 3).

Servers are points in ``[0, 1)^k`` with wraparound along every axis; a
uniform point of the torus belongs to the server minimizing toroidal
Euclidean distance, i.e. bins are the cells of a periodic Voronoi
diagram.  The paper analyzes ``k = 2`` and remarks the argument extends
to any constant dimension; we support ``1 <= k <= 8``.

Implementation notes
--------------------
Ownership is a nearest-neighbor query under the periodic metric; the
simulation never materializes the Voronoi diagram.  The reference is
:class:`scipy.spatial.cKDTree` with ``boxsize=1.0`` (exact periodic
metrics).  For k = 2 a compiled kernel backend replaces it with a
**periodic uniform grid**, built at construction by one ``torus_grid``
pass: a power-of-two ``side × side`` grid with about one server per
cell, filled by a counting sort that also checks the servers are
distinct.  A query scans the 3 × 3 cells around its own, then ring
after ring until a rounding-safe bound rules out every cell left.  It
computes squared distances in cKDTree's arithmetic (wrap ``q − p`` by
±1 beyond ±0.5, then ``r = dx*dx; r += dy*dy``), so it returns the
server cKDTree returns; on an exact tie it takes the lowest index.
Servers too unevenly spread for a bounded search (a cell with more
than 64, or an empty 8 × 8 block of cells) keep the KD-tree.  The
KD-tree, and with it ``scipy.spatial``, is built only on first use:
by the numpy reference backend, by tori with k ≠ 2, and by those
unevenly spread servers.

Region *areas* (for measure-aware tie-breaking and the Lemma 9
experiments) are computed exactly for k = 2 via
:func:`repro.geo2d.voronoi.toroidal_voronoi_areas`, exactly for k = 1
in closed form, and by Monte-Carlo for k >= 3.
"""

from __future__ import annotations

import numpy as np

from repro.core.spaces import GeometricSpace
from repro.kernels import default_backend
from repro.utils.rng import resolve_rng
from repro.utils.validation import as_float_array, check_dimension, check_positive_int

__all__ = ["TorusSpace"]


class TorusSpace(GeometricSpace):
    """Unit torus ``[0, 1)^k`` with nearest-server (Voronoi) bins.

    Parameters
    ----------
    points:
        ``(n, k)`` server locations, distinct under the toroidal metric.

    Examples
    --------
    >>> t = TorusSpace([[0.25, 0.25], [0.75, 0.75]])
    >>> t.assign(np.array([[0.2, 0.2], [0.8, 0.8]]))
    array([0, 1])
    """

    def __init__(self, points) -> None:
        pts = as_float_array(points, "points", ndim=2)
        if pts.shape[0] < 1:
            raise ValueError("TorusSpace needs at least one server point")
        check_dimension(pts.shape[1], "dimension")
        if np.any((pts < 0.0) | (pts >= 1.0)):
            raise ValueError("points must lie in [0, 1)^k")
        self._pts = pts
        self.n = int(pts.shape[0])
        self.dim = int(pts.shape[1])
        self._tree = None
        # (side, start, xy, ids): the compiled backend's periodic grid,
        # or None where the KD-tree answers queries
        self._grid: tuple[int, np.ndarray, np.ndarray, np.ndarray] | None = None
        if self.dim == 2:
            try:
                grid_pass = default_backend().torus_grid
            except (ValueError, RuntimeError):
                # a bad REPRO_KERNEL_BACKEND is reported by the engines
                grid_pass = None
            if grid_pass is not None:
                self._grid = grid_pass(pts, self._grid_side())
        if self._grid is None and self.n > 1:
            dist, _ = self._kdtree().query(pts, k=2)
            if np.any(dist[:, 1] == 0.0):
                raise ValueError("points must be distinct on the torus")
        self._measures: np.ndarray | None = None
        self._measure_samples = 1_000_000

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def random(cls, n: int, dim: int = 2, seed=None) -> "TorusSpace":
        """Place ``n`` servers independently and uniformly on the torus."""
        n = check_positive_int(n, "n")
        dim = check_dimension(dim, "dim")
        rng = resolve_rng(seed)
        return cls(rng.random((n, dim)))

    def _grid_side(self) -> int:
        """The grid side: the power of two whose square is ≥ n."""
        return 1 << (int(self.n - 1).bit_length() + 1) // 2

    def _kdtree(self):
        """The periodic :class:`scipy.spatial.cKDTree`, built on first use."""
        if self._tree is None:
            from scipy.spatial import cKDTree

            self._tree = cKDTree(self._pts, boxsize=1.0)
        return self._tree

    def _assign_trusted(self, pts: np.ndarray) -> np.ndarray:
        """Owners of ``(q, dim)`` points already known to lie in the torus."""
        if self._grid is not None:
            backend = default_backend()
            if backend.torus_assign is not None:
                return backend.torus_assign(pts, self._grid)
        _, idx = self._kdtree().query(pts)
        return np.asarray(idx, dtype=np.int64)

    # ------------------------------------------------------------------
    # GeometricSpace interface
    # ------------------------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        """Server locations (read-only view), shape ``(n, dim)``."""
        v = self._pts.view()
        v.flags.writeable = False
        return v

    def assign(self, points: np.ndarray) -> np.ndarray:
        """Owning bin (nearest server under the toroidal metric)."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.shape[-1] != self.dim:
            raise ValueError(
                f"points must have last dimension {self.dim}, got {pts.shape}"
            )
        if pts.size and not np.all((pts >= 0.0) & (pts < 1.0)):
            raise ValueError("points must lie in [0, 1)^k")
        return self._assign_trusted(pts.reshape(-1, self.dim)).reshape(
            pts.shape[:-1]
        )

    def sample_choice_bins(
        self,
        rng: np.random.Generator,
        m: int,
        d: int,
        *,
        partitioned: bool = False,
    ) -> np.ndarray:
        """Draw ``(m, d)`` candidate bins from uniform torus points.

        ``partitioned=True`` partitions the torus into ``d`` slabs along
        the first coordinate (the natural generalization of Vöcking's
        ring intervals; the paper only uses partitioning on the ring).
        """
        u = rng.random((m, d, self.dim))
        if partitioned:
            u[..., 0] = (u[..., 0] + np.arange(d)[None, :]) / d
        return self._assign_trusted(u.reshape(m * d, self.dim)).reshape(m, d)

    def region_measures(self) -> np.ndarray:
        """Voronoi cell measures (cached).

        * k = 1: closed form — each server owns half of the gap to each
          circular neighbor (note this differs from :class:`RingSpace`,
          whose ownership is one-sided clockwise-successor).
        * k = 2: exact areas via periodic tiling.
        * k >= 3: Monte-Carlo estimate (``measure_samples`` probes).
        """
        if self._measures is None:
            if self.dim == 1:
                self._measures = self._exact_1d_measures()
            elif self.dim == 2:
                from repro.geo2d.voronoi import toroidal_voronoi_areas

                self._measures = toroidal_voronoi_areas(self._pts)
            else:
                from repro.geo2d.voronoi import monte_carlo_region_measures

                self._measures = monte_carlo_region_measures(
                    self._pts,
                    n_samples=self._measure_samples,
                    seed=np.random.SeedSequence(
                        abs(hash((self.n, self.dim))) % (1 << 63)
                    ),
                )
        return self._measures

    def _exact_1d_measures(self) -> np.ndarray:
        if self.n == 1:
            return np.ones(1)
        order = np.argsort(self._pts[:, 0])
        sorted_pos = self._pts[order, 0]
        gaps = np.empty(self.n)
        gaps[:-1] = np.diff(sorted_pos)
        gaps[-1] = 1.0 - sorted_pos[-1] + sorted_pos[0]
        # each point owns half of the gap on either side
        measures_sorted = 0.5 * (gaps + np.roll(gaps, 1))
        measures = np.empty(self.n)
        measures[order] = measures_sorted
        return measures

    # ------------------------------------------------------------------
    # torus-specific queries used by theory validation
    # ------------------------------------------------------------------
    def regions_at_least(self, c: float) -> int:
        """Number of Voronoi regions of area at least ``c / n`` (Lemma 9)."""
        if c < 0:
            raise ValueError(f"c must be non-negative, got {c}")
        return int(np.count_nonzero(self.region_measures() >= c / self.n))

    def toroidal_distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Euclidean distance on the torus between point arrays."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        delta = np.abs(a - b)
        delta = np.minimum(delta, 1.0 - delta)
        return np.sqrt(np.sum(delta**2, axis=-1))
