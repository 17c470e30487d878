"""Abstract interface for geometric spaces with nearest-neighbor bins.

A *space* is a compact metric probability space holding ``n`` server
points.  Its nearest-neighbor decomposition (arcs on the ring, Voronoi
cells on the torus) partitions the space into ``n`` bins; an item's
"choice" is a uniform point of the space mapped to the owning bin.  The
placement engine (:mod:`repro.core.engine`) only talks to spaces through
this interface, so Theorem 1's process runs unchanged on any geometry —
exactly the generality the paper's Section 3 closing remark claims.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["GeometricSpace"]


class GeometricSpace(abc.ABC):
    """A compact space partitioned into nearest-neighbor regions.

    Concrete subclasses: :class:`repro.core.ring.RingSpace` (1-D circle,
    clockwise-successor ownership as in consistent hashing) and
    :class:`repro.core.torus.TorusSpace` (k-D unit torus, Euclidean
    Voronoi ownership).
    """

    #: number of server points / bins
    n: int

    # ------------------------------------------------------------------
    # sampling / assignment
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def sample_choice_bins(
        self,
        rng: np.random.Generator,
        m: int,
        d: int,
        *,
        partitioned: bool = False,
    ) -> np.ndarray:
        """Draw candidate bins for ``m`` balls with ``d`` choices each.

        Returns an ``(m, d)`` int64 array of bin indices.  Each entry is
        the bin owning an independent uniform point of the space.  With
        ``partitioned=True`` choice ``j`` is drawn uniformly from the
        ``j``-th of ``d`` equal sub-blocks of the space (Vöcking's
        interval partition; only meaningful where a canonical linear
        order exists — the ring).
        """

    @abc.abstractmethod
    def assign(self, points: np.ndarray) -> np.ndarray:
        """Map points of the space to owning bin indices (vectorized)."""

    @abc.abstractmethod
    def region_measures(self) -> np.ndarray:
        """Return the measure (length/area) of each bin's region.

        Measures are non-negative and sum to 1 (the space is a
        probability space).  Used by the ``smaller``/``larger``
        tie-breaking strategies and by the theory-validation
        experiments.
        """

    # ------------------------------------------------------------------
    # conveniences shared by subclasses
    # ------------------------------------------------------------------
    @property
    def n_bins(self) -> int:
        """Alias for ``n`` (number of nearest-neighbor regions)."""
        return self.n

    def choice_probabilities(self) -> np.ndarray:
        """Probability that a single uniform choice probes each bin.

        For nearest-neighbor spaces this *is* the region measure; kept
        as a separate name because baselines (uniform bins) override it.
        """
        return self.region_measures()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"
