"""The classical (uniform-bin) d-choice process of Azar et al.

:class:`UniformSpace` plugs the standard balls-into-bins setting into
the same placement engine used by the geometric spaces, so every
comparison in the experiments is apples-to-apples: identical engine,
identical tie-breaking, identical RNG discipline — only the choice
distribution differs.
"""

from __future__ import annotations

import numpy as np

from repro.core.placement import place_balls
from repro.core.spaces import GeometricSpace
from repro.core.strategies import TieBreak
from repro.utils.validation import check_positive_int

__all__ = ["UniformSpace", "abku_max_load"]


class UniformSpace(GeometricSpace):
    """``n`` equiprobable bins presented through the space interface.

    The "space" is the unit interval split into ``n`` equal cells; a
    uniform point of the interval probes each bin with probability
    exactly ``1/n``.  ``partitioned=True`` maps choice ``j`` to the
    ``j``-th block of ``n/d`` bins, which is Vöcking's grouping.

    Examples
    --------
    >>> u = UniformSpace(4)
    >>> u.assign(np.array([0.0, 0.3, 0.99]))
    array([0, 1, 3])
    """

    def __init__(self, n: int) -> None:
        self.n = check_positive_int(n, "n")

    def assign(self, points: np.ndarray) -> np.ndarray:
        """Bin ``floor(x · n)`` of each point ``x`` in ``[0, 1)``."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.size and (np.any(pts < 0.0) or np.any(pts >= 1.0)):
            raise ValueError("points must lie in [0, 1)")
        return np.minimum((pts * self.n).astype(np.int64), self.n - 1)

    def sample_choice_bins(
        self,
        rng: np.random.Generator,
        m: int,
        d: int,
        *,
        partitioned: bool = False,
    ) -> np.ndarray:
        """``(m, d)`` candidate bins from ``m·d`` uniform draws of ``rng``.

        ``partitioned`` maps choice ``j``'s draw ``u`` to ``(u + j)/d``,
        a uniform bin of the ``j``-th block of ``n/d`` bins.
        """
        u = rng.random((m, d))
        if partitioned:
            u = (u + np.arange(d)) / d
        return self.assign(u.ravel()).reshape(m, d)

    def region_measures(self) -> np.ndarray:
        """Every bin's cell has length ``1/n``."""
        return np.full(self.n, 1.0 / self.n)


def abku_max_load(
    n: int,
    m: int | None = None,
    d: int = 2,
    *,
    strategy: TieBreak | str = TieBreak.RANDOM,
    seed=None,
) -> int:
    """Simulate the classical process once and return the maximum load.

    Convenience wrapper: ``place_balls(UniformSpace(n), ...)`` — the
    exact process analyzed by Azar et al. and the reference line for
    the paper's Tables 1-2.
    """
    n = check_positive_int(n, "n")
    m = n if m is None else m
    return place_balls(UniformSpace(n), m, d, strategy=strategy, seed=seed).max_load
