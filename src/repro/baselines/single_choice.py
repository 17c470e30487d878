"""The d = 1 regimes: what two choices rescues you from.

With a single choice there is no decision to make; the load vector is a
pure occupancy problem.  The two reference scales (for m = n):

* **uniform bins**: max load ``~ ln n / ln ln n`` (classical maximum of
  n Poisson(1)-ish cells),
* **geometric bins** (ring arcs / Voronoi cells): max load ``Θ(log n)``
  — a *qualitatively worse* regime, because the largest region has
  measure ``Θ(log n / n)`` and soaks up ``Θ(log n)`` items by itself.

This gap (visible in Tables 1-2's d = 1 columns growing linearly in
``log n``) is the paper's motivation: plain consistent hashing is
log-n-imbalanced, and two choices repairs it without virtual servers.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.placement import place_balls
from repro.core.spaces import GeometricSpace
from repro.utils.validation import check_positive_int

__all__ = ["simulate_single_choice", "uniform_d1_scale", "geometric_d1_scale"]


def simulate_single_choice(space: GeometricSpace, m: int, *, seed=None) -> np.ndarray:
    """Place ``m`` items with one choice each; returns the load vector."""
    return place_balls(space, m, d=1, seed=seed).loads


def uniform_d1_scale(n: int, m: int | None = None) -> float:
    """Asymptotic max-load scale for uniform bins, one choice.

    For ``m = n``: the classical ``ln n / ln ln n`` (leading term).
    For ``m >> n ln n``: ``m/n + sqrt(2 (m/n) ln n)`` (Gaussian regime).
    """
    n = check_positive_int(n, "n")
    if n < 16:
        raise ValueError("asymptotic scale needs n >= 16")
    m = n if m is None else check_positive_int(m, "m")
    lam = m / n
    if lam <= 1.0:
        return math.log(n) / math.log(math.log(n))
    return lam + math.sqrt(2.0 * lam * math.log(n))


def geometric_d1_scale(n: int, m: int | None = None) -> float:
    """Asymptotic max-load scale for geometric bins, one choice.

    The largest nearest-neighbor region has measure ``~ ln n / n``
    (exactly ``H_n / n`` in expectation on the ring), so with ``m``
    items its expected occupancy alone is ``(m/n) ln n`` — the Θ(log n)
    behaviour of Tables 1-2's d = 1 columns.
    """
    n = check_positive_int(n, "n")
    if n < 16:
        raise ValueError("asymptotic scale needs n >= 16")
    m = n if m is None else check_positive_int(m, "m")
    return (m / n) * math.log(n)
