"""Vöcking's Always-Go-Left scheme ("How asymmetry helps load balancing").

The paper's Section 2 remark: Vöcking's variant draws choice ``i``
uniformly from the interval ``[(i-1)/d, i/d)`` of the ring and breaks
ties toward the *lowest* interval, improving the bound to
``log log n / (d log phi_d) + O(1)`` where ``phi_d`` is the growth rate
of the ``d``-step Fibonacci (d-bonacci) numbers — ``phi_2`` is the
golden ratio.  Table 3's ``arc-left`` column is this scheme on the
random-arc ring.

In our engine the scheme is exactly ``partitioned=True`` sampling plus
``TieBreak.FIRST``; this module provides the convenience wrapper and
the analytical ``phi_d`` bound.
"""

from __future__ import annotations

import math

from repro.core.placement import PlacementResult, place_balls
from repro.core.spaces import GeometricSpace
from repro.core.strategies import TieBreak
from repro.utils.validation import check_positive_int

__all__ = ["always_go_left", "dbonacci_growth_rate", "vocking_bound"]


def always_go_left(
    space: GeometricSpace,
    m: int,
    d: int = 2,
    *,
    seed=None,
) -> PlacementResult:
    """Run Vöcking's Always-Go-Left on any space.

    Choice ``j`` is drawn from the ``j``-th of ``d`` equal sub-blocks of
    the space and ties break toward the lowest ``j``.

    Examples
    --------
    >>> from repro.core import RingSpace
    >>> res = always_go_left(RingSpace.random(256, seed=0), 256, seed=1)
    >>> res.partitioned and res.strategy.value == "first"
    True
    """
    d = check_positive_int(d, "d")
    if d < 2:
        raise ValueError("Always-Go-Left requires d >= 2")
    return place_balls(
        space,
        m,
        d,
        strategy=TieBreak.FIRST,
        partitioned=True,
        seed=seed,
    )


def dbonacci_growth_rate(d: int, *, tol: float = 1e-14) -> float:
    """``phi_d``: the positive root of ``x^d = x^{d-1} + ... + x + 1``.

    ``phi_2`` is the golden ratio; ``phi_d`` increases toward 2.
    Solved by bisection on the equivalent ``x^{d+1} - 2 x^d + 1 = 0``
    in ``(1, 2)``.

    Examples
    --------
    >>> abs(dbonacci_growth_rate(2) - (1 + 5 ** 0.5) / 2) < 1e-12
    True
    """
    d = check_positive_int(d, "d")
    if d < 2:
        raise ValueError("phi_d is defined for d >= 2")

    def f(x: float) -> float:
        # x^d - sum_{k<d} x^k, rewritten stably
        return x**d - (x**d - 1.0) / (x - 1.0)

    lo, hi = 1.0 + 1e-9, 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def vocking_bound(n: int, d: int) -> float:
    """Leading term of Vöcking's bound: ``ln ln n / (d ln phi_d)``.

    Compare with Theorem 1's ``ln ln n / ln d``: Always-Go-Left wins
    for every ``d >= 2`` (strictly, since ``d ln phi_d > ln d``).
    """
    n = check_positive_int(n, "n")
    if n < 3:
        raise ValueError("n must be >= 3")
    d = check_positive_int(d, "d")
    if d < 2:
        raise ValueError("d must be >= 2")
    return math.log(math.log(n)) / (d * math.log(dbonacci_growth_rate(d)))
