"""Core of the paper's contribution: geometric d-choice load balancing.

The pipeline is::

    space = RingSpace.random(n, seed)         # or TorusSpace.random(n, ...)
    result = place_balls(space, m=n, d=2)      # greedy least-loaded insertion
    result.max_load                            # the statistic in Tables 1-3

``place_balls`` runs one trial of the trial-fused engine, which
vectorizes across independent runs (inside the ``cext`` kernel where
it applies) and is bit-identical to the exact sequential reference;
see :mod:`repro.core.engine` and :mod:`repro.core.multitrial`.
"""

from repro.core.spaces import GeometricSpace
from repro.core.incremental import IncrementalState
from repro.core.ring import RingSpace
from repro.core.torus import TorusSpace
from repro.core.strategies import TieBreak
from repro.core.placement import PlacementResult, place_balls
from repro.core.rounds import place_balls_in_rounds
from repro.core.loads import (
    height_counts_from_loads,
    imbalance_series,
    load_histogram,
    max_load_series,
    nu_profile,
    nu_profile_series,
    total_load_series,
)

__all__ = [
    "GeometricSpace",
    "IncrementalState",
    "RingSpace",
    "TorusSpace",
    "TieBreak",
    "PlacementResult",
    "place_balls",
    "place_balls_in_rounds",
    "load_histogram",
    "nu_profile",
    "height_counts_from_loads",
    "max_load_series",
    "total_load_series",
    "imbalance_series",
    "nu_profile_series",
]
