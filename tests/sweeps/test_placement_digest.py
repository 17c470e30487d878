"""Golden pin of placement semantics, mixed into the sweep cache salt.

The digest covers the max-load counts of canonical table cells (every
space, d ∈ {1, 2, 3}, all four tie-break strategies, Vöcking's
partitioned sampling and one m ≠ n cell) plus one full ``place_balls``
load vector per space.  Any change that alters what a seed places must
change :data:`repro.sweeps.cache.PLACEMENT_DIGEST`, and with it every
cache key, so a warm cache never serves cells computed by older
placement semantics.
"""

from __future__ import annotations

import hashlib

from repro.baselines.uniform import UniformSpace
from repro.core.placement import place_balls
from repro.core.ring import RingSpace
from repro.core.torus import TorusSpace
from repro.stats.trials import CellSpec, run_cell
from repro.sweeps.cache import DEFAULT_SALT, PLACEMENT_DIGEST, canonical_json

TRIALS = 32

CELLS = (
    CellSpec("ring", 1024, 2),
    CellSpec("ring", 512, 1),
    CellSpec("ring", 256, 3, strategy="smaller"),
    CellSpec("ring", 256, 2, strategy="larger"),
    CellSpec("ring", 1024, 2, strategy="first", partitioned=True),
    CellSpec("torus", 256, 2),
    CellSpec("torus", 128, 3, strategy="first"),
    CellSpec("uniform", 512, 2, m=2048),
)


def _single_runs():
    """One ``place_balls`` load vector per space."""
    return [
        place_balls(RingSpace.random(1024, seed=1), 1024, 2, seed=2).loads,
        place_balls(
            TorusSpace.random(256, seed=3), 256, 2, strategy="smaller", seed=4
        ).loads,
        place_balls(UniformSpace(512), 512, 3, partitioned=True, seed=5).loads,
    ]


def placement_digest() -> str:
    """blake2b over the canonical cells' counts and the single-run loads."""
    payload = {
        "cells": [
            run_cell(spec, TRIALS, seed=i).to_json_counts()
            for i, spec in enumerate(CELLS)
        ],
        "loads": [loads.tolist() for loads in _single_runs()],
    }
    text = canonical_json(payload).encode("utf-8")
    return hashlib.blake2b(text, digest_size=16).hexdigest()


def test_placement_digest_is_pinned():
    assert placement_digest() == PLACEMENT_DIGEST


def test_default_salt_carries_the_digest():
    assert PLACEMENT_DIGEST in DEFAULT_SALT
