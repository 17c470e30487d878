"""Deterministic random-number management.

Every stochastic entry point in :mod:`repro` accepts a ``seed`` argument
that may be ``None``, an integer, a :class:`numpy.random.SeedSequence`, or
an already-constructed :class:`numpy.random.Generator`.  This module
normalizes those inputs and provides deterministic *spawning* so that a
multi-trial experiment run serially or across a process pool produces
bit-identical results for a given master seed (DESIGN.md, decision 3).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["resolve_rng", "spawn_rngs", "spawn_seed_sequences"]

SeedLike = "int | None | np.random.SeedSequence | np.random.Generator"


def resolve_rng(
    seed: int | None | np.random.SeedSequence | np.random.Generator = None,
) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int``, a ``SeedSequence``, or a
        ``Generator`` (returned unchanged so callers can thread state).

    Examples
    --------
    >>> g = resolve_rng(7)
    >>> h = resolve_rng(7)
    >>> float(g.random()) == float(h.random())
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        "seed must be None, int, numpy.random.SeedSequence, or "
        f"numpy.random.Generator; got {type(seed).__name__}"
    )


def spawn_seed_sequences(
    seed: int | None | np.random.SeedSequence, n: int
) -> list[np.random.SeedSequence]:
    """Spawn ``n`` independent child seed sequences from a master seed.

    The children are independent streams in the hash-based SeedSequence
    tree, so trial ``i`` sees the same stream regardless of how many
    trials run or in which order/process they execute.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.SeedSequence):
        base = seed
    else:
        base = np.random.SeedSequence(seed)
    return base.spawn(n)


def spawn_rngs(
    seed: int | None | np.random.SeedSequence, n: int
) -> list[np.random.Generator]:
    """Spawn ``n`` independent generators (one per trial/worker)."""
    return [np.random.default_rng(ss) for ss in spawn_seed_sequences(seed, n)]


def interleave_uniforms(
    rng: np.random.Generator, m: int, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-draw all randomness for one placement run.

    Returns ``(points, tiebreaks)`` where ``points`` has shape ``(m, d)``
    (candidate locations in [0, 1), consumed row by row in arrival order)
    and ``tiebreaks`` has shape ``(m,)`` (one uniform per ball used to
    resolve ties).  Pre-drawing in a fixed layout is what makes the
    fused engine bit-identical to the sequential reference
    (DESIGN.md, decision 1).
    """
    points = rng.random((m, d))
    tiebreaks = rng.random(m)
    return points, tiebreaks


def stable_hash_seed(*parts: Sequence[object]) -> int:
    """Derive a stable 63-bit seed from string-able parts.

    Used by experiment drivers to give each (table, n, d, strategy) cell
    its own deterministic stream without manual bookkeeping.
    """
    import hashlib

    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1
