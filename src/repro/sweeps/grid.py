"""Declarative parameter grids and their deterministic expansion.

A :class:`SweepGrid` names, per axis, the values to sweep —
``space``, ``n``, ``d``, ``m``, ``strategy``, ``partitioned``, ``dim``
— plus the trial count and master seed shared by every cell.
:meth:`SweepGrid.cells` expands the cartesian product in a fixed axis
order into :class:`SweepCell` specs, each seeded by
:func:`repro.stats.trials.cell_seed` from the master seed and the cell
alone, so the expansion is a pure function of the grid, and a cell
gets the seed every experiment driver gives it: a grid's shards fill
the cache with the cells of the paper's tables.  That determinism is
what makes the content-addressed cache (:mod:`repro.sweeps.cache`) and
shard merging (:mod:`repro.sweeps.result`) correct.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from typing import Iterable, Mapping, Sequence

from repro.stats.trials import CellSpec, canonical_cell, cell_seed
from repro.utils.validation import check_positive_int

__all__ = ["AXES", "SweepCell", "SweepGrid", "parse_axis_args", "shard_cells"]

#: Axis expansion order (outermost first).  Fixed forever: changing it
#: would reorder cells and break shard/merge reproducibility.
AXES = ("space", "n", "d", "m", "strategy", "partitioned", "dim")


@dataclass(frozen=True)
class SweepCell:
    """One expanded grid point: a cell spec plus trials and seed.

    Attributes
    ----------
    spec:
        The :class:`~repro.stats.trials.CellSpec` to simulate.
    trials:
        Independent trials of the cell.
    seed:
        The cell's seed, :func:`repro.stats.trials.cell_seed` of the
        grid's master seed.
    """

    spec: CellSpec
    trials: int
    seed: int

    def axis(self, name: str) -> object:
        """Value of one grid axis for this cell (e.g. ``axis("n")``)."""
        if name not in AXES:
            raise KeyError(f"unknown axis {name!r}; expected one of {AXES}")
        return getattr(self.spec, name)

    def label(self) -> str:
        """Human-readable cell label (delegates to the spec)."""
        return self.spec.label()


def _astuple(value) -> tuple:
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        return (value,)
    return tuple(value)


@dataclass(frozen=True)
class SweepGrid:
    """A declarative parameter grid over the table-cell axes.

    Every axis accepts a scalar or a sequence of values; scalars are
    normalized to one-element tuples.  ``trials`` and ``seed`` are
    shared by all cells; ``name`` is a label only, so grids of any
    name seed a cell alike.

    Examples
    --------
    >>> grid = SweepGrid(n=(256, 1024), d=(1, 2), trials=10)
    >>> len(grid)
    4
    >>> [c.label() for c in grid.cells()][:2]
    ['ring n=256 d=1', 'ring n=256 d=2']
    """

    n: Sequence[int] = (256,)
    d: Sequence[int] = (2,)
    space: Sequence[str] = ("ring",)
    m: Sequence[int | None] = (None,)
    strategy: Sequence[str] = ("random",)
    partitioned: Sequence[bool] = (False,)
    dim: Sequence[int] = (2,)
    trials: int = 100
    seed: int = 20030206
    name: str = "sweep"

    def __post_init__(self) -> None:
        for axis in AXES:
            object.__setattr__(self, axis, _astuple(getattr(self, axis)))
            if not getattr(self, axis):
                raise ValueError(f"axis {axis!r} must have at least one value")
        check_positive_int(self.trials, "trials")
        if not isinstance(self.seed, int):
            raise TypeError(f"seed must be an int, got {type(self.seed).__name__}")

    def __len__(self) -> int:
        return len(self.cells())

    def describe(self) -> dict:
        """Canonical JSON-able description (the merge-identity of the grid)."""
        desc: dict = {axis: list(getattr(self, axis)) for axis in AXES}
        desc.update(trials=self.trials, seed=self.seed, name=self.name)
        return desc

    def cells(self) -> list[SweepCell]:
        """Expand to the full deterministic cell list (cartesian product).

        Cells are ordered by the fixed :data:`AXES` nesting (``space``
        outermost, ``dim`` innermost); each cell's seed is
        :func:`~repro.stats.trials.cell_seed` of the master seed.  Axis
        values that name one cell (``m=None`` and ``m=n``, a ring at
        several ``dim``) expand to it once, at its first position.
        """
        return [SweepCell(spec, self.trials, cell_seed(spec, self.seed))
                for spec, _ in self._expand()]

    def specs(self) -> list[dict]:
        """The cells' identities (:func:`~repro.stats.trials.canonical_cell`)
        in :meth:`cells` order, without hashing their seeds."""
        return [identity for _, identity in self._expand()]

    def _expand(self) -> list[tuple[CellSpec, dict]]:
        out, seen = [], set()
        for values in itertools.product(*(getattr(self, axis) for axis in AXES)):
            spec = CellSpec(**dict(zip(AXES, values)))
            identity = canonical_cell(spec)
            key = tuple(identity.values())
            if key not in seen:
                seen.add(key)
                out.append((spec, identity))
        return out

    def with_(self, **kwargs) -> "SweepGrid":
        """Functional update (convenience mirror of ``CellSpec.with_``)."""
        return replace(self, **kwargs)

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "SweepGrid":
        """Build from a plain dict (axis scalars or lists, plus options).

        Unknown keys raise — catching typos like ``ns=...`` early.
        """
        valid = {f.name for f in fields(cls)}
        unknown = set(mapping) - valid
        if unknown:
            raise ValueError(
                f"unknown grid keys {sorted(unknown)}; valid: {sorted(valid)}"
            )
        return cls(**dict(mapping))


_AXIS_PARSERS = {
    "space": str,
    "n": int,
    "d": int,
    "m": lambda tok: None if tok.lower() in ("none", "null", "-") else int(tok),
    "strategy": str,
    "partitioned": lambda tok: {"true": True, "1": True, "false": False, "0": False}[
        tok.lower()
    ],
    "dim": int,
}


def parse_axis_args(tokens: Sequence[str]) -> dict:
    """Parse CLI axis tokens like ``["n=256,4096", "d=1,2"]`` to a dict.

    Each token is ``axis=v1,v2,...``; values are coerced per axis
    (``n``/``d``/``dim`` to int, ``m`` to int or ``None``,
    ``partitioned`` to bool).  The result feeds
    :meth:`SweepGrid.from_mapping`.

    Examples
    --------
    >>> parse_axis_args(["n=256,1024", "d=2", "m=none,512"])
    {'n': (256, 1024), 'd': (2,), 'm': (None, 512)}
    """
    out: dict = {}
    for token in tokens:
        axis, sep, rest = token.partition("=")
        if not sep or not rest:
            raise ValueError(f"expected axis=v1,v2,... token, got {token!r}")
        if axis not in _AXIS_PARSERS:
            raise ValueError(
                f"unknown axis {axis!r}; expected one of {sorted(_AXIS_PARSERS)}"
            )
        if axis in out:
            raise ValueError(f"duplicate axis {axis!r}")
        try:
            out[axis] = tuple(_AXIS_PARSERS[axis](v) for v in rest.split(","))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"cannot parse {token!r}: {exc}") from None
    return out


def shard_cells(
    cells: Sequence[SweepCell], shard_index: int, shard_count: int
) -> list[SweepCell]:
    """Round-robin slice of a cell list for one shard.

    Shard ``i`` of ``k`` owns cells at positions ``i, i+k, i+2k, ...``
    of the deterministic expansion order; the shards partition the
    grid exactly (disjoint union) so merged shard results equal the
    unsharded run.
    """
    check_positive_int(shard_count, "shard_count")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index must be in [0, {shard_count}), got {shard_index}"
        )
    return [c for pos, c in enumerate(cells) if pos % shard_count == shard_index]
