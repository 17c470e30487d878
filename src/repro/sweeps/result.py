"""Mergeable sweep artifacts: cell tables with a canonical byte form.

A :class:`SweepResult` is what one sweep run (or one shard of it)
produces: the grid description, one record per executed cell (cache
key, full spec, per-trial load histograms), and run metadata.  The
canonical JSON form (:meth:`SweepResult.to_json`) sorts cells by content
key and excludes anything nondeterministic (timings, hit/miss counters),
so

* merging the shards of a grid reproduces the unsharded artifact
  **byte-identically**, and
* re-running a cached sweep rewrites the same bytes.

``to_report`` bridges back into the existing reporting stack: it
builds an :class:`~repro.experiments.report.ExperimentReport` whose
grid renders through :mod:`repro.stats.tables` exactly like the
table1/2/3 reporters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.stats.distributions import MaxLoadDistribution
from repro.sweeps.cache import canonical_json
from repro.sweeps.grid import SweepGrid

__all__ = ["SweepResult"]


@dataclass
class SweepResult:
    """The outcome of executing (part of) a sweep grid.

    Attributes
    ----------
    grid:
        Canonical grid description (:meth:`SweepGrid.describe
        <repro.sweeps.grid.SweepGrid.describe>`); shards of one grid
        share it and :meth:`merge` enforces that.
    cells:
        One record per executed cell:
        ``{"key": <hex>, "spec": {...}, "hist": [[...], ...]}``, where
        ``hist[k][l]`` counts trial ``k``'s bins holding exactly ``l``
        balls.  Keys are the cache content addresses under the default
        salt, so they are stable across machines and cache
        configurations.
    meta:
        Free-form run info (hits, misses, shard indices).
        Excluded from the canonical byte form.
    """

    grid: dict
    cells: list[dict]
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cells)

    def distributions(self) -> dict[str, MaxLoadDistribution]:
        """``{cell key: MaxLoadDistribution}`` for every executed cell."""
        return {
            cell["key"]: MaxLoadDistribution.from_histograms(cell["hist"])
            for cell in self.cells
        }

    def by_axes(self, row: str = "n", col: str = "d") -> dict[tuple, MaxLoadDistribution]:
        """Project cells onto a 2-D grid keyed by two axes.

        Raises if two cells collapse onto the same ``(row, col)`` key —
        that means the chosen axes do not separate the grid and the
        table would silently drop cells.
        """
        out: dict[tuple, MaxLoadDistribution] = {}
        for cell in self.cells:
            key = (cell["spec"].get(row), cell["spec"].get(col))
            if key in out:
                raise ValueError(
                    f"axes ({row!r}, {col!r}) do not separate the grid: "
                    f"two cells share {key}"
                )
            out[key] = MaxLoadDistribution.from_histograms(cell["hist"])
        return out

    def to_report(self, row: str = "n", col: str = "d", title: str | None = None):
        """Bridge to the table reporters: an :class:`ExperimentReport`.

        Row/column orders follow the grid's declared axis value order,
        so the rendered table matches the table1/2/3 layout
        conventions (rows usually ``n``, columns ``d`` or strategy).
        Keys are the values the cells' specs record, so an ``m=none``
        row reads ``m = n``.
        """
        from repro.experiments.report import ExperimentReport

        specs = SweepGrid.from_mapping(self.grid).specs()
        name = self.grid.get("name", "sweep")
        return ExperimentReport(
            name=name,
            title=title or f"Sweep {name}: max-load distributions",
            cells=self.by_axes(row, col),
            # the values the cells' specs record, in grid order
            row_keys=list(dict.fromkeys(spec.get(row) for spec in specs)),
            col_keys=list(dict.fromkeys(spec.get(col) for spec in specs)),
            col_label=lambda c: f"{col} = {c}",
            meta={"trials": self.grid["trials"], "seed": self.grid["seed"]},
        )

    # ------------------------------------------------------------------
    # canonical serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Canonical byte form: grid + cells sorted by content key.

        Deliberately excludes ``meta`` — hit rates and wall-clock vary
        between runs while the artifact must not.
        """
        ordered = sorted(self.cells, key=lambda cell: cell["key"])
        return canonical_json({"grid": self.grid, "cells": ordered}) + "\n"

    def save(self, path: str | Path) -> Path:
        """Write the canonical JSON artifact to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "SweepResult":
        """Read an artifact written by :meth:`save`."""
        data = json.loads(Path(path).read_text())
        return cls(grid=data["grid"], cells=data["cells"])

    # ------------------------------------------------------------------
    # shard merging
    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, parts: Sequence["SweepResult"]) -> "SweepResult":
        """Union of shard results of **one** grid.

        All parts must describe the same grid; duplicate cell keys must
        carry identical histograms (benign re-execution) or the merge
        refuses.  The merged artifact is byte-identical to an
        unsharded run of the same grid.
        """
        if not parts:
            raise ValueError("merge needs at least one part")
        grid = parts[0].grid
        for part in parts[1:]:
            if part.grid != grid:
                raise ValueError("cannot merge results of different grids")
        merged: dict[str, dict] = {}
        hits = misses = 0
        for part in parts:
            hits += part.meta.get("hits", 0)
            misses += part.meta.get("misses", 0)
            for cell in part.cells:
                seen = merged.get(cell["key"])
                if seen is not None and seen["hist"] != cell["hist"]:
                    raise ValueError(
                        f"conflicting histograms for cell {cell['key']}: "
                        "shards disagree — refusing to merge"
                    )
                merged[cell["key"]] = cell
        cells = sorted(merged.values(), key=lambda cell: cell["key"])
        return cls(
            grid=grid, cells=cells, meta={"hits": hits, "misses": misses,
                                          "merged_from": len(parts)}
        )
