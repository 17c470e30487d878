"""The common result container for experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.stats.distributions import MaxLoadDistribution
from repro.stats.tables import exponent_label, render_table

__all__ = ["ExperimentReport", "TextReport"]


@dataclass
class TextReport:
    """A non-grid experiment outcome: free-form lines plus raw data.

    Used by the lemma-validation and theory-check drivers whose output
    is not a max-load frequency grid.
    """

    name: str
    title: str
    lines: Sequence[str]
    data: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def render(self) -> str:
        header = self.title
        if self.meta:
            parts = ", ".join(f"{k}={v}" for k, v in self.meta.items())
            header = f"{header}\n({parts})"
        return header + "\n" + "\n".join(self.lines) + "\n"

    def summary_lines(self) -> list[str]:
        return [f"{self.name}: {line}" for line in self.lines]


@dataclass
class ExperimentReport:
    """A grid of max-load distributions plus provenance.

    Attributes
    ----------
    name:
        Experiment id (``table1``, ``fig1_lemma8``, ...).
    title:
        Human-readable heading used when rendering.
    cells:
        ``(row_key, col_key) -> MaxLoadDistribution``.
    row_keys, col_keys:
        Grid ordering (rows are usually ``n``; columns ``d`` or
        strategy names).
    meta:
        Free-form provenance: trials, seed, wall-clock, notes.
    """

    name: str
    title: str
    cells: Mapping[tuple, MaxLoadDistribution]
    row_keys: Sequence
    col_keys: Sequence
    col_label: Callable = str
    row_label: Callable = exponent_label
    meta: dict = field(default_factory=dict)

    def render(self, *, min_pct: float = 0.0) -> str:
        """Paper-style text rendering of the grid."""
        header = self.title
        if self.meta:
            parts = ", ".join(f"{k}={v}" for k, v in self.meta.items())
            header = f"{header}\n({parts})"
        return render_table(
            self.cells,
            self.row_keys,
            self.col_keys,
            title=header,
            row_label=self.row_label,
            col_label=self.col_label,
            min_pct=min_pct,
        )

    def modes(self) -> dict:
        """``(row, col) -> modal max load`` (the headline statistic)."""
        return {key: dist.mode for key, dist in self.cells.items()}

    def summary_lines(self) -> list[str]:
        """One line per cell: mode, mean, range — a digest of the
        :meth:`render` table that ``python -m repro.experiments all
        --out DIR`` writes."""
        out = []
        for r in self.row_keys:
            for c in self.col_keys:
                dist = self.cells.get((r, c))
                if dist is None:
                    continue
                out.append(
                    f"{self.name} n={self.row_label(r)} {self.col_label(c)}: "
                    f"mode={dist.mode} mean={dist.mean:.2f} "
                    f"range=[{dist.min},{dist.max}] trials={dist.trials}"
                )
        return out
