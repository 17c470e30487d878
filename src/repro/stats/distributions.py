"""Max-load frequency distributions in the paper's table format.

Each cell of Tables 1-3 is a small frequency table: for every observed
maximum load, the percentage of trials that produced it, e.g.::

    3 ...... 26.8%
    4 ...... 70.0%
    5 ......  3.2%

:class:`MaxLoadDistribution` is that object, with exact integer counts
underneath (percentages are presentation only) plus the summary
statistics the analysis reasons about.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = ["MaxLoadDistribution"]


@dataclass(frozen=True)
class MaxLoadDistribution:
    """Empirical distribution of the maximum load over trials.

    Attributes
    ----------
    counts:
        Mapping from observed max load to number of trials.
    spec:
        The :class:`~repro.stats.trials.CellSpec` that produced it
        (``None`` for distributions built from raw samples).
    """

    counts: Mapping[int, int]
    spec: object = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("distribution must contain at least one trial")
        for k, v in self.counts.items():
            if int(k) < 0 or int(v) <= 0:
                raise ValueError(f"invalid count entry {k}: {v}")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_samples(cls, maxima, spec=None) -> "MaxLoadDistribution":
        """Build from an iterable of per-trial maximum loads."""
        data = Counter(int(x) for x in maxima)
        return cls(counts=dict(sorted(data.items())), spec=spec)

    @classmethod
    def from_histograms(cls, hist, spec=None) -> "MaxLoadDistribution":
        """Build from per-trial load histograms (``hist[k, l]`` = trial
        ``k``'s bins holding exactly ``l`` balls): each trial's maximum
        load is its row's last non-zero level."""
        hist = np.asarray(hist)
        return cls.from_samples(
            hist.shape[1] - 1 - np.argmax(hist[:, ::-1] > 0, axis=1), spec=spec
        )

    @classmethod
    def from_json_counts(cls, counts: Mapping, spec=None) -> "MaxLoadDistribution":
        """Build from a JSON count mapping (string keys), sorted by load.

        Inverse of :meth:`to_json_counts`; the deserialization half of
        the sweep cache's on-disk payload format.
        """
        return cls(
            counts=dict(sorted((int(k), int(v)) for k, v in counts.items())),
            spec=spec,
        )

    def to_json_counts(self) -> dict[str, int]:
        """JSON-safe count mapping (string keys), sorted by load.

        The canonical wire/disk form used by the sweep cache and
        ``SweepResult`` artifacts; round-trips exactly through
        :meth:`from_json_counts`.
        """
        return {str(k): int(v) for k, v in sorted(self.counts.items())}

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def trials(self) -> int:
        """Number of trials pooled in the distribution."""
        return sum(self.counts.values())

    @property
    def support(self) -> list[int]:
        """Observed maximum loads, ascending."""
        return sorted(self.counts)

    @property
    def mode(self) -> int:
        """Most frequent maximum load (lowest value wins ties)."""
        best = max(self.counts.values())
        return min(k for k, v in self.counts.items() if v == best)

    @property
    def mean(self) -> float:
        """Mean maximum load over the trials."""
        return sum(k * v for k, v in self.counts.items()) / self.trials

    @property
    def min(self) -> int:
        """Smallest observed maximum load."""
        return min(self.counts)

    @property
    def max(self) -> int:
        """Largest observed maximum load."""
        return max(self.counts)

    def frequency(self, load: int) -> float:
        """Fraction of trials with this exact maximum load."""
        return self.counts.get(int(load), 0) / self.trials

    def cdf(self, load: int) -> float:
        """Fraction of trials with maximum load <= ``load``."""
        return sum(v for k, v in self.counts.items() if k <= load) / self.trials

    def quantile(self, q: float) -> int:
        """Smallest load with ``cdf >= q``."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        acc = 0
        for k in self.support:
            acc += self.counts[k]
            if acc / self.trials >= q:
                return k
        return self.max  # pragma: no cover - unreachable

    def merge(self, other: "MaxLoadDistribution") -> "MaxLoadDistribution":
        """Pool trials of two distributions of the same cell."""
        merged = Counter(self.counts)
        merged.update(other.counts)
        return MaxLoadDistribution(
            counts=dict(sorted(merged.items())), spec=self.spec
        )

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def lines(self, *, min_pct: float = 0.0) -> list[str]:
        """Paper-style lines: ``"4 ...... 70.0%"``.

        ``min_pct`` hides entries rarer than the threshold (the paper
        prints everything down to 0.1%).
        """
        total = self.trials
        out = []
        width = len(str(self.max))
        for k in self.support:
            pct = 100.0 * self.counts[k] / total
            if pct + 1e-12 < min_pct:
                continue
            out.append(f"{k:>{width}d} ...... {pct:5.1f}%")
        return out

    def format(self, *, min_pct: float = 0.0) -> str:
        """The :meth:`lines` joined into one paper-style block."""
        return "\n".join(self.lines(min_pct=min_pct))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.format()

    # ------------------------------------------------------------------
    # comparison helpers used by the shape checks
    # ------------------------------------------------------------------
    def total_variation(self, other: "MaxLoadDistribution") -> float:
        """Total-variation distance between two empirical distributions."""
        keys = set(self.counts) | set(other.counts)
        return 0.5 * float(
            np.sum(
                [abs(self.frequency(k) - other.frequency(k)) for k in keys]
            )
        )
