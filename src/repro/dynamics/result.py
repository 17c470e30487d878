"""Outcome of a dynamic simulation: final state plus the trajectory.

Where the static :class:`~repro.core.placement.PlacementResult` is a
single load vector, a dynamic run is a *path*: the engines snapshot the
load state at every epoch boundary of the trace, and
:class:`DynamicResult` carries the per-epoch series (max load, total
load, live-bin count, ν-profiles) the dynamic load guarantee is stated
over.  Bit-identical trajectories — not just final states — are what
the engine-equivalence tests compare.  :class:`EpochRecorder` takes
those samples for the batched engine, the sequential reference and
trace replay (:func:`repro.serve.replay_trace`) alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.loads import load_imbalance, nu_profile
from repro.core.strategies import TieBreak

__all__ = ["DynamicResult", "EpochRecorder"]


@dataclass(frozen=True)
class DynamicResult:
    """One dynamic run: final loads plus per-epoch trajectory series.

    Attributes
    ----------
    loads:
        Final per-slot load vector over the full slot universe
        (inactive slots hold 0).
    active:
        Final boolean active mask over slots.
    d, strategy, partitioned, engine:
        Process parameters and which engine produced the result.
    inserts, deletes:
        Event totals over the whole trace.
    epoch_ends:
        Event counts at which the series below were sampled.
    max_load_over_time, total_load_over_time, live_bins_over_time:
        One entry per epoch.
    nu_profiles:
        Per-epoch ν-profiles over the *active* bins (ν_i = bins with
        load at least i), the layered-induction object evaluated along
        the trajectory.
    load_snapshots:
        Full per-epoch load vectors when the run recorded them.
    """

    loads: np.ndarray
    active: np.ndarray
    d: int
    strategy: TieBreak
    engine: str
    inserts: int
    deletes: int
    epoch_ends: np.ndarray
    max_load_over_time: np.ndarray
    total_load_over_time: np.ndarray
    live_bins_over_time: np.ndarray
    nu_profiles: tuple[np.ndarray, ...]
    partitioned: bool = False
    load_snapshots: tuple[np.ndarray, ...] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        total = int(self.loads.sum())
        if total != self.occupancy:
            raise ValueError(
                f"loads sum to {total} but inserts-deletes="
                f"{self.occupancy}; engine accounting bug"
            )
        if np.any(self.loads < 0):
            raise ValueError("negative load; engine accounting bug")
        if np.any(self.loads[~self.active] != 0):
            raise ValueError("inactive bin holds balls; engine accounting bug")
        k = int(self.epoch_ends.size)
        for name in (
            "max_load_over_time",
            "total_load_over_time",
            "live_bins_over_time",
        ):
            series = getattr(self, name)
            if series.shape != (k,):
                raise ValueError(f"{name} must have one entry per epoch")
        if len(self.nu_profiles) != k:
            raise ValueError("nu_profiles must have one entry per epoch")

    # ------------------------------------------------------------------
    # final-state statistics
    # ------------------------------------------------------------------
    @property
    def n_slots(self) -> int:
        """Size of the slot universe, active or not."""
        return int(self.loads.shape[0])

    @property
    def occupancy(self) -> int:
        """Balls live at the end of the trace."""
        return self.inserts - self.deletes

    @property
    def live_bins(self) -> int:
        """Bins active at the end of the trace."""
        return int(self.active.sum())

    @property
    def max_load(self) -> int:
        """Final maximum load over active bins."""
        return int(self.loads[self.active].max())

    @property
    def imbalance(self) -> float:
        """Final max-to-mean load ratio over active bins."""
        return load_imbalance(self.loads[self.active])

    def final_nu_profile(self) -> np.ndarray:
        """ν-profile of the final active load vector."""
        return nu_profile(self.loads[self.active])

    # ------------------------------------------------------------------
    # trajectory statistics
    # ------------------------------------------------------------------
    @property
    def epochs(self) -> int:
        """Epochs sampled, one entry of each series per epoch."""
        return int(self.epoch_ends.size)

    @property
    def peak_max_load(self) -> int:
        """Worst max load seen at any epoch — the dynamic guarantee's
        statistic (the static tables report only the endpoint)."""
        if self.max_load_over_time.size == 0:
            return self.max_load
        return int(self.max_load_over_time.max())

    def imbalance_over_time(self) -> np.ndarray:
        """Per-epoch max-to-mean load ratio over the *live* bins.

        The mean is taken over the bins active at each epoch, so churn
        does not dilute the ratio with empty inactive slots.
        """
        live = np.maximum(self.live_bins_over_time, 1).astype(np.float64)
        means = self.total_load_over_time / live
        return np.where(
            means > 0, self.max_load_over_time / np.where(means > 0, means, 1.0), 0.0
        )

    def summary_lines(self) -> list[str]:
        """One line per epoch for text reports."""
        out = []
        for i in range(self.epochs):
            out.append(
                f"epoch {i:>3} (events={int(self.epoch_ends[i])}): "
                f"total={int(self.total_load_over_time[i])} "
                f"live_bins={int(self.live_bins_over_time[i])} "
                f"max={int(self.max_load_over_time[i])}"
            )
        return out


class EpochRecorder:
    """The per-epoch samples of one replay, in the order epochs end.

    Each :meth:`sample` records the max load, total load and live-bin
    count of a live :class:`~repro.core.incremental.IncrementalState`,
    the ν-profile of its active bins and, when ``record_loads``, a copy
    of its load vector.  :meth:`series` hands the trajectory fields
    :class:`DynamicResult` and :class:`repro.serve.ReplayResult` share
    to their constructors; a replay checkpoint stores the samples as
    :meth:`checkpoint_arrays` and :meth:`from_checkpoint` reads them
    back.
    """

    def __init__(self, record_loads: bool = False) -> None:
        self.max: list[int] = []
        self.tot: list[int] = []
        self.live: list[int] = []
        self.nu: list[np.ndarray] = []
        self.snapshots: list[np.ndarray] | None = [] if record_loads else None

    def sample(self, state) -> None:
        """Record ``state`` as it stands at an epoch end."""
        live = state.live_loads()
        self.max.append(int(live.max()))
        self.tot.append(state.occupancy)
        self.live.append(int(state.active.sum()))
        self.nu.append(nu_profile(live))
        if self.snapshots is not None:
            self.snapshots.append(state.loads.copy())

    def series(self) -> dict:
        """The trajectory fields, keyed by their result-field names."""
        return {
            "max_load_over_time": np.array(self.max, dtype=np.int64),
            "total_load_over_time": np.array(self.tot, dtype=np.int64),
            "live_bins_over_time": np.array(self.live, dtype=np.int64),
            "nu_profiles": tuple(self.nu),
        }

    def checkpoint_arrays(self) -> dict:
        """The samples as a replay checkpoint stores them: one array per
        series, the ν-profiles concatenated with their lengths alongside."""
        return {
            "replay_max": np.array(self.max, dtype=np.int64),
            "replay_tot": np.array(self.tot, dtype=np.int64),
            "replay_live": np.array(self.live, dtype=np.int64),
            "replay_nu_flat": (
                np.concatenate(self.nu) if self.nu else np.empty(0, dtype=np.int64)
            ),
            "replay_nu_lens": np.array([p.size for p in self.nu], dtype=np.int64),
        }

    @classmethod
    def from_checkpoint(cls, arrays: dict) -> "EpochRecorder":
        """The recorder whose :meth:`checkpoint_arrays` were ``arrays``."""
        rec = cls()
        rec.max = arrays["replay_max"].tolist()
        rec.tot = arrays["replay_tot"].tolist()
        rec.live = arrays["replay_live"].tolist()
        lens = arrays["replay_nu_lens"]
        if lens.size:
            rec.nu = np.split(arrays["replay_nu_flat"], np.cumsum(lens)[:-1])
        return rec
