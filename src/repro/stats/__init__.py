"""Experiment machinery: deterministic trials, distributions, tables.

The paper's evaluation format is a *frequency table of maximum loads*
over repeated trials (e.g. "4 ...... 70.0%").  This package provides:

* :mod:`repro.stats.trials` — cell specifications and a deterministic
  trial-fused cell runner,
* :mod:`repro.stats.distributions` — the max-load frequency
  distribution type with paper-style formatting,
* :mod:`repro.stats.tables` — rendering grids of distributions as the
  paper's tables,
* :mod:`repro.stats.confidence` — Wilson intervals for the reported
  frequencies.
"""

from repro.stats.trials import CellSpec, run_cell
from repro.stats.distributions import MaxLoadDistribution
from repro.stats.tables import render_table
from repro.stats.confidence import wilson_interval

__all__ = [
    "CellSpec",
    "run_cell",
    "MaxLoadDistribution",
    "render_table",
    "wilson_interval",
]
