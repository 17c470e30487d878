"""Experiment drivers: one per table/figure of the paper's evaluation.

Each driver module exposes ``run(...) -> ExperimentReport`` with scaled
defaults that finish on a laptop; paper-scale parameters are plain
keyword arguments away.  ``python -m repro.experiments <name>`` runs a
driver from the command line; the registry maps experiment ids (see
``docs/paper_map.md``) to drivers.

All drivers submit their simulation cells through the
:mod:`repro.sweeps` orchestration layer, so repeated runs with
identical parameters replay from the content-addressed result cache
instead of recomputing; ``python -m repro.experiments sweep ...``
exposes arbitrary sharded grids (see ``docs/sweeps.md``).
"""

from repro.experiments.report import ExperimentReport
from repro.experiments.registry import get_experiment, list_experiments

__all__ = ["ExperimentReport", "get_experiment", "list_experiments"]
