"""Registry mapping experiment ids (``docs/paper_map.md``) to drivers.

The single source of truth for which experiments exist: the CLI
(:mod:`repro.experiments.__main__`), the run-everything harness
(:mod:`repro.experiments.run_all`), and the tests all resolve drivers
through :func:`get_experiment`.  A *driver* is a keyword-only callable
returning a report object with a ``render()`` method
(:class:`~repro.experiments.report.ExperimentReport` or
:class:`~repro.experiments.report.TextReport`).

Drivers are imported lazily inside :func:`_load` so that importing
:mod:`repro.experiments` stays cheap and cycle-free.  Every
table/ablation driver here submits its cells through the
:mod:`repro.sweeps` result cache, so repeated invocations with
identical parameters are incremental.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["get_experiment", "list_experiments"]


def _load() -> dict[str, Callable]:
    """Import all driver modules and return the id -> driver mapping."""
    from repro.experiments import (
        ablations,
        dynamic_churn,
        lemma_validation,
        net_churn,
        table1,
        table2,
        table3,
        theory_check,
    )

    return {
        "table1": table1.run,
        "table2": table2.run,
        "table3": table3.run,
        "fig1_lemma8": lemma_validation.run,
        "theory_vs_sim": theory_check.run,
        "dynamic_churn": dynamic_churn.run,
        "net_churn": net_churn.run,
        "ablation_tiebreak": ablations.tiebreak_sweep,
        "ablation_mn": ablations.mn_sweep,
        "ablation_dim": ablations.dimension_sweep,
        "ablation_geometry": ablations.geometry_sweep,
        "ablation_staleness": ablations.staleness_sweep,
    }


def list_experiments() -> list[str]:
    """All registered experiment ids, sorted alphabetically.

    Returns
    -------
    list of str
        Ids accepted by :func:`get_experiment` and by
        ``python -m repro.experiments <id>``.
    """
    return sorted(_load())


def get_experiment(name: str) -> Callable:
    """Driver callable for an experiment id.

    Parameters
    ----------
    name:
        One of the ids returned by :func:`list_experiments`.

    Returns
    -------
    Callable
        The driver; call it with keyword arguments (``trials=``,
        ``seed=``, ``cache=``, ...) to produce a report.

    Raises
    ------
    KeyError
        With the list of valid ids when the name is unknown.
    """
    registry = _load()
    if name not in registry:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(sorted(registry))}"
        )
    return registry[name]
