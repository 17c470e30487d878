"""Run every experiment and write one report file per driver.

This writes the reports that set the reproduction beside the paper
(docs/paper_map.md maps each table and figure to its experiment)::

    python -m repro.experiments all --out results/

The plan (:data:`DEFAULT_PLAN`) maps run names to ``(driver id,
kwargs)`` pairs; some drivers appear twice at different scales
(``table1`` / ``table1_large``).  Scaled defaults mirror the recorded
runs; pass ``--trials``/``--full`` to push toward paper scale.

Since the sweep-layer rewiring (:mod:`repro.sweeps`), every driver
submits its cells through the content-addressed result cache, so
re-running the full plan after an interruption — or after editing one
driver — only recomputes the cells that changed.  Control the cache
with the ``cache`` argument here, the ``--cache``/``--no-cache`` CLI
flags, or the ``REPRO_SWEEP_CACHE`` environment variable.
"""

from __future__ import annotations

import inspect
import os
import time
from typing import Callable

from repro.experiments.registry import get_experiment

__all__ = ["DEFAULT_PLAN", "call_driver", "run_all"]

#: name -> (driver id, default kwargs).  Entries with a distinct name
#: reuse a driver at a second scale.
DEFAULT_PLAN: dict[str, tuple[str, dict]] = {
    "table1": ("table1", dict(trials=150, n_values=(2**8, 2**12, 2**16))),
    "table1_large": ("table1", dict(trials=20, n_values=(2**20,))),
    "table2": ("table2", dict(trials=150, n_values=(2**8, 2**12, 2**14))),
    "table2_large": ("table2", dict(trials=20, n_values=(2**16,))),
    "table3": ("table3", dict(trials=150, n_values=(2**8, 2**12, 2**16))),
    "fig1_lemma8": ("fig1_lemma8", dict(n=4096, trials=20, ring_trials=400)),
    "theory_vs_sim": ("theory_vs_sim", dict(trials=50)),
    "ablation_tiebreak": ("ablation_tiebreak", dict(trials=100)),
    "ablation_mn": ("ablation_mn", dict(trials=50)),
    "ablation_dim": ("ablation_dim", dict(trials=50)),
    "ablation_geometry": ("ablation_geometry", dict(trials=50)),
    "ablation_staleness": ("ablation_staleness", dict(trials=30)),
    "dynamic_churn": ("dynamic_churn", dict(trials=25)),
    "net_churn": ("net_churn", dict()),
}

#: kwargs silently dropped when a driver's signature does not accept
#: them — ``n_jobs`` is only ``dynamic_churn``'s, and some text-report
#: drivers take no ``cache``.
_OPTIONAL_KWARGS = ("cache", "n_jobs", "threads")


def call_driver(driver: Callable, kwargs: dict):
    """Invoke ``driver(**kwargs)``, dropping unsupported optional kwargs.

    Only ``dynamic_churn`` takes ``n_jobs``, and not every driver takes
    ``cache`` or ``threads``; optional keys absent from the driver's
    signature are removed before the single call.  Signature
    inspection — rather than retry-on-``TypeError`` — means a
    ``TypeError`` raised *inside* the driver propagates instead of
    silently re-executing it with the caller's settings stripped.

    Parameters
    ----------
    driver:
        An experiment driver from the registry.
    kwargs:
        Keyword arguments to forward (not mutated).

    Returns
    -------
    The driver's report object.
    """
    call_kwargs = dict(kwargs)
    try:
        params = inspect.signature(driver).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        params = None
    if params is not None and not any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    ):
        for key in _OPTIONAL_KWARGS:
            if key in call_kwargs and key not in params:
                call_kwargs.pop(key)
    return driver(**call_kwargs)


def run_all(
    out_dir: str,
    *,
    trials: int | None = None,
    n_jobs: int | None = 1,
    seed: int | None = None,
    cache="auto",
    plan: dict[str, tuple[str, dict]] | None = None,
    progress: Callable[[str], None] = print,
) -> dict[str, str]:
    """Execute the plan and write one rendered report per entry.

    Parameters
    ----------
    out_dir:
        Directory for the ``<name>.txt`` report files (created if
        missing).
    trials, seed:
        When given, override every plan entry's own values.
    n_jobs:
        Worker processes for ``dynamic_churn`` trials (its trials have
        no fused engine); other drivers do not take it.
    cache:
        Result-cache selector forwarded to every driver that accepts
        it (see :func:`repro.sweeps.runner.resolve_cache`); the
        default follows the environment, making re-runs incremental.
    plan:
        Alternative plan mapping (defaults to :data:`DEFAULT_PLAN`).
    progress:
        Callable receiving one status line per finished run.

    Returns
    -------
    dict
        ``{run name: written file path}`` in plan order.
    """
    os.makedirs(out_dir, exist_ok=True)
    plan = DEFAULT_PLAN if plan is None else plan
    written: dict[str, str] = {}
    for name, (driver_id, kwargs) in plan.items():
        driver = get_experiment(driver_id)
        call_kwargs = dict(kwargs, cache=cache)
        if trials is not None:
            call_kwargs["trials"] = trials
        if seed is not None:
            call_kwargs["seed"] = seed
        if n_jobs != 1:
            call_kwargs["n_jobs"] = n_jobs
        start = time.time()
        report = call_driver(driver, call_kwargs)
        elapsed = time.time() - start
        path = os.path.join(out_dir, f"{name}.txt")
        with open(path, "w") as fh:
            fh.write(report.render())
            fh.write(f"\n[wall-clock: {elapsed:.1f}s]\n")
        written[name] = path
        progress(f"{name}: {elapsed:.1f}s -> {path}")
    return written
