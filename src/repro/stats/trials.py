"""Deterministic multi-trial simulation of table cells.

A *cell* of the paper's tables is a tuple (space kind, n, m, d,
strategy); each trial re-draws both the server placement and the item
choices.  Seeds are spawned per trial from a master
:class:`~numpy.random.SeedSequence`, so results do not depend on how
trials are grouped or whether other cells run before or after
(``docs/architecture.md#experiment-flow``).  A cell's identity is
:func:`canonical_cell`; :func:`cell_seed` hashes it with a master seed,
so every driver that asks for a cell asks for the same trials.

Trials of one cell are statistically independent, so
:func:`run_cell_hists` runs them all in one
:func:`repro.core.multitrial.run_random_spaces` call, which returns each
trial's load histogram: ring and 2-D torus cells build their spaces and
run their trials inside the ``cext`` kernel where it applies, with the
kernel ``threads`` splitting trials, and the rest go through the
trial-fused engine (:func:`repro.core.multitrial.run_fused`).
:func:`run_cell` reads each trial's maximum load from the histograms,
:func:`run_cell_profile` their mean ν-profile (:func:`mean_nu_profile`).
Trial ``k`` is bit-identical to :func:`repro.core.engine.run_sequential`
on the same seed.
:func:`run_trial_map` is the generic harness for trials that have no
fused engine (dynamic churn trajectories); its optional process pool
never changes results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from multiprocessing import get_context

import numpy as np

from repro.core.multitrial import run_random_spaces
from repro.core.strategies import TieBreak
from repro.obs import counter_add, obs_session, trace_span
from repro.stats.distributions import MaxLoadDistribution
from repro.utils.rng import spawn_seed_sequences, stable_hash_seed
from repro.utils.validation import check_positive_int

__all__ = [
    "CellSpec",
    "canonical_cell",
    "cell_seed",
    "mean_nu_profile",
    "run_cell",
    "run_cell_hists",
    "run_cell_profile",
    "run_trial_map",
]

_SPACES = ("ring", "torus", "uniform")


@dataclass(frozen=True)
class CellSpec:
    """One table cell: the full parameterization of a trial.

    Attributes
    ----------
    space:
        ``"ring"`` (Table 1/3), ``"torus"`` (Table 2) or ``"uniform"``
        (ABKU baseline).
    n:
        Number of servers/bins.
    d:
        Choices per item.
    m:
        Items; ``None`` means ``m = n`` (the tables' setting).
    strategy:
        Tie-break rule (Table 3 varies this).
    partitioned:
        Vöcking interval sampling (the ``arc-left`` scheme combines
        this with ``strategy="first"``); a ``bool`` or ``numpy.bool_``.
    dim:
        Torus dimension (2 in the paper; ablations raise it).
    """

    space: str
    n: int
    d: int
    m: int | None = None
    strategy: str = "random"
    partitioned: bool = False
    dim: int = 2

    def __post_init__(self) -> None:
        if self.space not in _SPACES:
            raise ValueError(f"space must be one of {_SPACES}, got {self.space!r}")
        check_positive_int(self.n, "n")
        check_positive_int(self.d, "d")
        if self.m is not None:
            check_positive_int(self.m, "m")
        TieBreak.coerce(self.strategy)  # validate eagerly
        # a truthy str such as "false" would run the partitioned scheme
        if not isinstance(self.partitioned, (bool, np.bool_)):
            raise TypeError(
                f"partitioned must be a bool, got {self.partitioned!r}"
            )
        check_positive_int(self.dim, "dim")

    @property
    def balls(self) -> int:
        """Items placed per trial: ``m``, or ``n`` when ``m`` is ``None``."""
        return self.n if self.m is None else self.m

    def with_(self, **kwargs) -> "CellSpec":
        """Functional update (convenience for sweeps)."""
        return replace(self, **kwargs)

    def label(self) -> str:
        """Short human-readable name, e.g. ``"ring n=256 d=2 smaller"``.

        Lists only what differs from the defaults: ``m`` when it is not
        ``n``, a strategy other than ``random``, partitioning, and a
        torus dimension other than 2.
        """
        bits = [self.space, f"n={self.n}", f"d={self.d}"]
        if self.m is not None and self.m != self.n:
            bits.append(f"m={self.m}")
        if self.strategy != "random":
            bits.append(self.strategy)
        if self.partitioned:
            bits.append("partitioned")
        if self.space == "torus" and self.dim != 2:
            bits.append(f"dim={self.dim}")
        return " ".join(bits)


def canonical_cell(spec: CellSpec) -> dict:
    """A cell's identity: the parameters that define its trials.

    ``space``, ``n``, ``m`` resolved to :attr:`CellSpec.balls`, ``d``,
    ``strategy``, ``partitioned``, and ``dim`` for tori only, so specs
    that place the same balls the same way (``m=None`` and ``m=n``, a
    ring at any ``dim``) are one cell.  It gives the cell's seed
    (:func:`cell_seed`) and the cell fields of its cache key
    (:func:`repro.sweeps.runner.cell_spec_dict`).
    """
    out = {
        "space": spec.space,
        "n": int(spec.n),
        "m": int(spec.balls),
        "d": int(spec.d),
        "strategy": TieBreak.coerce(spec.strategy).value,
        "partitioned": bool(spec.partitioned),
    }
    if spec.space == "torus":
        out["dim"] = int(spec.dim)
    return out


def cell_seed(spec: CellSpec, master_seed: int) -> int:
    """The seed of cell ``spec`` under ``master_seed``.

    A hash of the master seed and :func:`canonical_cell` only, so every
    driver, grid and shard that asks for a cell at one master seed runs
    the same trials, and a cache filled by one serves the others.

    Examples
    --------
    >>> cell_seed(CellSpec("ring", 256, 2), 7) == cell_seed(
    ...     CellSpec("ring", 256, 2, m=256, dim=3), 7)
    True
    """
    parts = (f"{key}={value}" for key, value in canonical_cell(spec).items())
    return stable_hash_seed("cell", int(master_seed), *parts)


def mean_nu_profile(hist) -> np.ndarray:
    """Mean ν-profile of per-trial load histograms.

    ``hist[k, l]`` counts trial ``k``'s bins holding exactly ``l``
    balls; ``profile[i]`` is the mean number of bins holding at least
    ``i`` balls.  Dividing by ``n`` gives the empirical counterpart of
    the fluid limit's ``s_i`` (and of the layered induction's
    ``nu_i / n``), which the ``theory_vs_sim`` analysis and tests
    compare against :func:`repro.theory.fluid.fluid_limit_tails`.
    """
    hist = np.asarray(hist)
    # bins holding at least i balls: the reverse cumulative sum
    return np.cumsum(hist.sum(axis=0)[::-1])[::-1] / hist.shape[0]


def run_cell_hists(
    spec: CellSpec,
    trials: int,
    seed=None,
    *,
    backend=None,
    threads: int | None = None,
    obs: bool | None = None,
) -> np.ndarray:
    """Each trial's load histogram, ``(trials, L)``: one
    :func:`~repro.core.multitrial.run_random_spaces` call for every space.

    Trial ``k``'s generator first draws the server placement (ring and
    torus cells), then the item choices.  ``hist[k, l]`` counts trial
    ``k``'s bins holding exactly ``l`` balls, for ``l`` up to the
    largest maximum load of any trial.  Trial seeds are spawned from
    ``seed``, so the first rows of a cell do not depend on how many
    trials it has.  :func:`run_cell` and :func:`run_cell_profile` are
    its two views; ``backend``, ``threads`` and ``obs`` are as in
    :func:`run_cell`.
    """
    trials = check_positive_int(trials, "trials")
    with obs_session(obs), trace_span("run_cell", cell=spec.label(), trials=trials):
        counter_add("cell.runs")
        rngs = [np.random.default_rng(ss) for ss in spawn_seed_sequences(seed, trials)]
        hist, _ = run_random_spaces(
            spec.space, spec.n, spec.balls, spec.d, TieBreak.coerce(spec.strategy),
            rngs, dim=spec.dim, partitioned=spec.partitioned, backend=backend,
            threads=threads,
        )
        return hist


def run_cell_profile(
    spec: CellSpec,
    trials: int,
    seed=None,
    *,
    backend=None,
    threads: int | None = None,
    obs: bool | None = None,
) -> np.ndarray:
    """Mean ν-profile over trials (:func:`mean_nu_profile` of
    :func:`run_cell_hists`), padded to the longest observed.

    ``backend``, ``threads`` and ``obs`` behave exactly as in
    :func:`run_cell`.
    """
    return mean_nu_profile(run_cell_hists(spec, trials, seed, backend=backend,
                                          threads=threads, obs=obs))


def _worker(args):
    fn, context, entropy_state = args
    return fn(context, np.random.SeedSequence(**entropy_state))


def _seed_state(ss: np.random.SeedSequence) -> dict:
    return {
        "entropy": ss.entropy,
        "spawn_key": ss.spawn_key,
        "pool_size": ss.pool_size,
    }


def run_trial_map(fn, context, trials: int, seed=None, *, n_jobs: int | None = 1) -> list:
    """Run ``fn(context, seed_seq)`` for ``trials`` spawned seeds.

    The shared trial harness: per-trial seeds are spawned from the
    master seed, and ``n_jobs`` selects serial (1), all cores
    (``None``) or a fixed pool size — with results independent of that
    choice.  ``fn`` must be a module-level callable and ``context``
    picklable so the pool path can ship them to workers.
    """
    trials = check_positive_int(trials, "trials")
    seeds = spawn_seed_sequences(seed, trials)
    if n_jobs == 1:
        return [fn(context, ss) for ss in seeds]
    if n_jobs is None:
        n_jobs = os.cpu_count() or 1
    n_jobs = check_positive_int(n_jobs, "n_jobs")
    ctx = get_context("fork") if os.name == "posix" else get_context()
    payload = [(fn, context, _seed_state(ss)) for ss in seeds]
    with ctx.Pool(min(n_jobs, trials)) as pool:
        return pool.map(_worker, payload, chunksize=max(1, trials // (4 * n_jobs)))


def run_cell(
    spec: CellSpec,
    trials: int,
    seed=None,
    *,
    backend=None,
    threads: int | None = None,
    obs: bool | None = None,
) -> MaxLoadDistribution:
    """Run ``trials`` independent trials of a cell, fused into one pass.

    Parameters
    ----------
    backend:
        Kernel backend (:func:`repro.kernels.resolve_backend`: env var
        → this kwarg → auto-detect).  Results are independent of this
        choice.
    threads:
        Kernel thread count (:func:`repro.kernels.resolve_threads`:
        ``REPRO_NUM_THREADS`` → this kwarg → physical cores); trials
        are split across the threads.  Results are independent of this
        choice.
    obs:
        Observability scope for this call
        (:func:`repro.obs.obs_session`): ``True`` traces a
        ``run_cell`` span (engine spans nested underneath) and bumps
        the ``cell.runs`` counter, ``False`` silences an otherwise-enabled
        process, ``None`` follows the global ``REPRO_OBS`` switch.
        Never changes results.

    Examples
    --------
    >>> dist = run_cell(CellSpec("ring", 256, 2), trials=8, seed=0)
    >>> dist.trials
    8
    """
    hist = run_cell_hists(spec, trials, seed, backend=backend, threads=threads,
                          obs=obs)
    return MaxLoadDistribution.from_histograms(hist, spec=spec)
