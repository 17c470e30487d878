"""Deterministic multi-trial simulation of table cells.

A *cell* of the paper's tables is a tuple (space kind, n, m, d,
strategy); each trial re-draws both the server placement and the item
choices.  Seeds are spawned per trial from a master
:class:`~numpy.random.SeedSequence`, so results do not depend on how
trials are grouped or whether other cells run before or after
(DESIGN.md decision 3).

Trials of one cell are statistically independent, so :func:`run_cell`
and :func:`run_cell_profile` run them all through the trial-fused
engine (:func:`repro.core.multitrial.run_fused`): one pass across all
trials, inside the ``cext`` kernel where it applies, with the kernel
``threads`` splitting trials.  Trial ``k`` is bit-identical to
:func:`repro.core.engine.run_sequential` on the same seed.
:func:`run_trial_map` is the generic harness for trials that have no
fused engine (dynamic churn trajectories); its optional process pool
never changes results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from multiprocessing import get_context

import numpy as np

from repro.core.loads import max_load, nu_profile
from repro.core.multitrial import fused_trial_chunk, run_fused
from repro.core.ring import RingSpace
from repro.core.strategies import TieBreak
from repro.core.torus import TorusSpace
from repro.obs import counter_add, obs_session, trace_span
from repro.stats.distributions import MaxLoadDistribution
from repro.utils.rng import spawn_seed_sequences
from repro.utils.validation import check_positive_int

__all__ = [
    "CellSpec",
    "run_cell",
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
        this with ``strategy="first"``).
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
        check_positive_int(self.dim, "dim")

    @property
    def balls(self) -> int:
        return self.n if self.m is None else self.m

    def with_(self, **kwargs) -> "CellSpec":
        """Functional update (convenience for sweeps)."""
        return replace(self, **kwargs)

    def label(self) -> str:
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


def _build_space(spec: CellSpec, rng: np.random.Generator):
    if spec.space == "ring":
        return RingSpace.random(spec.n, seed=rng)
    if spec.space == "torus":
        return TorusSpace.random(spec.n, dim=spec.dim, seed=rng)
    from repro.baselines.uniform import UniformSpace

    return UniformSpace(spec.n)


def _run_cell_fused(
    spec: CellSpec, trials: int, seed, *, profile: bool, backend=None,
    threads=None,
):
    """All trials of a cell through the trial-fused engine.

    Trial ``k``'s generator first draws the server placement, then the
    item choices.  Trials are processed in memory-bounded fusion chunks
    (:func:`fused_trial_chunk`), which never changes results.
    ``backend`` and ``threads`` are forwarded to
    :func:`~repro.core.multitrial.run_fused` (kernel backend and
    thread-count selection; results are independent of both).
    """
    seeds = spawn_seed_sequences(seed, trials)
    chunk = fused_trial_chunk(spec.n, spec.balls, spec.d)
    strategy = TieBreak.coerce(spec.strategy)
    out = []
    for c0 in range(0, trials, chunk):
        rngs = [np.random.default_rng(ss) for ss in seeds[c0 : c0 + chunk]]
        spaces = [_build_space(spec, rng) for rng in rngs]
        loads, _ = run_fused(
            spaces,
            spec.balls,
            spec.d,
            strategy,
            rngs,
            partitioned=spec.partitioned,
            backend=backend,
            threads=threads,
        )
        if profile:
            out.extend(nu_profile(row) for row in loads)
        else:
            out.extend(max_load(row) for row in loads)
    return out


def run_cell_profile(
    spec: CellSpec,
    trials: int,
    seed=None,
    *,
    backend=None,
    threads: int | None = None,
    obs: bool | None = None,
) -> np.ndarray:
    """Mean ν-profile over trials (padded to the longest observed).

    Returns ``profile`` with ``profile[i]`` = average number of bins
    holding at least ``i`` balls.  Dividing by ``spec.n`` gives the
    empirical counterpart of the fluid limit's ``s_i`` (and of the
    layered induction's ``nu_i / n``), which the `theory_vs_sim`
    analysis and tests compare against
    :func:`repro.theory.fluid.fluid_limit_tails`.

    ``backend``, ``threads`` and ``obs`` behave exactly as in
    :func:`run_cell`.
    """
    trials = check_positive_int(trials, "trials")
    with obs_session(obs), trace_span(
        "run_cell_profile", cell=spec.label(), trials=trials
    ):
        counter_add("cell.profile_runs")
        profiles = _run_cell_fused(
            spec, trials, seed, profile=True, backend=backend, threads=threads
        )
        depth = max(p.size for p in profiles)
        acc = np.zeros(depth, dtype=np.float64)
        for p in profiles:
            acc[: p.size] += p
        return acc / trials


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
        the cell counters, ``False`` silences an otherwise-enabled
        process, ``None`` follows the global ``REPRO_OBS`` switch.
        Never changes results.

    Examples
    --------
    >>> dist = run_cell(CellSpec("ring", 256, 2), trials=8, seed=0)
    >>> dist.trials
    8
    """
    trials = check_positive_int(trials, "trials")
    with obs_session(obs), trace_span("run_cell", cell=spec.label(), trials=trials):
        counter_add("cell.runs")
        maxima = _run_cell_fused(
            spec, trials, seed, profile=False, backend=backend, threads=threads
        )
        return MaxLoadDistribution.from_samples(maxima, spec=spec)
