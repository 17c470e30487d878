"""Trial-fused placement engine: vectorize across trials, not just within.

The paper's tables are defined by many *independent* trials of the same
cell — 1000 trials per ``(n, d)`` at ``n`` up to 2²⁴.  Within a single
trial a conflict-free prefix (balls whose candidate bins are pairwise
disjoint, hence decidable together) saturates at Θ(√n / d) balls, so a
per-trial vectorized engine pays thousands of small numpy calls plus a
scalar step at each conflict.  Trials, however, never interact: trial ``k``'s
balls touch only trial ``k``'s bins.  :func:`run_fused` therefore runs
all ``T`` trials of a cell simultaneously against one fused load array:

* trial ``k``'s candidate bins are offset by ``k·n`` so candidate sets
  from different trials are disjoint by construction;
* ball rows are interleaved **round-robin** across trials (ball ``t`` of
  trial ``k`` sits at fused row ``t·T + k``), which preserves each
  trial's internal decision order while spreading same-trial rows as
  far apart as possible.

Rows from different trials cannot collide, so the expected gap between
same-bin rows grows from Θ(√n / d) to Θ(√(T·n) / d) — the birthday
bound now counts collisions inside one trial after only ``1/T`` of the
fused rows.  Instead of hunting conflict-free *prefixes* the fused
engine executes fixed **chunks optimistically**: one sort-free
scatter/gather *stamp* pass over scratch storage interleaved with the
loads finds every row whose candidate bins already occurred earlier in
the chunk (*flagged* rows, a vanishing ``O(chunk · d² / (T·n))``
fraction); all other rows are provably independent of intra-chunk
ordering and are decided in a single ``decide_rows`` call, after which
the flagged rows are repaired scalar-sequentially in row order.  Each
ball is scanned exactly once and the numpy call count per chunk is
constant, which is where the fused throughput comes from.

Why the optimistic chunk is exact (the argument the equivalence suite
checks empirically): an unflagged row's bins occur in no earlier row of
the chunk, so the loads it reads at chunk start equal the loads at its
sequential turn, and no two unflagged rows can share a bin (the later
one would be flagged).  A flagged row repaired in ascending order sees
chunk-start loads plus all unflagged increments — later unflagged rows
never touch its bins, else they would be flagged — plus all
earlier-flagged repairs: exactly the sequential state.  Each trial
draws its randomness from its *own* generator through the same
:func:`~repro.core.engine.choice_blocks` layout the sequential
reference uses, and decisions go through the same tie-break kernels, so
per-trial results are **bit-identical** to
:func:`~repro.core.engine.run_sequential`.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from repro.core.engine import DEFAULT_RNG_BLOCK, choice_blocks
from repro.core.loads import load_histogram
from repro.core.ring import RingSpace
from repro.core.spaces import GeometricSpace
from repro.core.strategies import (
    TieBreak,
    decide_row_scalar,
    decide_rows,
    strategy_needs_measures,
)
from repro.core.torus import TorusSpace
from repro.kernels import (
    STRATEGY_CODES,
    KernelBackend,
    resolve_backend,
    resolve_threads,
)
from repro.obs import add_span, counter_add
from repro.obs import enabled as obs_enabled
from repro.obs import trace_span
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = [
    "run_fused",
    "run_random_spaces",
    "auto_fused_batch_size",
    "fused_trial_chunk",
]

#: Cap on fused candidate elements materialized per trial chunk (index
#: entries); keeps peak temporaries around a hundred MB at paper scale
#: regardless of how many trials a cell requests.
_FUSED_CHUNK_ELEMENTS = 1 << 23

#: Cap on the fused bin-state array length (``T·n``) per trial chunk.
_FUSED_CHUNK_BINS = 1 << 24

#: Interleave tile: balls per transpose tile, sized so a tile of the
#: fused destination stays cache-resident while all trials write into
#: it (the naive full-width transpose touches each destination cache
#: line once per trial).
_INTERLEAVE_TILE_BYTES = 1 << 20


def auto_fused_batch_size(n: int, d: int, n_trials: int) -> int:
    """Optimistic-chunk size tuned to the fused collision rate.

    A chunk of ``C`` fused rows flags ``≈ C²d²/(2nT)`` rows for scalar
    repair, while per-chunk numpy dispatch overhead is constant — the
    balance point grows like ``√(nT)/d``.  Oversizing trades python
    overhead for repair work and vice versa; results never change.
    """
    est = int(2.0 * math.sqrt(max(n, 1) * max(n_trials, 1)) / max(d, 1))
    return max(256, min(est, 1 << 14))


def fused_trial_chunk(n: int, m: int, d: int) -> int:
    """How many trials to fuse at once without blowing up memory.

    The fused engine materializes ``(rng_block · T, d)`` candidate
    arrays plus ``(T·n, 2)`` load/stamp state; this caps ``T`` so one
    chunk stays cache/RAM friendly.  Chunking trials never changes
    results — trials are independent.
    """
    rows = min(max(m, 1), DEFAULT_RNG_BLOCK)
    by_candidates = _FUSED_CHUNK_ELEMENTS // (rows * max(d, 1))
    by_bins = _FUSED_CHUNK_BINS // max(n, 1)
    return max(1, min(by_candidates, by_bins))


def _distinct_generators(rngs: Sequence[np.random.Generator]) -> bool:
    """Whether no two trials share a bit generator.

    Trials that share one must consume it one after another, so they
    run serially in trial order, never side by side.
    """
    return len({id(r.bit_generator) for r in rngs}) == len(rngs)


def _run_fused_ring(
    spaces: Sequence[RingSpace] | None,
    n: int,
    m: int,
    d: int,
    strategy: TieBreak,
    rngs: Sequence[np.random.Generator],
    backend: KernelBackend,
    threads: int,
    *,
    partitioned: bool,
    rng_block: int,
    record_heights: bool,
    space: str = "ring",
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """All trials offered to one ``space_trials`` kernel call.

    Each trial runs draw → lookup → place for every ball inside the
    kernel, from a C copy of its PCG64 generator that walks the
    :func:`~repro.core.engine.choice_blocks` layout with two cursors
    per RNG block; only ``state.state`` is written back.  Trials are
    split statically across up to ``threads`` OS threads.  Results and
    final generator states are bit-identical to
    :func:`~repro.core.engine.run_sequential`
    (``tests/kernels/test_ring_kernel.py``,
    ``tests/kernels/test_torus_kernel.py``).

    Each trial places into the kernel's byte-per-server scratch.  Given
    ``spaces``, the first result is the ``(T, n)`` loads, widened from
    that scratch.  With ``spaces=None`` each trial first draws its
    ``n``-server ``space`` (a ring, or a 2-D torus) from its generator
    inside the kernel (:func:`run_random_spaces`), its loads stay in
    scratch, and the first result is the trials' load histograms,
    trimmed to the largest maximum load + 1 levels.  ``None`` is
    returned, with no generator state written back, whenever the kernel
    does not run the trials: the rule for that is the kernel's own
    (:class:`repro.kernels.KernelBackend`, ``space_trials``).
    """
    t = len(rngs)
    heights = np.zeros((t, m), dtype=np.int64) if record_heights else None
    loads = tables = measures = None
    if spaces is not None:
        loads = np.zeros((t, n), dtype=np.int64)
        tables = [s._bucket_table() for s in spaces]
        if strategy_needs_measures(strategy):
            measures = [s.region_measures() for s in spaces]
    _obs = obs_enabled()
    if _obs:
        t0 = time.perf_counter()
    built = backend.space_trials(
        [r.bit_generator for r in rngs],
        tables,
        measures,
        loads,
        heights,
        m,
        d,
        STRATEGY_CODES[strategy.value],
        partitioned,
        rng_block,
        threads,
        space=space,
        n=n,
        hist=spaces is None,
    )
    if _obs:
        add_span(
            "run_fused.space_trials",
            time.perf_counter() - t0,
            threads=threads,
            space=space,
        )
    if built is False:
        return None
    if spaces is not None:
        return loads, heights
    # trim to the last level some trial reaches
    width = np.flatnonzero(built.any(axis=0))[-1] + 1
    return built[:, :width], heights


def _run_fused_kernel(
    spaces: Sequence[GeometricSpace],
    m: int,
    d: int,
    strategy: TieBreak,
    rngs: Sequence[np.random.Generator],
    backend: KernelBackend,
    threads: int,
    *,
    partitioned: bool,
    rng_block: int,
    record_heights: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Kernel-backend twin of :func:`run_fused`'s numpy path.

    A compiled scalar loop has no numpy dispatch overhead to amortize,
    so the optimistic-chunk machinery is unnecessary: each trial's RNG
    blocks are fed straight through the backend's ``place_block``
    kernel, which *is* the sequential reference semantics — trial
    ``k`` consumes ``rngs[k]`` through the same
    :func:`~repro.core.engine.choice_blocks` layout and decides every
    ball with the same tie-break arithmetic, so results stay
    bit-identical to :func:`~repro.core.engine.run_sequential` (the
    parity suite checks this per backend).

    ``threads > 1`` places trials on a pool of that many threads.
    Trials share no loads and no generator, and the numpy draws, the
    torus lookups (grid kernel or KD-tree) and the kernel all release
    the GIL.
    """
    t = len(spaces)
    code = STRATEGY_CODES[strategy.value]
    needs_measures = strategy_needs_measures(strategy)
    loads = np.zeros((t, spaces[0].n), dtype=np.int64)
    heights = np.zeros((t, m), dtype=np.int64) if record_heights else None
    _obs = obs_enabled()
    #: per trial: seconds drawing candidates, seconds placing them
    phase_s = np.zeros((t, 2))

    def place_trial(k: int) -> None:
        space = spaces[k]
        measures = space.region_measures() if needs_measures else None
        blocks = choice_blocks(
            space, rngs[k], m, d, partitioned=partitioned, rng_block=rng_block
        )
        pos = 0
        while True:
            if _obs:
                t0 = time.perf_counter()
            try:
                bins, us = next(blocks)
            except StopIteration:
                break
            if _obs:
                t1 = time.perf_counter()
                phase_s[k, 0] += t1 - t0
            b = bins.shape[0]
            backend.place_block(
                bins,
                us,
                loads[k],
                measures,
                code,
                heights[k, pos : pos + b] if heights is not None else None,
            )
            if _obs:
                phase_s[k, 1] += time.perf_counter() - t1
            pos += b

    start = time.perf_counter() if _obs else 0.0
    if threads > 1 and t > 1 and _distinct_generators(rngs):
        with ThreadPoolExecutor(
            max_workers=min(threads, t), thread_name_prefix="repro-trial"
        ) as pool:
            list(pool.map(place_trial, range(t)))
    else:
        for k in range(t):
            place_trial(k)
    if _obs:
        # split the loop's wall time between the two phases in the
        # proportion the trials spent in each, so the spans partition
        # wall time however many threads ran them
        wall = time.perf_counter() - start
        rng_s, kernel_s = phase_s.sum(axis=0)
        share = rng_s / (rng_s + kernel_s) if rng_s + kernel_s > 0 else 0.0
        add_span("run_fused.rng", wall * share, threads=threads)
        add_span("run_fused.kernel", wall * (1.0 - share), threads=threads)
    return loads, heights


def run_fused(
    spaces: Sequence[GeometricSpace],
    m: int,
    d: int,
    strategy: TieBreak,
    rngs: Sequence[np.random.Generator],
    *,
    partitioned: bool = False,
    rng_block: int = DEFAULT_RNG_BLOCK,
    batch_size: int | None = None,
    record_heights: bool = False,
    backend: KernelBackend | str | None = None,
    threads: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Place ``m`` balls in each of ``len(spaces)`` fused trials.

    Parameters
    ----------
    spaces:
        One space per trial, all with the same bin count ``n`` (each
        trial typically re-draws the server placement).
    rngs:
        One generator per trial.  Trial ``k`` consumes ``rngs[k]``
        exactly as :func:`~repro.core.engine.run_sequential` would, so
        fused trial ``k`` is bit-identical to a sequential run with the
        same space and generator state.
    batch_size:
        Rows per optimistic chunk of the fused stream; ``None`` tunes
        it via :func:`auto_fused_batch_size`.  Affects speed only,
        never results (ignored by accelerated kernel backends, which
        need no chunking).
    backend:
        Kernel backend selection, resolved by
        :func:`repro.kernels.resolve_backend` (env var →  this kwarg →
        auto-detect).  ``"numpy"`` keeps the vectorized
        optimistic-chunk path below; an accelerated backend runs the
        compiled scalar loop instead.  Results are identical either
        way.
    threads:
        Worker-thread count, resolved by
        :func:`repro.kernels.resolve_threads` (``REPRO_NUM_THREADS`` →
        this kwarg → physical cores).  With an accelerated backend the
        trials are split across that many threads: inside the
        ``space_trials`` kernel for rings it runs (its rule:
        :class:`repro.kernels.KernelBackend`), on a thread pool for
        everything else.  The numpy reference runs on one thread.
        Results are bit-identical for every thread count (enforced by
        ``tests/kernels/test_threads_parity.py`` and
        ``tests/kernels/test_ring_kernel.py``).

    Returns
    -------
    ``(loads, heights)`` where ``loads`` has shape ``(T, n)`` (one load
    vector per trial) and ``heights`` has shape ``(T, m)`` when
    ``record_heights`` else ``None``.
    """
    t = len(spaces)
    if t == 0:
        raise ValueError("run_fused needs at least one trial space")
    if len(rngs) != t:
        raise ValueError(f"got {t} spaces but {len(rngs)} generators")
    n = spaces[0].n
    for k, s in enumerate(spaces):
        if s.n != n:
            raise ValueError(
                f"all trial spaces must share a bin count: spaces[0].n={n}, "
                f"spaces[{k}].n={s.n}"
            )
    m = check_non_negative_int(m, "m")
    d = check_positive_int(d, "d")
    rng_block = check_positive_int(rng_block, "rng_block")
    strategy = TieBreak.coerce(strategy)
    backend_obj = resolve_backend(backend)
    eff_threads = resolve_threads(threads)
    with trace_span(
        "run_fused",
        n=n,
        d=d,
        trials=t,
        m=m,
        backend=backend_obj.name,
        strategy=strategy.value,
        threads=eff_threads,
    ):
        counter_add("placement.balls", t * m)
        counter_add("placement.trials", t)
        if backend_obj.space_trials is not None and all(
            isinstance(s, RingSpace) for s in spaces
        ):
            out = _run_fused_ring(
                spaces,
                n,
                m,
                d,
                strategy,
                rngs,
                backend_obj,
                eff_threads,
                partitioned=partitioned,
                rng_block=rng_block,
                record_heights=record_heights,
            )
            if out is not None:
                return out
        if backend_obj.place_block is not None:
            return _run_fused_kernel(
                spaces,
                m,
                d,
                strategy,
                rngs,
                backend_obj,
                eff_threads,
                partitioned=partitioned,
                rng_block=rng_block,
                record_heights=record_heights,
            )
        return _run_fused_numpy(
            spaces,
            m,
            d,
            strategy,
            rngs,
            partitioned=partitioned,
            rng_block=rng_block,
            batch_size=batch_size,
            record_heights=record_heights,
        )


def _random_space(
    space: str, n: int, dim: int, rng: np.random.Generator
) -> GeometricSpace:
    """One trial's ``n``-server space, drawn from ``rng`` the reference way
    (uniform bins draw nothing)."""
    if space == "ring":
        return RingSpace.random(n, seed=rng)
    if space == "torus":
        return TorusSpace.random(n, dim=dim, seed=rng)
    from repro.baselines.uniform import UniformSpace

    return UniformSpace(n)


def run_random_spaces(
    space: str,
    n: int,
    m: int,
    d: int,
    strategy: TieBreak,
    rngs: Sequence[np.random.Generator],
    *,
    dim: int = 2,
    partitioned: bool = False,
    rng_block: int = DEFAULT_RNG_BLOCK,
    record_heights: bool = False,
    backend: KernelBackend | str | None = None,
    threads: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Each trial's load histogram over ``m`` balls on a fresh random space.

    ``space`` is ``"ring"``, ``"torus"`` (of dimension ``dim``) or
    ``"uniform"`` (``n`` equiprobable bins).  Trial ``k`` draws its
    ``n`` servers from ``rngs[k]``, then its balls.  The trials are
    those of ``run_fused([RingSpace.random(n, seed=r) for r in rngs],
    m, d, strategy, rngs, ...)`` (``TorusSpace.random(n, dim=dim,
    seed=r)`` for tori, ``UniformSpace(n)`` for uniform bins), the
    reference path this function takes, in :func:`fused_trial_chunk`
    chunks when no generator is shared, for uniform bins (they need no
    build, and the kernel has no lookup for them), tori of dimension
    other than 2, backends without a ``space_trials`` kernel, and
    trials that kernel does not run (its rule:
    :class:`repro.kernels.KernelBackend`).

    Otherwise one kernel call takes every ring or 2-D torus trial, on
    at most as many threads as the kernel's scratch budget allows.  Each
    worker builds its trial's space, keeps the loads in a byte per
    server and counts them into the trial's histogram, so no space
    object and no ``(T, n)`` loads array is made.  When the kernel does
    not run the trials it writes no generator state back, and they run
    on the reference path, which raises the space's own
    :class:`ValueError` for a repeated server.
    Results and final generator states are bit-identical either way
    (``tests/kernels/test_ring_kernel.py``,
    ``tests/kernels/test_torus_kernel.py``).

    Returns ``(hist, heights)``: ``hist[k, l]`` counts trial ``k``'s
    bins holding exactly ``l`` balls, for ``l`` up to the largest
    maximum load of any trial, so a trial's maximum is its row's last
    non-zero level (:func:`repro.stats.trials.run_cell`) and the
    reverse cumulative sum its ν-profile
    (:func:`repro.stats.trials.run_cell_profile`).  ``heights`` and the
    other arguments are as in :func:`run_fused`.
    """
    if space not in ("ring", "torus", "uniform"):
        raise ValueError(
            f"space must be 'ring', 'torus' or 'uniform', got {space!r}"
        )
    t = len(rngs)
    if t == 0:
        raise ValueError("run_random_spaces needs at least one generator")
    n = check_positive_int(n, "n")
    m = check_non_negative_int(m, "m")
    d = check_positive_int(d, "d")
    rng_block = check_positive_int(rng_block, "rng_block")
    strategy = TieBreak.coerce(strategy)
    backend_obj = resolve_backend(backend)
    eff_threads = resolve_threads(threads)
    options = dict(
        partitioned=partitioned, rng_block=rng_block,
        record_heights=record_heights,
    )
    with trace_span(
        "run_random_spaces",
        space=space,
        n=n,
        d=d,
        trials=t,
        m=m,
        backend=backend_obj.name,
        strategy=strategy.value,
        threads=eff_threads,
    ):
        if backend_obj.space_trials is not None and (
            space == "ring" or (space == "torus" and dim == 2)
        ):
            out = _run_fused_ring(None, n, m, d, strategy, rngs, backend_obj,
                                  eff_threads, space=space, **options)
            if out is not None:
                counter_add("placement.balls", t * m)
                counter_add("placement.trials", t)
                return out
        chunk = fused_trial_chunk(n, m, d) if _distinct_generators(rngs) else t
        hists, heights = [], []
        for c0 in range(0, t, chunk):
            part = rngs[c0 : c0 + chunk]
            loads, part_heights = run_fused(
                [_random_space(space, n, dim, r) for r in part],
                m,
                d,
                strategy,
                part,
                backend=backend_obj,
                threads=eff_threads,
                **options,
            )
            hists.extend(map(load_histogram, loads))
            heights.append(part_heights)
        width = max(h.size for h in hists)
        hist = np.array([np.pad(h, (0, width - h.size)) for h in hists])
        return hist, (np.concatenate(heights) if record_heights else None)


def _run_fused_numpy(
    spaces: Sequence[GeometricSpace],
    m: int,
    d: int,
    strategy: TieBreak,
    rngs: Sequence[np.random.Generator],
    *,
    partitioned: bool,
    rng_block: int,
    batch_size: int | None,
    record_heights: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The vectorized optimistic-chunk reference path of :func:`run_fused`.

    Arguments are pre-validated by the facade.  When observability is
    on, the three hot phases are timed into ``run_fused.rng``
    (candidate-block generation), ``run_fused.interleave`` and
    ``run_fused.decide`` spans, scalar conflict repair into
    ``run_fused.repair``, and every flagged row bumps the
    ``placement.conflict_rows`` counter — the data behind the
    optimistic-chunk tuning story.  Disabled, the only extra work per
    chunk is a handful of bool checks.  The reference runs on one
    thread.
    """
    t = len(spaces)
    n = spaces[0].n
    if batch_size is None:
        batch_size = auto_fused_batch_size(n, d, t)
    batch_size = check_positive_int(batch_size, "batch_size")

    # Fused per-bin state: column 0 holds the load, column 1 the scan
    # stamp.  Keeping them adjacent lets ONE random-access gather per
    # chunk fetch both the conflict information and the decision loads
    # (the 8-byte pair shares a cache line).  int32 state halves memory
    # traffic and holds up to T·n = 2³¹ bins, far beyond the chunk
    # caps.  Loads bound ≤ m, stamps bound ≤ chunk·d: both fit easily.
    idx_dtype = np.int32 if t * n <= np.iinfo(np.int32).max else np.int64
    state = np.zeros((t * n, 2), dtype=np.int32)
    needs_measures = strategy_needs_measures(strategy)
    measures = (
        np.concatenate([s.region_measures() for s in spaces])
        if needs_measures
        else None
    )
    heights = np.zeros((t, m), dtype=np.int64) if record_heights else None

    max_wd = batch_size * d
    # Within a chunk we scatter ascending stamps over the *reversed*
    # candidate stream (last write wins ⇒ each bin's stamp records its
    # FIRST chunk occurrence, as a reverse offset).  Every gathered
    # entry was written by the current chunk — bins are only read back
    # at positions where they occur — so stale stamps are never
    # observed and no re-initialization or epoch bookkeeping is needed.
    asc = np.arange(max_wd, dtype=np.int32)
    row_start = (asc // d) * d  # first flat offset of each element's row
    row_of = np.arange(batch_size, dtype=np.int64) * d

    tile = max(1, _INTERLEAVE_TILE_BYTES // (t * (d * 4 + 8)))
    iters = [
        choice_blocks(s, rng, m, d, partitioned=partitioned, rng_block=rng_block)
        for s, rng in zip(spaces, rngs)
    ]

    _obs = obs_enabled()
    rng_s = interleave_s = decide_s = repair_s = 0.0
    chunks = conflict_rows = 0

    ball_base = 0
    while ball_base < m:
        if _obs:
            t0 = time.perf_counter()
        blocks = [next(it) for it in iters]
        if _obs:
            t1 = time.perf_counter()
            rng_s += t1 - t0
        b = blocks[0][0].shape[0]
        # round-robin interleave: fused row t·T + k is ball t of
        # trial k.  Done in ball tiles so the strided destination
        # stays cache-resident across the per-trial passes.
        bins3 = np.empty((b, t, d), dtype=idx_dtype)
        u2 = np.empty((b, t), dtype=np.float64)
        for s0 in range(0, b, tile):
            s1 = min(s0 + tile, b)
            dst_b = bins3[s0:s1]
            dst_u = u2[s0:s1]
            for k, (bins_k, u_k) in enumerate(blocks):
                np.add(
                    bins_k[s0:s1], k * n, out=dst_b[:, k, :], casting="unsafe"
                )
                dst_u[:, k] = u_k[s0:s1]
        fused_bins = bins3.reshape(b * t * d)
        fused_u = u2.reshape(b * t)
        if _obs:
            interleave_s += time.perf_counter() - t1

        block_len = b * t
        pos = 0
        while pos < block_len:
            if _obs:
                t2 = time.perf_counter()
                chunks += 1
            end = min(pos + batch_size, block_len)
            w = end - pos
            wd = w * d
            flat = fused_bins[pos * d : end * d]
            # one reverse-scatter + one pair-gather per chunk
            state[flat[::-1], 1] = asc[:wd]
            pair = state[flat]
            # element i is flagged iff its bin first occurred in an
            # earlier row: first_elem < row_start[i], i.e.
            # (wd-1 - stamp) < row_start  ⇔  stamp + row_start > wd-1
            hits = np.flatnonzero((pair[:, 1] + row_start[:wd]) > (wd - 1))
            # optimistic mega-decision on chunk-start loads
            cand_loads = pair[:, 0].reshape(w, d)
            cand_measures = (
                measures[flat].reshape(w, d) if needs_measures else None
            )
            u_win = fused_u[pos:end]
            j = decide_rows(cand_loads, cand_measures, u_win, strategy)
            chosen = flat[row_of[:w] + j]
            if heights is not None:
                f = np.arange(pos, end)
                heights[f % t, ball_base + f // t] = (
                    cand_loads.min(axis=1) + 1
                )
            if hits.size == 0:
                state[chosen, 0] += 1
                if _obs:
                    decide_s += time.perf_counter() - t2
            else:
                flagged = np.unique(hits // d)
                keep = np.ones(w, dtype=bool)
                keep[flagged] = False
                state[chosen[keep], 0] += 1
                if _obs:
                    conflict_rows += int(flagged.size)
                    t3 = time.perf_counter()
                    decide_s += t3 - t2
                # Scalar repair, in row order, with the sequential
                # reference's pure-python kernel: per single row it
                # beats numpy's ufunc dispatch, and repairs are
                # python-scalar work anyway; its bit-identity with
                # decide_rows is enforced by the strategy tests.
                for r in flagged.tolist():
                    cand = flat[r * d : (r + 1) * d]
                    jr = decide_row_scalar(
                        state[cand, 0].tolist(),
                        measures[cand].tolist() if needs_measures else None,
                        float(u_win[r]),
                        strategy,
                    )
                    chosen_r = int(cand[jr])
                    if heights is not None:
                        fr = pos + r
                        heights[fr % t, ball_base + fr // t] = (
                            int(state[chosen_r, 0]) + 1
                        )
                    state[chosen_r, 0] += 1
                if _obs:
                    repair_s += time.perf_counter() - t3
            pos = end
        ball_base += b

    if _obs:
        add_span("run_fused.rng", rng_s)
        add_span("run_fused.interleave", interleave_s)
        add_span("run_fused.decide", decide_s, chunks=chunks)
        add_span("run_fused.repair", repair_s, conflict_rows=conflict_rows)
        counter_add("placement.chunks", chunks)
        counter_add("placement.conflict_rows", conflict_rows)
    loads = state[:, 0].astype(np.int64).reshape(t, n)
    return loads, heights
