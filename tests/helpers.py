"""Shared builders and assertions for the repro test suites.

The dynamics, serve, and net suites all drive seeded
:class:`~repro.dynamics.events.EventTrace` churn through different
engines and compare full result objects.  The builders and equality
helpers here used to be copy-pasted per suite; they are collected once
so a new trace family or result field is added in one place.

Importable as a plain module (``import helpers``) because pytest puts
the ``tests/`` conftest directory on ``sys.path``.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.baselines.uniform import UniformSpace
from repro.core.ring import RingSpace
from repro.core.torus import TorusSpace
from repro.dynamics.events import (
    adversarial_burst_trace,
    churn_storm_trace,
    poisson_trace,
    steady_state_trace,
)

__all__ = [
    "build_space",
    "build_trace",
    "named_scenarios",
    "assert_dynamics_equal",
    "check_state",
    "numpy_reference",
    "repeating_generator",
    "padded_histograms",
    "check_random_spaces",
    "kernel_calls",
    "assert_refused",
]


def build_space(kind: str, n: int, seed: int, *, dim: int = 2):
    """A placement space by family name (``ring`` / ``torus`` / ``uniform``)."""
    if kind == "ring":
        return RingSpace.random(n, seed=seed)
    if kind == "torus":
        return TorusSpace.random(n, dim=dim, seed=seed)
    return UniformSpace(n)


def build_trace(gen: str, n: int, m: int, policy: str, trace_seed):
    """A churn trace by family name, sized relative to ``n`` / ``m``.

    ``steady``: fixed occupancy with delete/insert turnover;
    ``poisson``: thinned M/M/∞ arrivals; ``bursts``: adversarial LIFO
    storms; anything else: the bin churn storm (mass leave + rejoin).
    """
    if gen == "steady":
        return steady_state_trace(m, pairs=m, policy=policy, epochs=3,
                                  seed=trace_seed)
    if gen == "poisson":
        return poisson_trace(3 * m, m, policy=policy, epochs=4,
                             seed=trace_seed)
    if gen == "bursts":
        return adversarial_burst_trace(
            m, max(1, m // 3), rounds=3, policy=policy, seed=trace_seed
        )
    return churn_storm_trace(
        n,
        m,
        waves=2,
        leave_fraction=0.3,
        pairs_per_wave=max(1, m // 4),
        policy=policy,
        seed=trace_seed,
    )


def named_scenarios():
    """The three (name, space, trace) parity scenarios shared by suites.

    One representative of each trace family over a ring, with fixed
    seeds so every suite pins the same trajectories.
    """
    return [
        ("steady", RingSpace.random(64, seed=0),
         steady_state_trace(200, 150, policy="lifo", epochs=5, seed=1)),
        ("burst", RingSpace.random(32, seed=2),
         adversarial_burst_trace(100, 60, 4, seed=3)),
        ("storm", RingSpace.random(32, seed=4),
         churn_storm_trace(32, 120, waves=3, leave_fraction=0.25,
                           pairs_per_wave=30, policy="fifo", seed=5)),
    ]


def assert_dynamics_equal(a, b) -> None:
    """Exact equality of two dynamics/replay results, field by field.

    Compares final loads, the active mask, insert/delete counts, every
    per-epoch series, and ν-profiles.  Per-epoch load snapshots are
    compared when both results carry them (the serve replay result
    does not).
    """
    assert np.array_equal(a.loads, b.loads)
    assert np.array_equal(a.active, b.active)
    assert a.inserts == b.inserts and a.deletes == b.deletes
    assert np.array_equal(a.max_load_over_time, b.max_load_over_time)
    assert np.array_equal(a.total_load_over_time, b.total_load_over_time)
    assert np.array_equal(a.live_bins_over_time, b.live_bins_over_time)
    assert len(a.nu_profiles) == len(b.nu_profiles)
    for x, y in zip(a.nu_profiles, b.nu_profiles):
        assert np.array_equal(x, y)
    snaps_a = getattr(a, "load_snapshots", None)
    snaps_b = getattr(b, "load_snapshots", None)
    if snaps_a is not None and snaps_b is not None:
        for x, y in zip(snaps_a, snaps_b):
            assert np.array_equal(x, y)


def check_state(state) -> list[str]:
    """Invariant violations of a live ``IncrementalState``; empty if sound.

    ``loads`` must equal the bincount of the live ``ball_bin`` entries,
    inactive bins must hold no load and no live ball, and
    ``occupancy`` must count the live balls.
    """
    live = state.ball_bin[state.ball_bin >= 0]
    if live.size and live.max() >= state.n:
        return [f"ball_bin holds bin {int(live.max())} outside [0, {state.n})"]
    problems = []
    if not np.array_equal(np.bincount(live, minlength=state.n), state.loads):
        problems.append("loads differ from the bincount of live ball_bin")
    if state.loads[~state.active].any():
        problems.append("an inactive bin has nonzero load")
    if live.size and not state.active[live].all():
        problems.append("a live ball sits on an inactive bin")
    if state.occupancy != live.size:
        problems.append(
            f"occupancy {state.occupancy} != {live.size} live balls"
        )
    return problems


#: PCG64's LCG multiplier: with inc = state·(1 − mult) mod 2¹²⁸ the
#: state is a fixed point, so every draw comes out equal
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def repeating_generator(seed) -> np.random.Generator:
    """A PCG64 generator whose stream repeats one double forever."""
    bit_generator = np.random.PCG64(seed)
    st = bit_generator.state
    s = st["state"]["state"]
    st["state"]["inc"] = s * (1 - PCG_MULT) % (1 << 128)
    bit_generator.state = st
    return np.random.Generator(bit_generator)


@contextlib.contextmanager
def numpy_reference():
    """A scope in which spaces are built and looked up the numpy way, so
    kernel references share no compiled pass with the kernel under test."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_KERNEL_BACKEND", "numpy")
        yield


def padded_histograms(loads_rows) -> np.ndarray:
    """``np.bincount`` of each trial's loads, zero-padded to the widest:
    the ``(T, L)`` histograms ``run_random_spaces`` returns."""
    width = max(int(loads.max()) for loads in loads_rows) + 1
    return np.array([np.bincount(loads, minlength=width) for loads in loads_rows])


def check_random_spaces(space, n, m, d, strategy, seeds, partitioned,
                        rng_block, expected, threads_values):
    """Trials on ``space``s the kernel builds against ``expected``, each
    reference trial's ``(loads, heights, final generator state)``: the
    histograms ``run_random_spaces`` returns, then each server's load
    through the ``space_trials`` wrapper's ``loads``, with heights and
    generator states both times, at every thread count.  When some
    reference bin passes 255 balls, the most a byte of kernel scratch
    holds, the wrapper must instead return ``False`` and leave every
    generator as it was, and ``run_random_spaces`` match all the same."""
    from repro.core.multitrial import run_random_spaces
    from repro.kernels import STRATEGY_CODES, get_backend

    ref_hist = padded_histograms([loads for loads, _, _ in expected])
    fits = ref_hist.shape[1] <= 256
    for threads in threads_values:
        where = (f"{space} n={n} m={m} d={d} {strategy.value} "
                 f"partitioned={partitioned} rng_block={rng_block} "
                 f"threads={threads}")
        rngs = [np.random.default_rng(s) for s in seeds]
        hist, heights = run_random_spaces(
            space, n, m, d, strategy, rngs, partitioned=partitioned,
            rng_block=rng_block, record_heights=True, backend="cext",
            threads=threads,
        )
        np.testing.assert_array_equal(hist, ref_hist, err_msg=where)
        runs = [(rngs, heights)]

        rngs = [np.random.default_rng(s) for s in seeds]
        loads = np.zeros((len(seeds), n), dtype=np.int64)
        heights = np.zeros((len(seeds), m), dtype=np.int64)
        assert get_backend("cext").space_trials(
            [r.bit_generator for r in rngs], None, None, loads, heights, m, d,
            STRATEGY_CODES[strategy.value], partitioned, rng_block, threads,
            space=space,
        ) is fits, where
        if fits:
            runs.append((rngs, heights))
        else:
            for r, s in zip(rngs, seeds):
                assert (r.bit_generator.state
                        == np.random.default_rng(s).bit_generator.state), where
        for k, (ref_loads, ref_heights, ref_state) in enumerate(expected):
            if fits:
                np.testing.assert_array_equal(loads[k], ref_loads,
                                              err_msg=where)
            for rngs, heights in runs:
                np.testing.assert_array_equal(heights[k], ref_heights,
                                              err_msg=where)
                assert rngs[k].bit_generator.state == ref_state, where


def kernel_calls(monkeypatch, status=None, *,
                 symbol="repro_space_trials") -> list:
    """The arguments of each call of the C function ``symbol`` from here
    to the end of the test, in order.  Each call goes through to C or,
    given ``status``, returns it at once (for ``repro_space_trials``, 1:
    a space the kernel did not build).
    """
    from repro.kernels.cext_backend import load_library

    lib = load_library()
    kernel = getattr(lib, symbol)
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args) if status is None else status

    monkeypatch.setattr(lib, symbol, counted)
    return calls


def assert_refused(calls, bit_generators, *args, **kwargs) -> None:
    """``space_trials(bit_generators, *args, **kwargs)`` returns ``False``
    without a C call (none added to ``calls``, from :func:`kernel_calls`)
    and leaves every generator's state as it was."""
    from repro.kernels import get_backend

    before = [bg.state for bg in bit_generators]
    count = len(calls)
    assert get_backend("cext").space_trials(
        bit_generators, *args, **kwargs
    ) is False
    assert len(calls) == count
    # MT19937 states hold arrays
    np.testing.assert_equal([bg.state for bg in bit_generators], before)
