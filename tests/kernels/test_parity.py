"""Bit-identity of every accelerated backend against the numpy reference.

The backend contract (:mod:`repro.kernels`) is that results never
depend on the backend.  These tests enforce it at every level the
kernels plug in: fused placements (loads and per-ball heights), dynamic
trajectories (per-epoch snapshots included), the raw ring lookup, and
the ``backend=`` kwarg surface of :func:`repro.stats.trials.run_cell`
and :func:`repro.stats.trials.run_cell_profile`.

Backends that cannot build on this machine (no C compiler) are
skipped, not failed — the numpy reference path is covered
by the rest of the suite either way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.multitrial import run_fused
from repro.core.ring import RingSpace
from repro.core.strategies import TieBreak
from repro.core.torus import TorusSpace
from repro.dynamics import simulate_dynamics
from repro.dynamics.events import churn_storm_trace, steady_state_trace
from repro.kernels import available_backends, get_backend
from repro.stats.trials import CellSpec, run_cell, run_cell_profile

#: Accelerated backends usable on this machine (parametrization set).
ACCELERATED = [
    name for name, ok in available_backends().items()
    if ok and name != "numpy"
]

pytestmark = pytest.mark.skipif(
    not ACCELERATED, reason="no accelerated kernel backend on this machine"
)

STRATEGIES = list(TieBreak)


def _fused_pair(backend_name, space_cls, strategy, *, t=4, n=192, m=260,
                d=3, partitioned=False, seed0=50):
    spaces = [space_cls.random(n, seed=seed0 + i) for i in range(t)]

    def run(backend):
        rngs = [np.random.default_rng(1000 + i) for i in range(t)]
        return run_fused(
            spaces, m, d, strategy, rngs,
            partitioned=partitioned, record_heights=True, backend=backend,
        )

    return run("numpy"), run(get_backend(backend_name))


@pytest.mark.parametrize("backend_name", ACCELERATED)
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
@pytest.mark.parametrize("space_cls", [RingSpace, TorusSpace])
def test_fused_placement_parity(backend_name, strategy, space_cls):
    (loads_np, heights_np), (loads_k, heights_k) = _fused_pair(
        backend_name, space_cls, strategy
    )
    np.testing.assert_array_equal(loads_np, loads_k)
    np.testing.assert_array_equal(heights_np, heights_k)


@pytest.mark.parametrize("backend_name", ACCELERATED)
@pytest.mark.parametrize("d", [1, 2, 4])
def test_fused_placement_parity_over_d(backend_name, d):
    (loads_np, heights_np), (loads_k, heights_k) = _fused_pair(
        backend_name, RingSpace, TieBreak.RANDOM, d=d
    )
    np.testing.assert_array_equal(loads_np, loads_k)
    np.testing.assert_array_equal(heights_np, heights_k)


@pytest.mark.parametrize("backend_name", ACCELERATED)
def test_fused_placement_parity_partitioned(backend_name):
    (loads_np, _), (loads_k, _) = _fused_pair(
        backend_name, RingSpace, TieBreak.FIRST, partitioned=True, d=2
    )
    np.testing.assert_array_equal(loads_np, loads_k)


@pytest.mark.parametrize("backend_name", ACCELERATED)
@pytest.mark.parametrize("seed", [0, 1, 2026])
def test_fused_placement_parity_over_seeds(backend_name, seed):
    (loads_np, _), (loads_k, _) = _fused_pair(
        backend_name, RingSpace, TieBreak.RANDOM, seed0=seed, t=3, n=640, m=900
    )
    np.testing.assert_array_equal(loads_np, loads_k)


@pytest.mark.parametrize("backend_name", ACCELERATED)
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
def test_dynamic_trajectory_parity(backend_name, strategy):
    """Sequential reference vs batched engine on an accelerated backend,
    compared epoch by epoch (churn storms create remaps mid-trace)."""
    trace = churn_storm_trace(
        280, 800, waves=3, leave_fraction=0.25, pairs_per_wave=4, seed=8
    )
    space = RingSpace.random(280, seed=2)

    ref = simulate_dynamics(
        space, trace, 2, strategy=strategy, seed=17,
        engine="sequential", record_loads=True,
    )
    got = simulate_dynamics(
        space, trace, 2, strategy=strategy, seed=17,
        engine="batched", record_loads=True, backend=backend_name,
    )
    np.testing.assert_array_equal(ref.loads, got.loads)
    assert ref.epochs == got.epochs
    assert len(ref.load_snapshots) == len(got.load_snapshots)
    for a, b in zip(ref.load_snapshots, got.load_snapshots):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("backend_name", ACCELERATED)
def test_dynamic_steady_state_parity(backend_name):
    trace = steady_state_trace(200, pairs=300, epochs=4, seed=3)
    space = TorusSpace.random(200, seed=4)
    ref = simulate_dynamics(
        space, trace, 3, seed=5, engine="sequential"
    )
    got = simulate_dynamics(
        space, trace, 3, seed=5, engine="batched", backend=backend_name
    )
    np.testing.assert_array_equal(ref.loads, got.loads)


@pytest.mark.parametrize("backend_name", ACCELERATED)
@pytest.mark.parametrize("n", [1 << 10, 1 << 12])
def test_ring_assign_parity(backend_name, n):
    """Raw bucket-table lookup vs searchsorted, including the wrap."""
    backend = get_backend(backend_name)
    if backend.ring_assign is None:
        pytest.skip(f"{backend_name} provides no ring_assign kernel")
    space = RingSpace.random(n, seed=21)
    nbuckets, table, pos_ext = space._bucket_table()
    rng = np.random.default_rng(31)
    pts = rng.random(5000)
    # force the wrap-around case: points beyond the last server position
    pts = np.concatenate([pts, [float(space.positions[-1]) + 1e-9, 0.0]])
    expected = np.searchsorted(space.positions, pts, side="left") % n
    got = backend.ring_assign(pts, table, pos_ext, nbuckets, n)
    np.testing.assert_array_equal(expected, got)


@pytest.mark.parametrize("backend_name", ACCELERATED)
@pytest.mark.parametrize("q", [0, 1, 7, 16, 33])
def test_ring_assign_parity_small_batches(backend_name, q):
    """Sizes at and below the kernel's prefetch lookahead."""
    backend = get_backend(backend_name)
    if backend.ring_assign is None:
        pytest.skip(f"{backend_name} provides no ring_assign kernel")
    space = RingSpace.random(512, seed=6)
    nbuckets, table, pos_ext = space._bucket_table()
    pts = np.random.default_rng(q).random(q)
    expected = np.searchsorted(space.positions, pts, side="left") % space.n
    got = backend.ring_assign(pts, table, pos_ext, nbuckets, space.n)
    np.testing.assert_array_equal(expected, got)


#: (space, strategy) of the run_cell parity check; ring cells keep the
#: ids they had before torus cells joined them
CELL_STRATEGIES = [
    pytest.param(space, s, id=s.value if space == "ring" else f"torus-{s.value}")
    for space in ("ring", "torus")
    for s in STRATEGIES
]


@pytest.mark.parametrize("backend_name", ACCELERATED)
@pytest.mark.parametrize("partitioned", [False, True])
@pytest.mark.parametrize("space, strategy", CELL_STRATEGIES)
def test_run_cell_backend_kwarg_parity(space, strategy, backend_name,
                                       partitioned):
    """Max-load counts and, bin level by bin level, ν-profiles."""
    spec = CellSpec(space, 256, 2, strategy=strategy.value,
                    partitioned=partitioned)
    ref = run_cell(spec, trials=6, seed=44, backend="numpy")
    got = run_cell(spec, trials=6, seed=44, backend=backend_name)
    assert ref.to_json_counts() == got.to_json_counts()
    np.testing.assert_array_equal(
        run_cell_profile(spec, trials=6, seed=44, backend="numpy"),
        run_cell_profile(spec, trials=6, seed=44, backend=backend_name),
    )


@pytest.mark.parametrize("backend_name", ACCELERATED)
def test_run_cell_env_var_parity(backend_name, monkeypatch):
    spec = CellSpec("torus", 128, 2, strategy="smaller")
    ref = run_cell(spec, trials=5, seed=13)
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend_name)
    got = run_cell(spec, trials=5, seed=13)
    assert ref.to_json_counts() == got.to_json_counts()
