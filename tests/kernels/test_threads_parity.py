"""Thread count never changes results — the multicore bit-identity contract.

The multicore tier (:mod:`repro.kernels.threads`) promises that
``threads`` only moves wall-clock time: the ``space_trials`` kernel and
the trial pool split work by independent trial.  These tests enforce
bit-identity of threaded against serial execution for every available
backend × engine × thread count, exercise the knob's env → kwarg →
auto resolution order (including a subprocess test of the real
environment path), and pin the supporting topology helpers.

Thread counts deliberately include values above this machine's core
count (7, 64) — oversubscription must degrade speed, never results.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from helpers import kernel_calls

from repro.core.engine import run_sequential
from repro.core.multitrial import run_fused
from repro.core.ring import RingSpace
from repro.core.strategies import TieBreak
from repro.core.torus import TorusSpace
from repro.kernels import (
    available_backends,
    cpu_topology,
    get_backend,
    physical_cores,
    resolve_threads,
)
from repro.kernels.threads import _parse_proc_cpuinfo
from repro.stats.trials import CellSpec, run_cell

#: All backends usable here (the numpy reference always is; threading
#: must be a no-op on results for it too).
BACKENDS = [name for name, ok in available_backends().items() if ok]

THREAD_COUNTS = (1, 2, 7)

STRATEGIES = list(TieBreak)


def _fused_loads(backend, threads, *, space_cls=RingSpace,
                 strategy=TieBreak.RANDOM, t=5, n=192, m=400, d=3,
                 rng_block=128):
    spaces = [space_cls.random(n, seed=60 + i) for i in range(t)]
    rngs = [np.random.default_rng(2000 + i) for i in range(t)]
    return run_fused(
        spaces, m, d, strategy, rngs, record_heights=True,
        backend=backend, threads=threads, rng_block=rng_block,
    )


# ---------------------------------------------------------------------------
# static placement: threaded == serial for every backend × strategy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
def test_fused_threaded_parity(backend, strategy):
    ref_loads, ref_heights = _fused_loads(backend, 1, strategy=strategy)
    for threads in THREAD_COUNTS[1:]:
        loads, heights = _fused_loads(backend, threads, strategy=strategy)
        np.testing.assert_array_equal(ref_loads, loads)
        np.testing.assert_array_equal(ref_heights, heights)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fused_threaded_parity_torus(backend):
    ref = _fused_loads(backend, 1, space_cls=TorusSpace)
    got = _fused_loads(backend, 7, space_cls=TorusSpace)
    np.testing.assert_array_equal(ref[0], got[0])
    np.testing.assert_array_equal(ref[1], got[1])


@pytest.mark.parametrize("backend", BACKENDS)
def test_fused_threaded_matches_other_backends(backend):
    """Threaded runs stay on the cross-backend bit-identity contract."""
    ref = _fused_loads("numpy", 1)
    got = _fused_loads(backend, 7)
    np.testing.assert_array_equal(ref[0], got[0])
    np.testing.assert_array_equal(ref[1], got[1])


@pytest.mark.parametrize("threads", THREAD_COUNTS)
def test_fused_single_trial_and_single_block(threads):
    """Degenerate shapes: one trial, and m smaller than one RNG block."""
    ref = _fused_loads("numpy", 1, t=1, m=50, rng_block=128)
    got = _fused_loads(BACKENDS[-1], threads, t=1, m=50, rng_block=128)
    np.testing.assert_array_equal(ref[0], got[0])


def test_trial_pool_under_switch_pressure():
    """More pool workers than cores, switching every microsecond: the
    generic path's trial pool still equals the serial loop.  The backend
    records which threads place balls, so the test fails rather than
    passing vacuously if these trials ever stop running on the pool."""
    base = get_backend(BACKENDS[-1])
    placers: set[str] = set()
    backend = base
    if base.place_block is not None:

        def place_block(*args):
            placers.add(threading.current_thread().name)
            base.place_block(*args)

        backend = dataclasses.replace(base, place_block=place_block)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ref = _fused_loads(backend, 1, space_cls=TorusSpace, t=9)
        placers.clear()
        got = _fused_loads(backend, 7, space_cls=TorusSpace, t=9)
    finally:
        sys.setswitchinterval(previous)
    np.testing.assert_array_equal(ref[0], got[0])
    np.testing.assert_array_equal(ref[1], got[1])
    if base.place_block is not None:
        assert len({p for p in placers if p.startswith("repro-trial")}) > 1


@pytest.mark.skipif("cext" not in BACKENDS, reason="needs the cext kernels")
def test_pool_route_looks_each_block_up_in_one_call(monkeypatch):
    """``threads`` splits trials only: on ``run_fused``'s pool (rings
    with ``MT19937``, which ``space_trials`` turns away) each trial's one
    block of 2¹⁷ candidates is a single serial ``repro_ring_assign`` call,
    not a lookup that starts threads of its own."""
    monkeypatch.setenv("REPRO_NUM_THREADS", "2")
    n = 1 << 16
    rings = [RingSpace.random(n, seed=90 + k) for k in range(2)]

    def rngs():
        return [np.random.Generator(np.random.MT19937(95 + k))
                for k in range(2)]

    want = [run_sequential(ring, n, 2, TieBreak.RANDOM, rng)[0]
            for ring, rng in zip(rings, rngs())]
    calls = kernel_calls(monkeypatch, symbol="repro_ring_assign")
    loads, _ = run_fused(rings, n, 2, TieBreak.RANDOM, rngs(), backend="cext")
    assert [args[1] for args in calls] == [2 * n, 2 * n]
    np.testing.assert_array_equal(loads, want)


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_cell_threads_kwarg_parity(backend):
    spec = CellSpec("ring", 128, 2, m=256)
    ref = run_cell(spec, trials=6, seed=11, backend=backend, threads=1)
    got = run_cell(spec, trials=6, seed=11, backend=backend, threads=7)
    assert ref.to_json_counts() == got.to_json_counts()


# ---------------------------------------------------------------------------
# resolution order: env → kwarg → auto
# ---------------------------------------------------------------------------


def test_resolve_threads_kwarg():
    assert resolve_threads(3) == 3
    assert resolve_threads(1) == 1


def test_resolve_threads_auto_is_physical_cores():
    assert resolve_threads(None) == physical_cores()


def test_resolve_threads_env_overrides_kwarg(monkeypatch):
    monkeypatch.setenv("REPRO_NUM_THREADS", "5")
    assert resolve_threads(2) == 5
    assert resolve_threads(None) == 5


@pytest.mark.parametrize("bogus", ["zero?", "-1", "0", "1.5"])
def test_resolve_threads_bogus_env_raises(monkeypatch, bogus):
    monkeypatch.setenv("REPRO_NUM_THREADS", bogus)
    with pytest.raises(ValueError, match="REPRO_NUM_THREADS"):
        resolve_threads(None)


def test_resolve_threads_bogus_kwarg_raises():
    with pytest.raises(ValueError, match="threads"):
        resolve_threads(0)


@pytest.mark.parametrize("bogus", [1.5, 2.0, True, False, "2"], ids=repr)
def test_resolve_threads_non_integer_kwarg_raises(monkeypatch, bogus):
    """Never truncated to an int, and checked even when the env var
    overrides the kwarg."""
    with pytest.raises(TypeError, match="threads"):
        resolve_threads(bogus)
    with pytest.raises(TypeError, match="threads"):
        run_cell(CellSpec("ring", 8, 2), 1, seed=0, threads=bogus)
    monkeypatch.setenv("REPRO_NUM_THREADS", "3")
    with pytest.raises(TypeError, match="threads"):
        resolve_threads(bogus)


@pytest.mark.parametrize("bogus", [0, -1])
def test_resolve_threads_kwarg_below_one_raises_under_env(monkeypatch, bogus):
    monkeypatch.setenv("REPRO_NUM_THREADS", "3")
    with pytest.raises(ValueError, match="threads"):
        resolve_threads(bogus)


def test_resolve_threads_numpy_integer_kwarg():
    got = resolve_threads(np.int64(3))
    assert got == 3 and type(got) is int


def test_env_selection_in_subprocess():
    """The real environment path: a child process pinned to 7 threads
    must produce the same loads the parent computes serially."""
    code = (
        "import numpy as np\n"
        "from repro.core.multitrial import run_fused\n"
        "from repro.core.ring import RingSpace\n"
        "from repro.core.strategies import TieBreak\n"
        "from repro.kernels import resolve_threads\n"
        "assert resolve_threads(None) == 7\n"
        "assert resolve_threads(1) == 7\n"
        "spaces = [RingSpace.random(192, seed=60 + i) for i in range(5)]\n"
        "rngs = [np.random.default_rng(2000 + i) for i in range(5)]\n"
        "loads, _ = run_fused(spaces, 400, 3, TieBreak.RANDOM, rngs,\n"
        "                     rng_block=128)\n"
        "print(int(loads.sum()), int((loads * loads).sum()))\n"
    )
    env = dict(os.environ, REPRO_NUM_THREADS="7")
    env.pop("REPRO_KERNEL_BACKEND", None)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=180,
    )
    assert out.returncode == 0, out.stderr
    loads, _ = _fused_loads(None, 1)
    assert out.stdout.split() == [
        str(int(loads.sum())), str(int((loads * loads).sum()))
    ]


# ---------------------------------------------------------------------------
# topology helpers
# ---------------------------------------------------------------------------


def test_cpu_topology_shape():
    topo = cpu_topology()
    assert set(topo) == {"logical", "physical", "model"}
    assert 1 <= topo["physical"] <= topo["logical"]
    assert isinstance(topo["model"], str) and topo["model"]
    assert physical_cores() == topo["physical"]
    assert cpu_topology() == topo  # cached, deterministic


def test_parse_proc_cpuinfo_smt_pairs():
    text = (
        "processor\t: 0\nphysical id\t: 0\ncore id\t: 0\n"
        "model name\t: Fake CPU\n\n"
        "processor\t: 1\nphysical id\t: 0\ncore id\t: 1\n\n"
        "processor\t: 2\nphysical id\t: 0\ncore id\t: 0\n\n"
        "processor\t: 3\nphysical id\t: 0\ncore id\t: 1\n"
    )
    physical, model = _parse_proc_cpuinfo(text)
    assert physical == 2  # 4 logical, SMT siblings collapsed
    assert model == "Fake CPU"


def test_parse_proc_cpuinfo_missing_topology():
    physical, model = _parse_proc_cpuinfo("processor\t: 0\nflags\t: fpu\n")
    assert physical is None and model is None
