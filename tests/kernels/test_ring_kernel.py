"""The ``space_trials`` kernel: a C copy of numpy's PCG64 plus whole ring trials.

The kernel promises byte-identity with numpy three times over: its
generator draws the doubles ``Generator.random`` would and jumps
exactly like ``bit_generator.advance``, a ring it builds from a
generator is the ring ``RingSpace.random`` draws from it, and each ring
trial it runs ends with the loads, heights and generator state of
:func:`repro.core.engine.run_sequential`.  These tests check all three,
the rule by which the kernel's wrapper turns trials away before any C
call (other bit generators, shared generators, trials too large for its
int32 scratch and trials of more balls than its bytes hold), trials
whose loads pass the byte each server places into, the scratch a trial
holds and the threads it may hold it on, the ring table pass, and the
compile flags the rounding depends on.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (
    assert_refused,
    check_random_spaces,
    kernel_calls,
    numpy_reference,
    padded_histograms,
    repeating_generator,
)

from repro.core import multitrial
from repro.core.engine import DEFAULT_RNG_BLOCK, run_sequential
from repro.core.multitrial import run_fused, run_random_spaces
from repro.core.ring import RingSpace
from repro.core.strategies import TieBreak, strategy_needs_measures
from repro.core.torus import TorusSpace
from repro.kernels import available_backends, cext_backend, get_backend
from repro.kernels.cext_backend import C_SOURCE
from repro.stats import trials

pytestmark = pytest.mark.skipif(
    not available_backends()["cext"]
    or get_backend("cext").space_trials is None,
    reason="no compiled space_trials kernel on this machine",
)

MASK64 = (1 << 64) - 1
STRATEGIES = list(TieBreak)
THREADS = (1, 2, 7)
SIZES = (1, 2, 1023, 1024, 3000)
#: trials per fused call: more than one, fewer than the largest thread count
TRIALS = 3


def _lib():
    from repro.kernels.cext_backend import load_library

    return load_library()


def _words(bit_generator) -> np.ndarray:
    s = bit_generator.state["state"]
    return np.array(
        [s["state"] >> 64, s["state"] & MASK64, s["inc"] >> 64, s["inc"] & MASK64],
        dtype=np.uint64,
    )


def _state(words: np.ndarray) -> int:
    return (int(words[0]) << 64) | int(words[1])


def _cext():
    return get_backend("cext")


def _call_args(mode, bit_generators, n, m, d=2, code=0):
    """A direct space_trials call's arguments, ``(args, kwargs)``, on
    ``n``-server spaces: the tables of prebuilt rings (mode ``tables``;
    trial k's ring is drawn from seed 700 + k) or rings or tori the
    kernel builds (mode ``ring`` or ``torus``), on two threads."""
    t = len(bit_generators)
    if mode == "tables":
        tables = [RingSpace.random(n, seed=700 + k)._bucket_table()
                  for k in range(t)]
        loads = np.zeros((t, n), dtype=np.int64)
        return (bit_generators, tables, None, loads, None, m, d, code, False,
                DEFAULT_RNG_BLOCK, 2), {}
    return (bit_generators, None, None, None, None, m, d, code, False,
            DEFAULT_RNG_BLOCK, 2), dict(space=mode, n=n, hist=True)


# ---------------------------------------------------------------------------
# the C PCG64 against numpy's
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 7, 8, 9, 1000, 4097])
def test_pcg64_doubles_match_generator_random(seed, count):
    words = _words(np.random.PCG64(seed))
    out = np.empty(count)
    _lib().repro_pcg64_fill(words.ctypes.data, count, out.ctypes.data)
    rng = np.random.Generator(np.random.PCG64(seed))
    np.testing.assert_array_equal(out, rng.random(count))
    assert _state(words) == rng.bit_generator.state["state"]["state"]


DELTAS = [0, 1, 2, 3, 1000, 3 * (1 << 16), MASK64, 1 << 64, (1 << 64) + 5,
          (1 << 127) + 12345, (1 << 128) - 1]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("delta", DELTAS)
def test_pcg64_advance_matches_numpy(seed, delta):
    words = _words(np.random.PCG64(seed))
    _lib().repro_pcg64_advance(words.ctypes.data, delta >> 64, delta & MASK64)
    ref = np.random.PCG64(seed).advance(delta)
    assert _state(words) == ref.state["state"]["state"]
    assert words[2:].tolist() == _words(ref)[2:].tolist()  # inc untouched


def test_pcg64_advance_random_deltas():
    draw = np.random.default_rng(99)
    for seed in range(20):
        delta = int(draw.integers(0, 1 << 62)) << 66 | int(draw.integers(0, 1 << 62))
        words = _words(np.random.PCG64(seed))
        _lib().repro_pcg64_advance(words.ctypes.data, delta >> 64, delta & MASK64)
        ref = np.random.PCG64(seed).advance(delta)
        assert _state(words) == ref.state["state"]["state"]


def test_write_back_touches_only_state():
    """``inc``, ``has_uint32`` and ``uinteger`` survive the kernel as numpy
    leaves them (a buffered half-word stays buffered)."""
    space = RingSpace.random(300, seed=4)

    def buffered(seed):
        rng = np.random.default_rng(seed)
        st = rng.bit_generator.state
        st["has_uint32"], st["uinteger"] = 1, 0xDEADBEEF
        rng.bit_generator.state = st
        return rng

    rng = buffered(8)
    before = rng.bit_generator.state
    run_fused([space], 500, 2, TieBreak.RANDOM, [rng], backend="cext")
    ref = buffered(8)
    run_sequential(space, 500, 2, TieBreak.RANDOM, ref)
    after = rng.bit_generator.state
    assert after == ref.bit_generator.state
    assert after["state"]["inc"] == before["state"]["inc"]
    assert (after["has_uint32"], after["uinteger"]) == (1, 0xDEADBEEF)
    assert after["state"]["state"] != before["state"]["state"]


# ---------------------------------------------------------------------------
# ring trials against run_sequential
# ---------------------------------------------------------------------------


def _sequential(spaces, m, d, strategy, seeds, partitioned, rng_block):
    out = []
    for space, seed in zip(spaces, seeds):
        rng = np.random.default_rng(seed)
        loads, heights = run_sequential(
            space, m, d, strategy, rng, partitioned=partitioned,
            rng_block=rng_block, record_heights=True,
        )
        out.append((loads, heights, rng.bit_generator.state))
    return out


def _check_kernel(spaces, m, d, strategy, seeds, partitioned, rng_block,
                  expected):
    for threads in THREADS:
        rngs = [np.random.default_rng(s) for s in seeds]
        loads, heights = run_fused(
            spaces, m, d, strategy, rngs, partitioned=partitioned,
            rng_block=rng_block, record_heights=True, backend="cext",
            threads=threads,
        )
        where = (f"n={spaces[0].n} m={m} d={d} {strategy.value} "
                 f"partitioned={partitioned} rng_block={rng_block} "
                 f"threads={threads}")
        for k, (ref_loads, ref_heights, ref_state) in enumerate(expected):
            np.testing.assert_array_equal(loads[k], ref_loads, err_msg=where)
            np.testing.assert_array_equal(heights[k], ref_heights, err_msg=where)
            assert rngs[k].bit_generator.state == ref_state, where


def _block_sizes_for(rng_block):
    """m in {0, 1, rng_block - 1, rng_block, rng_block + 1}, deduplicated."""
    return sorted({0, 1, max(rng_block - 1, 0), rng_block, rng_block + 1})


@pytest.mark.parametrize("partitioned", [False, True])
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_ring_kernel_matches_run_sequential(d, strategy, partitioned):
    """Every small shape: rng_block ∈ {1, 7, 128} with m around a block
    boundary, and the default 2¹⁶ block with m ∈ {0, 1}."""
    cases = [(rb, m) for rb in (1, 7, 128) for m in _block_sizes_for(rb)]
    cases += [(DEFAULT_RNG_BLOCK, 0), (DEFAULT_RNG_BLOCK, 1)]
    for n in SIZES:
        spaces = [RingSpace.random(n, seed=100 * n + k) for k in range(TRIALS)]
        seeds = [7 * n + d + k for k in range(TRIALS)]
        for rng_block, m in cases:
            expected = _sequential(spaces, m, d, strategy, seeds, partitioned,
                                   rng_block)
            _check_kernel(spaces, m, d, strategy, seeds, partitioned,
                          rng_block, expected)


def test_ring_kernel_full_block_matches_run_sequential():
    """m = 2¹⁶ + 1 crosses the default block boundary by one ball."""
    m = DEFAULT_RNG_BLOCK + 1
    spaces = [RingSpace.random(1024, seed=31)]
    expected = _sequential(spaces, m, 2, TieBreak.RANDOM, [32], False,
                           DEFAULT_RNG_BLOCK)
    _check_kernel(spaces, m, 2, TieBreak.RANDOM, [32], False,
                  DEFAULT_RNG_BLOCK, expected)


@pytest.mark.parametrize("partitioned", [False, True])
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_ring_kernel_default_block_matches_generic_path(d, strategy, partitioned):
    """m ∈ {2¹⁶ - 1, 2¹⁶, 2¹⁶ + 1} at the default block, against the
    generic ``choice_blocks`` + ``place_block`` path (numpy draws, the
    same compiled placement) — run_sequential would take minutes here."""
    generic = dataclasses.replace(_cext(), space_trials=None)
    spaces = [RingSpace.random(3000, seed=60 + k) for k in range(2)]
    seeds = [70, 71]
    for m in (DEFAULT_RNG_BLOCK - 1, DEFAULT_RNG_BLOCK, DEFAULT_RNG_BLOCK + 1):
        rngs = [np.random.default_rng(s) for s in seeds]
        loads, heights = run_fused(
            spaces, m, d, strategy, rngs, partitioned=partitioned,
            record_heights=True, backend=generic,
        )
        expected = [(loads[k], heights[k], rngs[k].bit_generator.state)
                    for k in range(len(spaces))]
        _check_kernel(spaces, m, d, strategy, seeds, partitioned,
                      DEFAULT_RNG_BLOCK, expected)


# ---------------------------------------------------------------------------
# rings built inside the kernel against RingSpace.random + run_sequential
# ---------------------------------------------------------------------------

BUILD_SIZES = (1, 2, 3, 1023, 1024, 3000)
#: positions the ring build draws at a time, on each of its two passes
DRAW_CHUNK = int(re.search(r"#define RING_DRAW_CHUNK (\d+)", C_SOURCE)[1])
#: sizes whose stream ends just before, on and just after a chunk boundary
CHUNK_SIZES = (DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 3 * DRAW_CHUNK + 5)
#: buckets per group of the trials' compact index, which keeps one int32
#: start per group and one byte offset per bucket
GROUP = 1 << int(re.search(r"#define RING_GROUP_BITS (\d+)", C_SOURCE)[1])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", BUILD_SIZES + (1 << 16,) + CHUNK_SIZES)
def test_ring_build_matches_ring_space(n, seed):
    """Positions, bucket table, arc lengths and the state after n draws,
    and the compact index the trials look the ring up in: each group of
    buckets starts at its first bucket's table entry, and each bucket's
    offset is its table entry past that start."""
    bit_generator = np.random.PCG64(1000 * seed + n)
    words = _words(bit_generator)
    with numpy_reference():
        ref = RingSpace.random(n, seed=np.random.Generator(bit_generator))
        nbuckets, table, pos_ext = ref._bucket_table()
    got_ext = np.empty(n + 1)
    got_table = np.empty(nbuckets + 1, dtype=np.int32)
    got_start = np.empty(nbuckets // GROUP + 1, dtype=np.int32)
    got_off = np.empty(nbuckets + 1, dtype=np.uint8)
    got_measures = np.empty(n)
    built = _lib().repro_ring_build(
        words.ctypes.data, n, nbuckets, got_ext.ctypes.data,
        got_table.ctypes.data, got_start.ctypes.data, got_off.ctypes.data,
        got_measures.ctypes.data,
    )
    assert built == 1
    np.testing.assert_array_equal(got_ext, pos_ext)
    np.testing.assert_array_equal(got_table, table)
    np.testing.assert_array_equal(got_start, table[::GROUP])
    group_start = table[np.arange(nbuckets + 1) // GROUP * GROUP]
    np.testing.assert_array_equal(got_off, table - group_start)
    np.testing.assert_array_equal(got_measures, ref.region_measures())
    assert _state(words) == bit_generator.state["state"]["state"]


@pytest.mark.parametrize("loads", [
    pytest.param(np.ones(2 * 256 * 64, dtype=np.uint8), id="ones"),
    pytest.param(np.random.default_rng(0).integers(
        0, 256, size=3 * 255 * 64 + 37, dtype=np.uint8), id="random"),
])
def test_load_hist_u8_matches_bincount(loads):
    """The byte histogram counts a level 64 loads at a time into byte
    counters, in blocks of 255 chunks so that no counter wraps: 2·256·64
    equal loads put 512 in every counter, and the random bytes end in a
    part chunk.  Every row has 256 levels; those past the largest load
    come back zero."""
    h = np.full(256, -1, dtype=np.int64)
    _lib().repro_load_hist_u8(loads.ctypes.data, loads.size, h.ctypes.data)
    np.testing.assert_array_equal(h, np.bincount(loads, minlength=h.size))


def _reference_rings(n, m, d, strategy, seeds, partitioned, rng_block):
    """Each trial on RingSpace.random, then run_sequential, one generator."""
    out = []
    with numpy_reference():
        for seed in seeds:
            rng = np.random.default_rng(seed)
            space = RingSpace.random(n, seed=rng)
            loads, heights = run_sequential(
                space, m, d, strategy, rng, partitioned=partitioned,
                rng_block=rng_block, record_heights=True,
            )
            out.append((loads, heights, rng.bit_generator.state))
    return out


@pytest.mark.parametrize("partitioned", [False, True])
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_random_rings_match_run_sequential(d, strategy, partitioned):
    """m = 0 (the state after the positions alone) and m = n over several
    small RNG blocks."""
    for n in BUILD_SIZES:
        seeds = [11 * n + d + k for k in range(TRIALS)]
        for m, rng_block in ((0, DEFAULT_RNG_BLOCK), (n, 128)):
            expected = _reference_rings(n, m, d, strategy, seeds, partitioned,
                                        rng_block)
            check_random_spaces("ring", n, m, d, strategy, seeds,
                                partitioned, rng_block, expected, THREADS)


def test_random_rings_paper_size_matches_run_sequential():
    """n = m = 2¹⁶ at the default block; run_sequential takes about a
    second per trial here."""
    n = 1 << 16
    seeds = [5, 6]
    expected = _reference_rings(n, n, 2, TieBreak.RANDOM, seeds, False,
                                DEFAULT_RNG_BLOCK)
    check_random_spaces("ring", n, n, 2, TieBreak.RANDOM, seeds, False,
                        DEFAULT_RNG_BLOCK, expected, THREADS)


def test_random_rings_across_draw_chunks_match_run_sequential():
    """n = m = 3 chunks + 5: each ring's two passes over its stream split
    it into four draws, and the loads are widened from (or counted in)
    the byte scratch."""
    n = 3 * DRAW_CHUNK + 5
    seeds = [41, 42, 43]
    expected = _reference_rings(n, n, 2, TieBreak.RANDOM, seeds, False,
                                DEFAULT_RNG_BLOCK)
    check_random_spaces("ring", n, n, 2, TieBreak.RANDOM, seeds, False,
                        DEFAULT_RNG_BLOCK, expected, THREADS)


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("n", [2, 50, 100, 300])
def test_repeated_positions_raise_like_ring_space(n, threads):
    """The last trial's stream repeats: n = 2 and 50 repeat inside the
    kernel's buckets, n = 100 crowds one bucket past its limit and
    n = 300 past what its byte counts (the count saturates).  Either
    way the kernel writes no state back, and the reference path raises
    RingSpace's own error after drawing the other trials' positions."""
    def generators():
        return [np.random.default_rng(30 + k) for k in range(TRIALS - 1)] + [
            repeating_generator(9)
        ]

    rngs = generators()
    before = [r.bit_generator.state for r in rngs]
    loads = np.zeros((TRIALS, n), dtype=np.int64)
    assert not _cext().space_trials(
        [r.bit_generator for r in rngs], None, None, loads, None, n, 2, 0,
        False, DEFAULT_RNG_BLOCK, threads,
    )
    assert not _cext().space_trials(
        [r.bit_generator for r in rngs], None, None, None, None, n, 2, 0,
        False, DEFAULT_RNG_BLOCK, threads, n=n, hist=True,
    )
    assert [r.bit_generator.state for r in rngs] == before

    ref = generators()
    with pytest.raises(ValueError, match="distinct") as expected:
        [RingSpace.random(n, seed=r) for r in ref]
    rngs = generators()
    with pytest.raises(ValueError) as got:
        run_random_spaces("ring", n, n, 2, TieBreak.RANDOM, rngs,
                          backend="cext", threads=threads)
    assert str(got.value) == str(expected.value)
    assert [r.bit_generator.state for r in rngs] == [
        r.bit_generator.state for r in ref
    ]


def test_repeated_positions_raise_from_run_cell(monkeypatch):
    """run_cell's one kernel call builds no ring from the repeating
    stream, and the reference raises RingSpace's own error."""
    real_default_rng = np.random.default_rng

    def default_rng(seed=None):
        if isinstance(seed, str):
            return repeating_generator(9)
        return real_default_rng(seed)

    monkeypatch.setattr(
        trials, "spawn_seed_sequences",
        lambda seed, count: [30 + k for k in range(count - 1)] + ["repeat"],
    )
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    with pytest.raises(ValueError, match="distinct") as expected:
        RingSpace.random(50, seed=repeating_generator(9))
    with pytest.raises(ValueError) as got:
        trials.run_cell(trials.CellSpec("ring", 50, 2), TRIALS, seed=0,
                        backend="cext", threads=2)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("strategy", [TieBreak.SMALLER, TieBreak.LARGER],
                         ids=lambda s: s.value)
def test_arc_length_strategies_keep_their_own_load_scratch(strategy, threads):
    """smaller/larger keep the arc lengths in a buffer of their own,
    beside the byte load scratch.  Eight trials per call reuse both on
    every worker; the histograms and states must match the loads."""
    n, trial_count = 3000, 8
    code = 2 if strategy is TieBreak.SMALLER else 3

    def run(loads, hist):
        rngs = [np.random.default_rng(70 + k) for k in range(trial_count)]
        out = _cext().space_trials(
            [r.bit_generator for r in rngs], None, None, loads, None, n, 2,
            code, False, 128, threads, n=n, hist=hist,
        )
        return out, [r.bit_generator.state for r in rngs]

    loads = np.zeros((trial_count, n), dtype=np.int64)
    built, states = run(loads, False)
    assert built is True
    hist, hist_states = run(None, True)
    assert hist_states == states
    np.testing.assert_array_equal(
        hist, [np.bincount(row, minlength=256) for row in loads]
    )


def test_scratch_loads_are_checked():
    """Loads kept in scratch need n and a space the kernel builds."""
    def call(loads=None, tables=None, **kwargs):
        bit_generators = [np.random.PCG64(k) for k in range(2)]
        return _cext().space_trials(bit_generators, tables, None, loads, None,
                                    10, 2, 0, False, 64, 1, hist=True,
                                    **kwargs)

    with pytest.raises(ValueError, match="needs n"):
        call()
    space = RingSpace.random(10, seed=0)
    with pytest.raises(ValueError, match="scratch only"):
        call(tables=[space._bucket_table()] * 2, n=10)


def test_int32_scratch_limits_keep_the_reference_path(monkeypatch):
    """Loads and bucket offsets live in int32 scratch, so trials of 2³¹
    servers or balls never reach C: the wrapper turns them away, given
    tables or building its spaces, and run_random_spaces takes the
    reference path; trials of 2³¹ - 1 servers and balls reach C, on the
    one thread the scratch budget then allows.  Nothing of that size is
    allocated: C returns at once, the reference path is stubbed, and a
    (1, 2³¹) loads array and its ring's table are stood in for by the
    shapes and sizes the wrapper checks."""
    big = 1 << 31
    calls = kernel_calls(monkeypatch, status=1)
    space = RingSpace.random(64, seed=1)
    assert_refused(calls, [np.random.PCG64(0)], [space._bucket_table()], None,
                   np.zeros((1, 64), dtype=np.int64), None, big, 2, 0, False,
                   DEFAULT_RNG_BLOCK, 1)
    loads = SimpleNamespace(dtype=np.dtype(np.int64), shape=(1, big),
                            flags=SimpleNamespace(c_contiguous=True))
    table = (big, SimpleNamespace(size=big + 1), SimpleNamespace(size=big + 1))
    assert_refused(calls, [np.random.PCG64(0)], [table], None, loads, None, 1,
                   2, 0, False, DEFAULT_RNG_BLOCK, 1)
    limits = ((big, 1), (1, big))
    for space in ("ring", "torus"):
        for n, m in limits:
            assert_refused(calls, [np.random.PCG64(0)], None, None, None, None,
                           m, 2, 0, False, DEFAULT_RNG_BLOCK, 1, space=space,
                           n=n, hist=True)
        assert _cext().space_trials(
            [np.random.PCG64(0)], None, None, None, None, big - 1, 2, 0,
            False, DEFAULT_RNG_BLOCK, 2, space=space, n=big - 1, hist=True,
        ) is False
    assert [args[-1] for args in calls] == [1, 1]

    reference = []

    def fake_run_fused(spaces, m, *args, **kwargs):
        reference.append((spaces, m))
        return np.full((len(spaces), 1), 7, dtype=np.int64), None

    monkeypatch.setattr(multitrial, "_random_space",
                        lambda space, n, dim, rng: (space, n))
    monkeypatch.setattr(multitrial, "run_fused", fake_run_fused)
    for n, m in limits:
        for space in ("ring", "torus"):
            hist, _ = run_random_spaces(space, n, m, 2, TieBreak.RANDOM,
                                        [np.random.default_rng(0)],
                                        backend="cext")
            assert hist.tolist() == [[0] * 7 + [1]]
            assert reference.pop() == ([(space, n)], m)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# trials whose loads pass a byte
# ---------------------------------------------------------------------------

#: (n, d, strategy) of heavily loaded trials: at m = 300·n every trial's
#: maximum passes 255, the most a server's byte of kernel scratch holds
OVERFLOW_CELLS = [
    (1, 1, TieBreak.FIRST),
    (3, 2, TieBreak.RANDOM),
    (16, 1, TieBreak.RANDOM),
    (5, 2, TieBreak.SMALLER),
]
#: the rings or tori they run on: drawn by each trial, or prebuilt rings
OVERFLOW_SPACES = ("ring", "torus", "prebuilt")


def _overflow_reference(kind, n, m, d, strategy, seeds, rng_block):
    """Each trial through run_sequential on the space ``kind`` names: a
    ring or torus drawn from the trial's generator, or the prebuilt ring
    of seed 500 + k."""
    out = []
    with numpy_reference():
        for k, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            if kind == "prebuilt":
                space = RingSpace.random(n, seed=500 + k)
            elif kind == "ring":
                space = RingSpace.random(n, seed=rng)
            else:
                space = TorusSpace.random(n, seed=rng)
            loads, heights = run_sequential(space, m, d, strategy, rng,
                                            rng_block=rng_block,
                                            record_heights=True)
            out.append((loads, heights, rng.bit_generator.state))
    return out


@pytest.mark.parametrize(
    "kind, n, d, strategy",
    [(kind, *cell) for kind in OVERFLOW_SPACES for cell in OVERFLOW_CELLS
     if not (kind == "torus" and strategy_needs_measures(cell[2]))],
    ids=lambda v: v.value if isinstance(v, TieBreak) else str(v),
)
def test_byte_overflow_takes_the_generic_route(monkeypatch, kind, n, d,
                                               strategy):
    """A ball that chooses a bin already holding 255 balls sends its
    call to the generic route: ``space_trials`` writes no generator
    state back, drawn spaces are drawn the reference way, and the trials
    run on run_fused's thread pool (a ring is offered to the kernel once
    more on its prebuilt tables first).  At m = 300·n every trial gets
    there mid-trial, and the wrapper turns such calls away before C,
    check_random_spaces' direct call too, as m passes 255·n; at m = one
    past the earliest such ball, one trial gets there at its last ball,
    in its last stage, and the others never do: the kernel stops there,
    unless m is past 255·n already (on one server, say).  RNG blocks
    of 100 balls put the overflow past the trial's first block, where
    its generator has moved on.  Loads or histograms, heights and final
    states must match run_sequential at every thread count, each call
    having run the pool."""
    pool_calls = []
    run_pool = multitrial._run_fused_kernel

    def counted_pool(*args, **kwargs):
        pool_calls.append(1)
        return run_pool(*args, **kwargs)

    monkeypatch.setattr(multitrial, "_run_fused_kernel", counted_pool)
    seeds = [61 + k for k in range(TRIALS)]
    for rng_block in (DEFAULT_RNG_BLOCK, 100):
        full = _overflow_reference(kind, n, 300 * n, d, strategy, seeds,
                                   rng_block)
        first = [int(np.flatnonzero(h > 255)[0]) for _, h, _ in full]
        last = min(first) + 1
        expected = {
            300 * n: full,
            last: _overflow_reference(kind, n, last, d, strategy, seeds,
                                      rng_block),
        }
        for m, ref in expected.items():
            pool_calls.clear()
            if kind == "prebuilt":
                spaces = [RingSpace.random(n, seed=500 + k)
                          for k in range(TRIALS)]
                _check_kernel(spaces, m, d, strategy, seeds, False,
                              rng_block, ref)
            else:
                check_random_spaces(kind, n, m, d, strategy, seeds,
                                    False, rng_block, ref, THREADS)
            assert len(pool_calls) == len(THREADS), (m, rng_block)


@pytest.mark.parametrize("space", ["ring", "torus"])
@pytest.mark.parametrize("n, m, d", [(1, 255, 1), (1024, 1024, 2)])
def test_light_cell_histograms_come_from_one_kernel_call(monkeypatch, space,
                                                         n, m, d):
    """Every histogram row holds the 256 loads a byte can: one kernel call
    fills a cell whose bins stay at or under 255 balls, up to a lone
    server holding all 255, and its rows equal the reference's."""
    lib = _lib()
    kernel = lib.repro_space_trials
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(lib, "repro_space_trials", counted)
    seeds = [90 + k for k in range(TRIALS)]
    with numpy_reference():
        ref = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            built = (RingSpace.random(n, seed=rng) if space == "ring"
                     else TorusSpace.random(n, seed=rng))
            ref.append(run_sequential(built, m, d, TieBreak.RANDOM, rng)[0])
    rngs = [np.random.default_rng(s) for s in seeds]
    hist = _cext().space_trials(
        [r.bit_generator for r in rngs], None, None, None, None, m, d, 0,
        False, DEFAULT_RNG_BLOCK, 2, space=space, n=n, hist=True,
    )
    assert len(calls) == 1
    assert hist.shape == (TRIALS, 256)
    np.testing.assert_array_equal(
        hist, [np.bincount(loads, minlength=256) for loads in ref]
    )


@pytest.mark.parametrize("mode", ["tables", "ring", "torus"])
def test_a_bin_past_a_byte_leaves_the_kernel(monkeypatch, mode):
    """A ball that chooses a bin already holding 255 balls stops the
    kernel: 510 balls of one candidate each on 2 servers, where some
    reference trial's bin passes 255, make space_trials return False
    after its one C call, with every generator as it was.  More than
    255·n balls, some bin of which must pass 255, never reach C; 255·n
    balls do."""
    calls = kernel_calls(monkeypatch)
    seeds = [90 + k for k in range(TRIALS)]
    peaks = []
    with numpy_reference():
        for k, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            if mode == "tables":
                space = RingSpace.random(2, seed=700 + k)
            elif mode == "ring":
                space = RingSpace.random(2, seed=rng)
            else:
                space = TorusSpace.random(2, seed=rng)
            peaks.append(run_sequential(space, 510, 1, TieBreak.RANDOM,
                                        rng)[0].max())
    assert max(peaks) > 255
    rngs = [np.random.default_rng(s) for s in seeds]
    before = [r.bit_generator.state for r in rngs]
    args, kwargs = _call_args(mode, [r.bit_generator for r in rngs], 2, 510,
                              d=1)
    assert _cext().space_trials(*args, **kwargs) is False
    assert len(calls) == 1
    assert [r.bit_generator.state for r in rngs] == before

    calls = kernel_calls(monkeypatch, status=1)
    for n in (1, 3000):
        args, kwargs = _call_args(mode, [r.bit_generator for r in rngs], n,
                                  255 * n + 1)
        assert_refused(calls, *args, **kwargs)
        args, kwargs = _call_args(mode, [r.bit_generator for r in rngs], n,
                                  255 * n)
        assert _cext().space_trials(*args, **kwargs) is False
    assert len(calls) == 2


@pytest.mark.parametrize("mode", ["tables", "ring", "torus"])
@pytest.mark.parametrize("generators", ["PCG64DXSM", "MT19937", "shared-PCG64"])
def test_kernel_refuses_generators_it_has_no_copy_of(monkeypatch, generators,
                                                    mode):
    """The kernel carries a copy of PCG64 per trial: a direct call with
    another bit generator, or with one PCG64 for two trials, returns
    False before any C call, with every generator as it was.  Run, it
    would draw a PCG64DXSM stream, or one shared stream twice, as if each
    were a PCG64 of its own, and find no PCG64 state in an MT19937."""
    bit_generators = {
        "PCG64DXSM": [np.random.PCG64DXSM(40 + k) for k in range(2)],
        "MT19937": [np.random.MT19937(40 + k) for k in range(2)],
        "shared-PCG64": [np.random.PCG64(40)] * 2,
    }[generators]
    calls = kernel_calls(monkeypatch)
    args, kwargs = _call_args(mode, bit_generators, 500, 700)
    assert_refused(calls, *args, **kwargs)


#: One n = m ring trial (n from argv) as run_cell runs it, in a
#: fresh process: prints how far the resident set's peak rose, per
#: server, above the resident set before it (Linux's VmHWM, reset through
#: clear_refs), or exits 77 when /proc/self/clear_refs cannot be written.
_PEAK_PER_SERVER = """
import re, sys
from pathlib import Path
import numpy as np
from repro.core.multitrial import run_random_spaces
from repro.core.strategies import TieBreak

def status_kb(field):
    text = Path("/proc/self/status").read_text()
    return int(re.search(rf"^{field}:\\s+(\\d+) kB", text, re.MULTILINE)[1])

def trial(n):
    run_random_spaces("ring", n, n, 2, TieBreak.RANDOM,
                      [np.random.default_rng(3)], backend="cext")

n = int(sys.argv[1])
trial(1 << 10)  # the compiled library and every code path, warmed
try:
    Path("/proc/self/clear_refs").write_text("5")
except OSError:
    sys.exit(77)
before = status_kb("VmRSS")
trial(n)
print((status_kb("VmHWM") - before) * 1024 / n)
"""


@functools.cache
def _ring_trial_peak_per_server() -> float:
    """Peak RSS growth per server of one n = 2²² ring trial as run_cell
    runs it, in a fresh process.  One trial runs on one worker, whatever
    REPRO_NUM_THREADS says."""
    n = 1 << 22
    env = dict(os.environ)
    env.pop("REPRO_KERNEL_BACKEND", None)  # it would outrank backend="cext"
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_PER_SERVER, str(n)], env=env,
        capture_output=True, text=True, timeout=300,
    )
    if out.returncode == 77:
        pytest.skip("/proc/self/clear_refs is not writable")
    assert out.returncode == 0, out.stderr
    return float(out.stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="reads Linux's VmHWM")
def test_ring_trial_scratch_stays_under_14_bytes_per_server():
    """An int32 bucket table would make a kernel-built ring trial's
    scratch 16 bytes per server, an n-entry draw buffer or int64 loads
    20."""
    per_server = _ring_trial_peak_per_server()
    assert per_server < 14, f"{per_server:.2f} bytes per server"


@pytest.mark.skipif(sys.platform != "linux", reason="reads Linux's VmHWM")
def test_ring_trial_scratch_stays_under_11_bytes_per_server():
    """A kernel-built ring trial holds its sorted positions (8 bytes per
    server), a load byte, which first holds the build's bucket count (1),
    and its compact bucket index (a byte per bucket and an int32 per 64
    buckets): 10.06 bytes per server at n = 2²².  int32 loads would make
    it 13."""
    per_server = _ring_trial_peak_per_server()
    assert per_server < 11, f"{per_server:.2f} bytes per server"


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM])
def test_random_rings_other_bit_generators_take_the_reference_path(
        monkeypatch, bit_generator):
    """The kernel turns these trials away, and run_random_spaces makes no
    C call: neither building the rings nor on the rings it then draws."""
    rngs = [np.random.Generator(bit_generator(50 + k)) for k in range(2)]
    calls = kernel_calls(monkeypatch)
    assert_refused(calls, [r.bit_generator for r in rngs], None, None, None,
                   None, 700, 2, 2, False, 128, 2, n=500, hist=True)
    hist, heights = run_random_spaces("ring", 500, 700, 2, TieBreak.SMALLER,
                                      rngs, rng_block=128, record_heights=True,
                                      backend="cext", threads=2)
    assert calls == []
    ref_loads = []
    for k in range(2):
        ref_rng = np.random.Generator(bit_generator(50 + k))
        space = RingSpace.random(500, seed=ref_rng)
        loads, ref_heights = run_sequential(
            space, 700, 2, TieBreak.SMALLER, ref_rng, rng_block=128,
            record_heights=True,
        )
        ref_loads.append(loads)
        np.testing.assert_array_equal(heights[k], ref_heights)
        np.testing.assert_equal(rngs[k].bit_generator.state,
                                ref_rng.bit_generator.state)
    np.testing.assert_array_equal(hist, padded_histograms(ref_loads))


def test_random_rings_shared_generator_takes_the_reference_path(monkeypatch):
    """Trials sharing one generator: every ring first, then the trials one
    after another, exactly as run_fused on RingSpace.random spaces.  The
    kernel turns them away, and no C call is made."""
    shared = np.random.default_rng(13)
    calls = kernel_calls(monkeypatch)
    assert_refused(calls, [shared.bit_generator] * 3, None, None, None, None,
                   300, 2, 0, False, 64, 2, n=200, hist=True)
    hist, _ = run_random_spaces("ring", 200, 300, 2, TieBreak.RANDOM,
                                [shared] * 3, rng_block=64, backend="cext",
                                threads=2)
    assert calls == []
    ref = np.random.default_rng(13)
    spaces = [RingSpace.random(200, seed=ref) for _ in range(3)]
    ref_loads = [
        run_sequential(space, 300, 2, TieBreak.RANDOM, ref, rng_block=64)[0]
        for space in spaces
    ]
    np.testing.assert_array_equal(hist, padded_histograms(ref_loads))
    assert shared.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# dispatch, table pass, compile flags
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["tables", "ring", "torus"])
def test_scratch_budget_caps_the_threads_of_a_kernel_call(monkeypatch, mode):
    """A kernel call takes every trial at once, on no more threads than
    the scratch budget holds workers, and at least one, whether it is
    given prebuilt rings' tables (run_fused) or builds its spaces
    (run_random_spaces).  Results do not depend on it."""
    n = 500
    per_worker = cext_backend._worker_scratch_bytes(
        n, mode == "torus", mode != "tables", False
    )
    calls = kernel_calls(monkeypatch)

    def run():
        rngs = [np.random.default_rng(20 + k) for k in range(8)]
        if mode == "tables":
            spaces = [RingSpace.random(n, seed=k) for k in range(8)]
            return run_fused(spaces, n, 2, TieBreak.RANDOM, rngs,
                             backend="cext", threads=7)[0]
        return run_random_spaces(mode, n, n, 2, TieBreak.RANDOM, rngs,
                                 backend="cext", threads=7)[0]

    out = run()
    for budget in (3 * per_worker + 1, per_worker - 1):
        monkeypatch.setattr(cext_backend, "_SCRATCH_BUDGET", budget)
        np.testing.assert_array_equal(run(), out)
    # repro_space_trials' last argument is its thread count
    assert [args[-1] for args in calls] == [7, 3, 1]


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM])
def test_other_bit_generators_take_the_generic_path(monkeypatch, bit_generator):
    """run_fused offers prebuilt rings to the kernel, which turns these
    trials away without a C call; the pool places them."""
    spaces = [RingSpace.random(500, seed=k) for k in range(2)]
    rngs = [np.random.Generator(bit_generator(40 + k)) for k in range(2)]
    calls = kernel_calls(monkeypatch)
    assert_refused(calls, [r.bit_generator for r in rngs],
                   [s._bucket_table() for s in spaces], None,
                   np.zeros((2, 500), dtype=np.int64),
                   np.zeros((2, 700), dtype=np.int64), 700, 2, 0, False, 128,
                   2)
    loads, heights = run_fused(spaces, 700, 2, TieBreak.RANDOM, rngs,
                               rng_block=128, record_heights=True,
                               backend="cext", threads=2)
    assert calls == []
    for k, space in enumerate(spaces):
        ref_rng = np.random.Generator(bit_generator(40 + k))
        ref_loads, ref_heights = run_sequential(
            space, 700, 2, TieBreak.RANDOM, ref_rng, rng_block=128,
            record_heights=True,
        )
        np.testing.assert_array_equal(loads[k], ref_loads)
        np.testing.assert_array_equal(heights[k], ref_heights)
        np.testing.assert_equal(rngs[k].bit_generator.state,
                                ref_rng.bit_generator.state)


@pytest.mark.parametrize("space_cls", [RingSpace, TorusSpace])
def test_shared_generator_runs_trials_in_order(monkeypatch, space_cls):
    """Trials sharing one generator consume it trial after trial, on no
    C copy of it: the kernel turns rings away, and tori it is not offered
    prebuilt."""
    spaces = [space_cls.random(200, seed=k) for k in range(3)]
    shared = np.random.default_rng(12)
    calls = kernel_calls(monkeypatch)
    if space_cls is RingSpace:
        assert_refused(calls, [shared.bit_generator] * 3,
                       [s._bucket_table() for s in spaces], None,
                       np.zeros((3, 200), dtype=np.int64), None, 300, 2, 0,
                       False, 64, 2)
    loads, _ = run_fused(spaces, 300, 2, TieBreak.RANDOM, [shared] * 3,
                         rng_block=64, backend="cext", threads=2)
    assert calls == []
    ref = np.random.default_rng(12)
    for k, space in enumerate(spaces):
        ref_loads, _ = run_sequential(space, 300, 2, TieBreak.RANDOM, ref,
                                      rng_block=64)
        np.testing.assert_array_equal(loads[k], ref_loads)
    assert shared.bit_generator.state == ref.bit_generator.state


def test_pcg64_rings_take_the_kernel(monkeypatch):
    """run_fused runs a prebuilt ring's PCG64 trial in one C call; the
    numpy backend has no kernel to offer it to."""
    spaces = [RingSpace.random(64, seed=1)]
    calls = kernel_calls(monkeypatch)
    run_fused(spaces, 64, 2, TieBreak.RANDOM, [np.random.default_rng(1)],
              backend="cext")
    assert len(calls) == 1
    assert get_backend("numpy").space_trials is None
    run_fused(spaces, 64, 2, TieBreak.RANDOM, [np.random.default_rng(1)],
              backend="numpy")
    assert len(calls) == 1


def _clustered_ring(crowd, n=1024):
    """An n-server ring (n buckets) with ``crowd`` positions spread evenly
    over the first GROUP - 1 buckets of its second group, at most a few
    per bucket, and the rest spread evenly past that group: bucket
    2·GROUP - 1 then starts ``crowd`` positions past its group's start."""
    crowd_at = (GROUP + (np.arange(crowd) + 0.5) * (GROUP - 1) / crowd) / n
    rest = np.linspace(2 * GROUP / n, 1.0, n - crowd, endpoint=False)
    return RingSpace(np.concatenate([crowd_at, rest]))


@pytest.mark.parametrize("strategy", [TieBreak.RANDOM, TieBreak.SMALLER],
                         ids=lambda s: s.value)
def test_clustered_ring_takes_the_pool_path(strategy):
    """A prebuilt ring clustering more than 255 positions into one group's
    first GROUP - 1 buckets does not fit the kernel's byte offsets, so
    run_fused places its trials on the pool path; the last of three
    trials is that ring, so the kernel's workers have run the others."""
    spaces = [RingSpace.random(1024, seed=k) for k in range(2)]
    spaces.append(_clustered_ring(300))
    seeds = [81, 82, 83]
    expected = _sequential(spaces, 1500, 2, strategy, seeds, False, 128)
    _check_kernel(spaces, 1500, 2, strategy, seeds, False, 128, expected)


def test_group_offset_limit_sends_trials_to_the_pool_path(monkeypatch):
    """255 positions in a group's first GROUP - 1 buckets fit a byte
    offset, 256 do not: the kernel takes the first ring and turns the
    second away, writing no state back, and run_fused then places the
    second on the pool path.  One trial runs on one worker."""
    pool = []
    real = multitrial._run_fused_kernel

    def run_fused_kernel(spaces, *args, **kwargs):
        pool.append(spaces[0].n)
        return real(spaces, *args, **kwargs)

    monkeypatch.setattr(multitrial, "_run_fused_kernel", run_fused_kernel)
    for crowd, fits in ((255, True), (256, False)):
        space = _clustered_ring(crowd)
        rng = np.random.default_rng(90)
        before = rng.bit_generator.state
        loads = np.zeros((1, space.n), dtype=np.int64)
        assert _cext().space_trials(
            [rng.bit_generator], [space._bucket_table()], None, loads, None,
            700, 2, 0, False, 128, 1,
        ) is fits
        # the kernel writes state back only when it ran the trial
        assert (rng.bit_generator.state != before) == fits

        rng = np.random.default_rng(90)
        got, _ = run_fused([space], 700, 2, TieBreak.RANDOM, [rng],
                           rng_block=128, backend="cext")
        assert pool == ([] if fits else [space.n])
        ref = np.random.default_rng(90)
        ref_loads, _ = run_sequential(space, 700, 2, TieBreak.RANDOM, ref,
                                      rng_block=128)
        np.testing.assert_array_equal(got[0], ref_loads)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("backend", ["cext", "numpy"])
@pytest.mark.parametrize(
    "positions", [[0.25, 0.25], [0.5, 0.1, 0.9, 0.1], [0.0, -0.0, 0.3]]
)
def test_equal_positions_still_raise(monkeypatch, backend, positions):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
    with pytest.raises(ValueError, match="distinct"):
        RingSpace(positions)


def test_compile_flags_keep_numpy_rounding():
    """No fast-math or host tuning, and no multiply-add contracted into an
    FMA: the torus distance ``dx*dx + dy*dy`` must round like cKDTree's."""
    from repro.kernels.cext_backend import CFLAGS

    assert CFLAGS == ("-O3", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")
    assert not any("fast-math" in f or "march" in f or "mfma" in f
                   for f in CFLAGS)
