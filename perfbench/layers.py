"""The traced run: per-layer metrics, timed from outside the program.

:func:`census` calls each layer's public functions on the inputs the
seed generates for the four workloads, times every call from here, and
checks that the pieces reproduce the whole: ``choice_blocks`` followed
by ``place_block`` must give ``run_fused``'s loads bit for bit, the
``IncrementalState`` replay must give the server's results.  Nothing
inside ``src/`` is instrumented beyond what ``REPRO_OBS=1`` already
records; that trace is kept and its ``obs report`` breakdown printed.

Every traced run measures every layer, whichever workload it names, so
each per-layer metric has one meaning in every result.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.engine import DEFAULT_RNG_BLOCK, choice_blocks
from repro.core.multitrial import fused_trial_chunk, run_fused
from repro.kernels import STRATEGY_CODES, resolve_backend
from repro.net import NetConfig, NetSim
from repro.obs.cli import main as obs_cli
from repro.serve import CandidateStream
from repro.stats.trials import run_cell
from repro.sweeps.cache import ResultCache
from repro.sweeps.runner import submit_cell
from repro.utils.rng import spawn_seed_sequences

import workloads as wl
from util import Stopwatch, median, sub_seed

OUT = Path(__file__).resolve().parent.parent / ".perfbench"


class TimedCache(ResultCache):
    """A sweep cache whose stores are timed by the caller's stopwatch."""

    def __init__(self, root, sw: Stopwatch) -> None:
        super().__init__(root)
        self._sw = sw

    def put(self, spec, payload, **kwargs):
        with self._sw("sweeps.put"):
            return super().put(spec, payload, **kwargs)


def decompose(spec, trials, seed, sw: Stopwatch, tag: str) -> np.ndarray:
    """Candidate generation then ``place_block``, trial by trial; returns loads."""
    backend = resolve_backend(None)
    code = STRATEGY_CODES[wl.STRATEGY]
    spaces, rngs = wl.trial_inputs(spec, trials, seed)
    loads = np.zeros((trials, spec.n), dtype=np.int64)
    for k, (space, rng) in enumerate(zip(spaces, rngs)):
        with sw(f"choice_blocks.{tag}"):
            blocks = list(choice_blocks(space, rng, spec.balls, wl.D))
        with sw(f"place_block.{tag}"):
            for bins, us in blocks:
                backend.place_block(bins, us, loads[k], None, code, None)
    return loads


def split_candidates(spec, trials, seed, sw: Stopwatch, tag: str, out) -> None:
    """RNG draws and ownership lookups of ``choice_blocks``, timed apart.

    Trial 0's candidates are checked against ``choice_blocks`` itself.
    """
    spaces, rngs = wl.trial_inputs(spec, trials, seed)
    spaces0, rngs0 = wl.trial_inputs(spec, trials, seed, 0, 1)
    expect = list(choice_blocks(spaces0[0], rngs0[0], spec.balls, wl.D))
    for k, (space, rng) in enumerate(zip(spaces, rngs)):
        left = spec.balls
        got = []
        while left:
            b = min(left, DEFAULT_RNG_BLOCK)
            with sw(f"rng.{tag}"):
                u = rng.random((b, wl.D))
            with sw(f"assign.{tag}"):
                bins = space.assign(u.ravel())
            with sw(f"rng.{tag}"):
                us = rng.random(b)
            if k == 0:
                got.append((bins.reshape(b, wl.D), us))
            left -= b
        if k == 0:
            same = len(got) == len(expect) and all(
                np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                for a, b in zip(got, expect))
            out.check(same, f"{tag}: split RNG + assign differs from choice_blocks")


def fused(spec, trials, seed, threads=None) -> tuple[np.ndarray, float]:
    """All trials through ``run_fused`` in ``run_cell``'s chunks; (loads, seconds)."""
    chunk = fused_trial_chunk(spec.n, spec.balls, wl.D)
    parts, wall = [], 0.0
    for c0 in range(0, trials, chunk):
        spaces, rngs = wl.trial_inputs(spec, trials, seed, c0, c0 + chunk)
        t0 = time.perf_counter()
        loads, _ = run_fused(spaces, spec.balls, wl.D, wl.STRATEGY, rngs, threads=threads)
        wall += time.perf_counter() - t0
        parts.append(loads)
    return np.concatenate(parts), wall


def cells_group(space: str, seed: int, scale: str, out, m: dict) -> None:
    """Layers under ``ring_cells`` / ``torus_cells`` (``space`` = ring/torus)."""
    sw = Stopwatch()
    cells = wl.cell_list(space, seed, scale)
    balls = {}
    walls = {"fused": 0.0, "serial": 0.0}
    for i, (spec, trials, s) in enumerate(cells):
        tag = f"{space}{i}"
        rngs = [np.random.default_rng(ss) for ss in spawn_seed_sequences(s, trials)]
        with sw("random"):
            for r in rngs:
                wl.build_space(space, spec.n, r)
        if space == "ring":
            split_candidates(spec, trials, s, sw, tag, out)
        else:
            spaces, rngs = wl.trial_inputs(spec, trials, s)
            with sw("sample"):
                for sp, r in zip(spaces, rngs):
                    sp.sample_choice_bins(r, spec.balls, wl.D)
        parts = decompose(spec, trials, s, sw, tag)
        loads, wall = fused(spec, trials, s)
        walls["fused"] += wall
        out.check(np.array_equal(parts, loads),
                  f"{spec.label()}: choice_blocks + place_block != run_fused loads")
        serial, wall = fused(spec, trials, s, threads=1)
        walls["serial"] += wall
        out.check(np.array_equal(serial, loads),
                  f"{spec.label()}: run_fused threads=1 differs from default threads")
        ref = wl.sequential_trial0(spec, trials, s)
        out.check(np.array_equal(ref, loads[0]),
                  f"{spec.label()}: trial 0 differs from run_sequential")
        with sw("run_cell"):
            dist = run_cell(spec, trials, s)
        maxima = {int(k): int(v) for k, v in zip(*np.unique(loads.max(axis=1), return_counts=True))}
        out.check(dict(dist.counts) == maxima, f"{spec.label()}: run_cell counts differ")
        if space == "ring":
            root = OUT / "census-cache"
            shutil.rmtree(root, ignore_errors=True)
            cache = TimedCache(root, sw)
            with sw("submit_cold"):
                submit_cell(spec, trials, s, cache=cache)
            cache.hits = cache.misses = 0
            with sw("submit_warm"):
                warm = submit_cell(spec, trials, s, cache=cache)
            out.check(dict(warm.counts) == maxima, f"{spec.label()}: warm cache hit differs")
            hit_ratio = cache.hits / max(1, cache.hits + cache.misses)
        balls[i] = spec.balls * trials
        if space == "ring":
            size = "n16" if i == 0 else "n20"
            m[f"kernels.place_block_balls_per_s.{size}"] = (
                balls[i] / sw[f"place_block.{tag}"], "1/s")
    total = sum(balls.values())
    cb = sum(sw[f"choice_blocks.{space}{i}"] for i in range(len(cells)))
    pb = sum(sw[f"place_block.{space}{i}"] for i in range(len(cells)))
    if space == "ring":
        rng_s = sum(sw[f"rng.ring{i}"] for i in range(len(cells)))
        assign_s = sum(sw[f"assign.ring{i}"] for i in range(len(cells)))
        m["core.ring.random_s"] = (sw["random"], "s")
        m["core.ring.assign_s"] = (assign_s, "s")
        m["core.engine.rng_share"] = (rng_s / (rng_s + assign_s), "ratio")
        m["core.multitrial.overhead_s"] = (walls["serial"] - (cb + pb), "s")
        m["core.multitrial.serial_balls_per_s"] = (total / walls["serial"], "1/s")
        m["core.multitrial.thread_speedup"] = (walls["serial"] / walls["fused"], "ratio")
        m["stats.trials.run_cell_s"] = (sw["run_cell"], "s")
        m["sweeps.store_s"] = (sw["sweeps.put"], "s")
        m["sweeps.warm_s"] = (sw["submit_warm"], "s")
        m["sweeps.hit_ratio"] = (hit_ratio, "ratio")
    else:
        m["core.torus.random_s"] = (sw["random"], "s")
        m["core.torus.sample_s"] = (sw["sample"], "s")
    m[f"core.engine.choice_blocks_s.{space}"] = (cb, "s")
    m[f"kernels.place_block_s.{space}"] = (pb, "s")
    m[f"core.multitrial.run_fused_s.{space}"] = (walls["fused"], "s")
    m[f"core.multitrial.balls_per_s.{space}"] = (total / walls["fused"], "1/s")


def serve_group(seed: int, scale: str, out, m: dict) -> None:
    """Layers under ``serve_zipf``: one round of the op stream."""
    inputs = wl.setup_serve(seed, scale)
    p = inputs["p"]
    served = wl.measure_serve(inputs, 0.0)  # exactly one round
    unit = served.units[0]
    ref = wl.ServeReference(inputs)
    warm_apply = ref.apply_s
    kinds, args, _, leaving = wl.serve_round(seed, p, 0, 0, keys=False)
    results = ref.apply(kinds, args)
    ref.wave(leaving)
    out.check(wl.digest([results, ref.state.loads]) == unit["digest"],
              "serve_zipf: round 0 differs from the IncrementalState replay")
    wl.check_pin(out, inputs, "serve_zipf", unit["digest"])
    apply_s = ref.apply_s - warm_apply
    inserts = int(np.count_nonzero(kinds == wl.OP_INSERT))
    stream = CandidateStream(inputs["space"], np.random.default_rng(inputs["server_seed"]), wl.D)
    t0 = time.perf_counter()
    stream.ensure(p["keys"] + inserts)
    ensure_s = time.perf_counter() - t0
    server = inputs["server"]
    index = (server.state.ball_bin.nbytes + server.stream.cands.nbytes
             + server.stream.us.nbytes) / 2**20
    figures = {name: (value, unit_) for name, value, unit_ in served.figures}
    m["serve.candidate_stream.ensure_s"] = (ensure_s, "s")
    m["core.incremental.apply_window_s"] = (apply_s, "s")
    m["serve.submit_overhead_s"] = (unit["online_s"] + unit["bulk_s"] - apply_s, "s")
    m["core.incremental.bin_leave_s"] = (ref.leave_s, "s")
    m["core.incremental.index_mb"] = (index, "MB")
    m["serve.ops_per_s"] = figures["ops_per_s"]
    m["serve.op_p50_us"] = figures["op_p50_us"]
    m["serve.op_p99_us"] = figures["op_p99_us"]
    m["serve.throughput_per_s"] = (served.throughput, "1/s")


def net_group(seed: int, scale: str, out, m: dict) -> None:
    """Layers under ``net_storm``: storm 0 of the seed."""
    peers = wl.SIZES[scale]["net"]["peers"]
    gens = []
    for _ in range(3):
        t0 = time.perf_counter()
        trace = wl.storm_trace(seed, peers, 0)
        gens.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    NetSim.stable(peers, cfg=NetConfig(n_fingers=wl.NET_FINGERS), seed=sub_seed(seed, 4, 0))
    stable_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = wl.replay_storm(trace, seed, 0)
    wall = time.perf_counter() - t0
    rec = wl.storm_record(result, wall, trace)
    out.check(rec["lookups_resolved"] + rec["failed_lookups"] == rec["lookups_issued"],
              "net_storm: storm 0 lookups leaked")
    wl.check_pin(out, {"seed": seed, "scale": scale}, "net_storm", rec["digest"])
    figures = {name: (value, unit) for name, value, unit in wl.net_figures([rec])}
    m["dynamics.trace_gen_s"] = (median(gens), "s")
    m["net.stable_s"] = (stable_s, "s")
    m["net.run_trace_s"] = (wall, "s")
    m["net.messages"] = (rec["messages"], "count")
    m["net.msgs_per_s"] = (rec["messages"] / wall, "1/s")
    m["net.msgs_per_event"] = (rec["messages"] / rec["events"], "ratio")
    m["net.events_per_s"] = figures["events_per_s"]
    for name in ("timeouts", "nacks", "ticks", "quiesce_ticks", "keys_lost", "ring_mismatch"):
        m[f"net.{name}"] = (rec[name], "count")
    m["net.lookup_hops_p50"] = figures["lookup_hops_p50"]
    m["net.lookup_hops_p99"] = figures["lookup_hops_p99"]
    m["net.failed_frac"] = figures["failed_frac"]


def obs_group(seed: int, scale: str, m: dict) -> None:
    """``REPRO_OBS=1`` wall over plain wall, minus 1, on the first ring cell."""
    spec, trials, s = wl.cell_list("ring", seed, scale)[0]
    plain, traced = [], []
    for _ in range(3):
        for flag, sink in ((False, plain), (True, traced)):
            t0 = time.perf_counter()
            run_cell(spec, trials, s, obs=flag)
            sink.append(time.perf_counter() - t0)
    m["obs.overhead_frac"] = (median(traced) / median(plain) - 1.0, "ratio")


def census(args, obs_dir: Path):
    """Run every layer group; returns ``({name: (value, unit)}, outcome)``."""
    out = wl.Outcome()  # collects the census's checks
    m: dict = {}
    groups = (
        ("ring_cells", lambda: cells_group("ring", args.seed, args.scale, out, m)),
        ("torus_cells", lambda: cells_group("torus", args.seed, args.scale, out, m)),
        ("serve_zipf", lambda: serve_group(args.seed, args.scale, out, m)),
        ("net_storm", lambda: net_group(args.seed, args.scale, out, m)),
        ("obs", lambda: obs_group(args.seed, args.scale, m)),
    )
    for name, run in groups:
        t0 = time.perf_counter()
        before = set(m)
        run()
        print(f"layers of {name} ({time.perf_counter() - t0:.1f} s):")
        for key in sorted(set(m) - before):
            value, unit = m[key]
            print(f"  {key:<42} {value:>18,.6f} {unit}")
    if obs.trace_dir() is not None:
        obs.write_trace()
    print(f"obs report ({obs_dir}):")
    obs_cli(["report", "--dir", str(obs_dir)])
    return {k: (float(v), u) for k, (v, u) in m.items()}, out
