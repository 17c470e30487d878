"""The four benchmark workloads: inputs from a seed, a timed loop, checks.

Each workload has three steps, dispatched by name:

:func:`setup`
    Builds the inputs the program receives (cells, key population and
    warm-up, storm traces).  The runner times it several times and keeps
    the median as part of ``setup_s``.
:func:`measure`
    Repeats the workload's unit of work until ``seconds`` have passed,
    timing only calls into the program, and returns an :class:`Outcome`.
:func:`verify`
    Checks the outputs of every unit and records any mismatch in the
    outcome.  A digest of the first unit is pinned in :data:`PINS` for
    :data:`DEFAULT_SEED`.

Every unit is a deterministic function of ``(seed, unit index)``, so
the pins do not depend on how many units fit into the run.
"""

from __future__ import annotations

import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.engine import run_sequential
from repro.core.incremental import IncrementalState
from repro.core.multitrial import fused_trial_chunk, run_fused
from repro.core.ring import RingSpace
from repro.core.strategies import TieBreak
from repro.core.torus import TorusSpace
from repro.dynamics.events import churn_storm_trace
from repro.kernels import resolve_backend
from repro.net import NetConfig, run_trace
from repro.serve import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    CandidateStream,
    PlacementServer,
    zipf_replay_ops,
)
from repro.stats.trials import CellSpec
from repro.sweeps.runner import submit_cell
from repro.utils.rng import spawn_seed_sequences

from util import cpu_jiffies, digest, median, quantile, stolen_fraction, sub_seed, unstolen

D = 2
STRATEGY = "random"
DEFAULT_SEED = 1

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny``
#: is for the smoke test.
SIZES = {
    "full": {
        # (n, trials) per Table 1 / Table 2 cell of one slice
        "ring": ((1 << 16, 64), (1 << 20, 4)),
        "torus": ((1 << 14, 16),),
        # cells up to this n get trial 0 re-run through run_sequential
        "seq_max_n": 1 << 16,
        "serve": {"bins": 1 << 16, "keys": 1 << 20, "slots": 1 << 18,
                  "online": 1 << 15, "batch": 4096, "wave": 16},
        "net": {"peers": 256},
    },
    "tiny": {
        "ring": ((1 << 10, 4), (1 << 12, 2)),
        "torus": ((1 << 8, 4),),
        "seq_max_n": 1 << 12,
        "serve": {"bins": 1 << 8, "keys": 1 << 12, "slots": 1 << 11,
                  "online": 1 << 9, "batch": 256, "wave": 2},
        "net": {"peers": 32},
    },
}

#: Digest of the first unit of each workload at :data:`DEFAULT_SEED`.
PINS = {
    ("full", "ring_cells"): "22db4475211b3fcc54c0403efe3813ef",
    ("full", "torus_cells"): "b0410f9fce2e497d068dd07c028f153a",
    ("full", "serve_zipf"): "51260a1186591b62a270ee89a19e11ed",
    ("full", "net_storm"): "6ad4bd2fe4fec7cac4187a7dcd2f9acb",
    ("tiny", "ring_cells"): "1e45b02ac103a5b3031b346d8d078ca6",
    ("tiny", "torus_cells"): "62f64deeb6f91bcc781192e1daf80afe",
    ("tiny", "serve_zipf"): "9a4d22ef704c20a0b26f2fca82b518fa",
    ("tiny", "net_storm"): "f8715bbeede1e94d8ca27e0bb9047e58",
}


@dataclass
class Outcome:
    """What one measured run of a workload produced."""

    throughput: float = 0.0
    work_unit: str = ""
    units: list[dict] = field(default_factory=list)
    #: workload-specific end-to-end figures: (name, value, unit)
    figures: list[tuple[str, float, str]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    checks: int = 0

    def check(self, ok: bool, message: str) -> None:
        """Count one verification check; record ``message`` if it failed."""
        self.checks += 1
        if not ok:
            self.failures.append(message)


def check_pin(outcome: Outcome, inputs: dict, name: str, value: str) -> None:
    """Compare the first unit's digest to the pinned one at the default seed."""
    if inputs["seed"] != DEFAULT_SEED:
        return
    pin = PINS.get((inputs["scale"], name), "")
    outcome.check(pin == value, f"{name}: digest {value} != pinned {pin}")


# ----------------------------------------------------------------------
# ring_cells / torus_cells: Table 1 and Table 2 slices through submit_cell
# ----------------------------------------------------------------------

def cell_list(space: str, seed: int, scale: str):
    """The ``(spec, trials, cell seed)`` cells of one slice."""
    return [
        (CellSpec(space, n, D, strategy=STRATEGY), trials, sub_seed(seed, 1, i))
        for i, (n, trials) in enumerate(SIZES[scale][space])
    ]


def build_space(kind: str, n: int, rng):
    """A trial's space, drawn from its generator as ``run_cell`` does."""
    if kind == "ring":
        return RingSpace.random(n, seed=rng)
    return TorusSpace.random(n, dim=2, seed=rng)


def trial_inputs(spec: CellSpec, trials: int, seed: int, start: int = 0, stop=None):
    """Fresh ``(spaces, rngs)`` for trials ``[start, stop)`` of a cell."""
    seqs = spawn_seed_sequences(seed, trials)[start:stop]
    rngs = [np.random.default_rng(ss) for ss in seqs]
    return [build_space(spec.space, spec.n, r) for r in rngs], rngs


def setup_cells(space: str, seed: int, scale: str, cache_dir: Path) -> dict:
    return {"seed": seed, "scale": scale, "space": space,
            "cells": cell_list(space, seed, scale), "cache_dir": cache_dir}


def measure_cells(inputs: dict, seconds: float) -> Outcome:
    cells = inputs["cells"]
    balls = sum(spec.balls * trials for spec, trials, _ in cells)
    units = []
    deadline = time.perf_counter() + seconds
    while not units or time.perf_counter() < deadline:
        # every unit starts from an empty sweep cache
        shutil.rmtree(inputs["cache_dir"], ignore_errors=True)
        j0, t0 = cpu_jiffies(), time.perf_counter()
        dists = [submit_cell(spec, trials, s) for spec, trials, s in cells]
        wall = time.perf_counter() - t0
        counts = [d.to_json_counts() for d in dists]
        units.append({"wall_s": wall, "steal": stolen_fraction(j0, cpu_jiffies()),
                      "counts": counts, "digest": digest(counts)})
    rate = median(unstolen([u["steal"] for u in units],
                           [balls / u["wall_s"] for u in units]))
    return Outcome(throughput=rate, work_unit="balls", units=units,
                   figures=[("balls_per_s", rate, "1/s")])


def fused_serial(spec: CellSpec, trials: int, seed: int):
    """Every trial's max load via single-threaded ``run_fused``, plus trial 0's loads."""
    chunk = fused_trial_chunk(spec.n, spec.balls, D)
    maxima, loads0 = [], None
    for c0 in range(0, trials, chunk):
        spaces, rngs = trial_inputs(spec, trials, seed, c0, c0 + chunk)
        loads, _ = run_fused(spaces, spec.balls, D, STRATEGY, rngs, threads=1)
        if loads0 is None:
            loads0 = loads[0].copy()
        maxima.extend(int(x) for x in loads.max(axis=1))
    return maxima, loads0


def sequential_trial0(spec: CellSpec, trials: int, seed: int) -> np.ndarray:
    """Trial 0 of a cell through the sequential reference engine."""
    spaces, rngs = trial_inputs(spec, trials, seed, 0, 1)
    loads, _ = run_sequential(spaces[0], spec.balls, D, TieBreak.RANDOM, rngs[0])
    return loads


def verify_cells(inputs: dict, outcome: Outcome, seq_max_n: int | None = None) -> None:
    name = f"{inputs['space']}_cells"
    first = outcome.units[0]
    for i, unit in enumerate(outcome.units):
        outcome.check(unit["digest"] == first["digest"],
                      f"{name}: unit {i} digest differs from unit 0")
    check_pin(outcome, inputs, name, first["digest"])
    if seq_max_n is None:
        seq_max_n = SIZES[inputs["scale"]]["seq_max_n"]
    for (spec, trials, seed), counts in zip(inputs["cells"], first["counts"]):
        maxima, loads0 = fused_serial(spec, trials, seed)
        observed = {str(k): v for k, v in sorted(Counter(maxima).items())}
        outcome.check(observed == counts,
                      f"{name}: {spec.label()} counts {counts} != serial fused {observed}")
        if spec.n <= seq_max_n:
            ref = sequential_trial0(spec, trials, seed)
            outcome.check(np.array_equal(ref, loads0),
                          f"{name}: {spec.label()} trial 0 loads differ from run_sequential")


# ----------------------------------------------------------------------
# serve_zipf: a closed loop with one client against PlacementServer
# ----------------------------------------------------------------------

def serve_key(ball: int) -> str:
    return f"key-{ball}"


def serve_round(seed: int, p: dict, r: int, cursor: int, keys: bool = True):
    """Round ``r`` of the op stream, continuing after ``cursor`` churn pairs.

    Returns ``(kinds, args, keys, leaving)``: id-addressed ops, the
    client's keys for them, and the bins that leave (then rejoin) at the
    end of the round.
    """
    kinds, args = zipf_replay_ops(
        p["keys"], p["slots"], lookup_fraction=0.8, exponent=1.1,
        seed=sub_seed(seed, 2, 100 + r),
    )
    args = args + cursor
    names = [serve_key(b) for b in args.tolist()] if keys else None
    leaving = np.random.default_rng(sub_seed(seed, 2, 200 + r)).choice(
        p["bins"], size=p["wave"], replace=False)
    return kinds, args, names, leaving


def setup_serve(seed: int, scale: str) -> dict:
    p = SIZES[scale]["serve"]
    space = RingSpace.random(p["bins"], seed=sub_seed(seed, 2, 0))
    server_seed = sub_seed(seed, 2, 1)
    server = PlacementServer(space, D, strategy=STRATEGY, seed=server_seed,
                             max_batch=p["batch"])
    keys = [serve_key(b) for b in range(p["keys"])]
    server.submit(np.full(p["keys"], OP_INSERT, dtype=np.int8), keys)
    return {"seed": seed, "scale": scale, "p": p, "space": space,
            "server_seed": server_seed, "server": server,
            "round0": serve_round(seed, p, 0, 0)}


def measure_serve(inputs: dict, seconds: float) -> Outcome:
    p, server = inputs["p"], inputs["server"]
    seed, batch = inputs["seed"], p["batch"]
    pc = time.perf_counter
    units, latencies = [], []
    cursor, nxt = 0, inputs["round0"]
    deadline = pc() + seconds
    while not units or pc() < deadline:
        kinds, args, keys, leaving = nxt
        events = kinds.size
        n_on = min(p["online"], events)
        results = np.empty(events, dtype=np.int64)
        lat = np.empty(n_on)
        j0, t0 = cpu_jiffies(), pc()
        # online phase: one keyed call per op, timed client-side
        for i, kind in enumerate(kinds[:n_on].tolist()):
            s = pc()
            if kind == OP_LOOKUP:
                results[i] = server.lookup(keys[i])
            elif kind == OP_INSERT:
                results[i] = server.insert(keys[i])
            else:
                server.delete(keys[i])
                results[i] = -1
            lat[i] = pc() - s
        t1 = pc()
        # bulk phase: batched submits, then a bin leave/join wave
        for a in range(n_on, events, batch):
            results[a:a + batch] = server.submit(kinds[a:a + batch], keys[a:a + batch])
        for slot in leaving.tolist():
            server.bin_leave(slot)
        for slot in leaving.tolist():
            server.bin_join(slot)
        t2 = pc()
        units.append({"online_s": t1 - t0, "bulk_s": t2 - t1, "online": n_on,
                      "steal": stolen_fraction(j0, cpu_jiffies()),
                      "bulk": events - n_on,
                      "digest": digest([results, np.asarray(server.loads)])})
        latencies.append(lat)
        cursor += int(np.count_nonzero(kinds == OP_DELETE))
        nxt = serve_round(seed, p, len(units), cursor)
    lat_all = np.concatenate(latencies)
    ops = [(u["online"] + u["bulk"]) / (u["online_s"] + u["bulk_s"]) for u in units]
    bulk = sum(u["bulk"] for u in units) / sum(u["bulk_s"] for u in units)
    return Outcome(
        throughput=median(unstolen([u["steal"] for u in units], ops)),
        work_unit="ops",
        units=units,
        figures=[
            ("ops_per_s", bulk, "1/s"),
            ("op_p50_us", quantile(lat_all, 0.50) * 1e6, "us"),
            ("op_p99_us", quantile(lat_all, 0.99) * 1e6, "us"),
            ("op_samples", float(lat_all.size), "count"),
        ],
    )


class ServeReference:
    """The server's op stream replayed on a bare ``IncrementalState``.

    Built the way :class:`PlacementServer` builds its state (the churn
    generator is spawned first, then the candidate stream), it applies
    each chunk's inserts and deletes in one ``apply_window`` call and
    answers the chunk's lookups from the ball-to-bin index.
    """

    def __init__(self, inputs: dict) -> None:
        p = inputs["p"]
        rng = np.random.default_rng(inputs["server_seed"])
        aux = rng.spawn(1)[0]
        self.state = IncrementalState(inputs["space"], D, STRATEGY, aux_rng=aux)
        self.stream = CandidateStream(inputs["space"], rng, D)
        self.backend = resolve_backend(None)
        self.chunk = p["batch"]
        self.apply_s = 0.0
        self.leave_s = 0.0
        keys = p["keys"]
        self.apply(np.full(keys, OP_INSERT, dtype=np.int8),
                   np.arange(keys, dtype=np.int64))

    def apply(self, kinds: np.ndarray, args: np.ndarray) -> np.ndarray:
        """Apply id-addressed ops; returns per-op results like ``submit``."""
        state, stream = self.state, self.stream
        results = np.empty(kinds.size, dtype=np.int64)
        inserts = args[kinds == OP_INSERT]
        if inserts.size:
            stream.ensure(int(inserts.max()) + 1)
        for a in range(0, kinds.size, self.chunk):
            k, x = kinds[a:a + self.chunk], args[a:a + self.chunk]
            state.reserve(int(x.max()) + 1)
            before = state.ball_bin[x]
            mut = np.flatnonzero(k != OP_LOOKUP)
            if mut.size:
                mk, mx = np.ascontiguousarray(k[mut]), np.ascontiguousarray(x[mut])
                t0 = time.perf_counter()
                state.apply_window(mk, mx, 0, mk.size, stream.cands, stream.us,
                                   batch_size=1024, backend=self.backend)
                self.apply_s += time.perf_counter() - t0
            after = state.ball_bin[x]
            results[a:a + k.size] = np.where(
                k == OP_DELETE, -1, np.where(before >= 0, before, after))
        return results

    def wave(self, leaving: np.ndarray) -> None:
        t0 = time.perf_counter()
        for slot in leaving.tolist():
            self.state.bin_leave(slot)
        self.leave_s += time.perf_counter() - t0
        for slot in leaving.tolist():
            self.state.bin_join(slot)


def verify_serve(inputs: dict, outcome: Outcome) -> None:
    p, seed = inputs["p"], inputs["seed"]
    ref = ServeReference(inputs)
    cursor = 0
    for r, unit in enumerate(outcome.units):
        kinds, args, _, leaving = serve_round(seed, p, r, cursor, keys=False)
        results = ref.apply(kinds, args)
        ref.wave(leaving)
        got = digest([results, ref.state.loads])
        outcome.check(got == unit["digest"],
                      f"serve_zipf: round {r} results/loads differ from the "
                      "IncrementalState replay")
        cursor += int(np.count_nonzero(kinds == OP_DELETE))
    outcome.check(np.array_equal(ref.state.loads, inputs["server"].loads),
                  "serve_zipf: final loads differ from the IncrementalState replay")
    check_pin(outcome, inputs, "serve_zipf", outcome.units[0]["digest"])


# ----------------------------------------------------------------------
# net_storm: churn storms replayed through the message-level overlay
# ----------------------------------------------------------------------

#: Storm shape of the ``net_churn`` experiment's cells.
NET_FINGERS = 24
NET_LOOKUPS_PER_EPOCH = 16


def storm_trace(seed: int, peers: int, j: int):
    return churn_storm_trace(
        peers, 2 * peers, waves=2, leave_fraction=0.1,
        pairs_per_wave=max(1, peers // 8), policy="random",
        seed=sub_seed(seed, 3, j),
    )


def replay_storm(trace, seed: int, j: int):
    return run_trace(trace, cfg=NetConfig(n_fingers=NET_FINGERS),
                     seed=sub_seed(seed, 4, j),
                     lookups_per_epoch=NET_LOOKUPS_PER_EPOCH, check="full")


def setup_net(seed: int, scale: str) -> dict:
    peers = SIZES[scale]["net"]["peers"]
    return {"seed": seed, "scale": scale, "peers": peers,
            "trace0": storm_trace(seed, peers, 0)}


def storm_record(result, wall: float, trace) -> dict:
    m = result.metrics
    stats = result.invariants.stats if result.invariants is not None else {}
    mutations = int(np.count_nonzero(trace.kinds <= 1))
    return {
        "wall_s": wall, "digest": result.digest, "events": result.events,
        "messages": int(result.meta["messages"]), "ticks": int(result.ticks),
        "quiesce_ticks": int(result.meta["quiesce_ticks"]),
        "timeouts": int(m["timeouts"]), "nacks": int(m["nacks"]),
        "lookups_issued": int(m["lookups_issued"]),
        "lookups_resolved": int(m["lookups_resolved"]),
        "failed_lookups": int(m["failed_lookups"]),
        "failed_ops": int(m["failed_ops"]), "mutations": mutations,
        "hops_p50": float(m["hops"]["p50"]), "hops_p99": float(m["hops"]["p99"]),
        "invariants": result.invariants is not None,
        "ring_mismatch": int(stats.get("succ_mismatch", 0) + stats.get("pred_mismatch", 0)
                             + stats.get("finger_mismatch", 0)),
        "keys_lost": int(stats.get("keys_lost", 0)),
    }


def net_figures(units: list[dict]) -> list[tuple[str, float, str]]:
    wall = sum(u["wall_s"] for u in units)
    attempted = sum(u["lookups_issued"] + u["mutations"] for u in units)
    failed = sum(u["failed_lookups"] + u["failed_ops"] for u in units)
    return [
        ("events_per_s", sum(u["events"] for u in units) / wall, "1/s"),
        ("lookup_hops_p50", median([u["hops_p50"] for u in units]), "hops"),
        ("lookup_hops_p99", median([u["hops_p99"] for u in units]), "hops"),
        ("failed_frac", failed / attempted, "ratio"),
        ("ring_mismatch_storms", float(sum(u["ring_mismatch"] > 0 for u in units)), "count"),
        ("storms", float(len(units)), "count"),
    ]


def measure_net(inputs: dict, seconds: float) -> Outcome:
    seed, peers = inputs["seed"], inputs["peers"]
    units = []
    deadline = time.perf_counter() + seconds
    while not units or time.perf_counter() < deadline:
        j = len(units)
        trace = inputs["trace0"] if j == 0 else storm_trace(seed, peers, j)
        j0, t0 = cpu_jiffies(), time.perf_counter()
        result = replay_storm(trace, seed, j)
        wall = time.perf_counter() - t0
        units.append({**storm_record(result, wall, trace),
                      "steal": stolen_fraction(j0, cpu_jiffies())})
    return Outcome(
        throughput=median(unstolen([u["steal"] for u in units],
                                   [u["messages"] / u["wall_s"] for u in units])),
        work_unit="messages",
        units=units,
        figures=net_figures(units),
    )


def verify_net(inputs: dict, outcome: Outcome) -> None:
    for j, u in enumerate(outcome.units):
        outcome.check(u["invariants"], f"net_storm: storm {j} ran no invariant check")
        outcome.check(u["lookups_resolved"] + u["failed_lookups"] == u["lookups_issued"],
                      f"net_storm: storm {j} lookups leaked")
    again = replay_storm(inputs["trace0"], inputs["seed"], 0)
    outcome.check(again.digest == outcome.units[0]["digest"],
                  "net_storm: storm 0 replay is not deterministic")
    check_pin(outcome, inputs, "net_storm", outcome.units[0]["digest"])


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

#: Every workload; ``perfbench/README.md`` says why each exists.
WORKLOADS = ("ring_cells", "torus_cells", "serve_zipf", "net_storm")


def setup(name: str, seed: int, scale: str, cache_dir: Path) -> dict:
    if name == "ring_cells":
        return setup_cells("ring", seed, scale, cache_dir)
    if name == "torus_cells":
        return setup_cells("torus", seed, scale, cache_dir)
    if name == "serve_zipf":
        return setup_serve(seed, scale)
    return setup_net(seed, scale)


def measure(name: str, inputs: dict, seconds: float) -> Outcome:
    if name in ("ring_cells", "torus_cells"):
        return measure_cells(inputs, seconds)
    if name == "serve_zipf":
        return measure_serve(inputs, seconds)
    return measure_net(inputs, seconds)


def verify(name: str, inputs: dict, outcome: Outcome) -> None:
    if name in ("ring_cells", "torus_cells"):
        verify_cells(inputs, outcome)
    elif name == "serve_zipf":
        verify_serve(inputs, outcome)
    else:
        verify_net(inputs, outcome)
