"""The ``serve`` subcommand of ``python -m repro.experiments``.

One verb so far::

    # replay a synthetic churn trace through the placement server
    python -m repro.experiments serve replay --workload steady --quick

The replay prints a latency summary (p50/p95/p99 per-op decision
latency, sustained ops/s) to stdout and can write a **deterministic**
JSON artifact with ``--out``: placements, trajectories and a blake2b
digest of the final load vector, but no timings and no backend name —
so two artifacts from the same seed are byte-identical regardless of
backend, batching, or whether the run was interrupted by a checkpoint
and resumed.  The CI ``serve`` leg leans on that: it
``cmp``'s a checkpoint/resume artifact against an uninterrupted one.

Checkpointing::

    ... serve replay --checkpoint ck.npz --checkpoint-at 5000 --out a.json
    ... serve replay --resume ck.npz --out b.json   # finishes the run

``--resume`` rebuilds the space and trace from the parameters recorded
in the checkpoint and takes the candidate stream from the checkpoint
itself — only engine knobs (``--backend``, ``--batch``) may be
re-chosen, because they cannot change results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.core.ring import RingSpace
from repro.dynamics.events import (
    adversarial_burst_trace,
    churn_storm_trace,
    steady_state_trace,
)
from repro.serve.replay import checkpoint_params, replay_trace

__all__ = ["build_parser", "main"]

#: ``--quick`` overrides (CI smoke scale).
_QUICK = {"n": 64, "keys": 300, "pairs": 300, "epochs": 4}


def build_parser() -> argparse.ArgumentParser:
    """The ``serve`` subcommand parser (currently the ``replay`` verb)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description="Online placement service: trace replay with latency stats.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    rp = sub.add_parser("replay", help="replay a synthetic trace through a server")
    rp.add_argument(
        "--workload", choices=("steady", "burst", "storm"), default="steady",
        help="trace family (default: steady-state FIFO-less churn)",
    )
    rp.add_argument("--n", type=int, default=256, help="bins (default 256)")
    rp.add_argument(
        "--keys", type=int, default=2000,
        help="standing occupancy / burst base (default 2000)",
    )
    rp.add_argument(
        "--pairs", type=int, default=2000,
        help="churn pairs (steady), burst size (burst), pairs per wave (storm)",
    )
    rp.add_argument(
        "--epochs", type=int, default=10,
        help="epochs (steady), rounds (burst), waves (storm)",
    )
    rp.add_argument("--d", type=int, default=2, help="choices per ball (default 2)")
    rp.add_argument(
        "--strategy", default="random",
        help="tie-break strategy (default random)",
    )
    rp.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    rp.add_argument(
        "--batch", type=int, default=1024,
        help="micro-batch size (results are batch-independent)",
    )
    rp.add_argument("--backend", default=None, help="kernel backend override")
    rp.add_argument(
        "--quick", action="store_true",
        help=f"CI smoke scale ({_QUICK})",
    )
    rp.add_argument(
        "--out", type=Path, default=None,
        help="write the deterministic replay artifact (JSON) here",
    )
    rp.add_argument(
        "--checkpoint", type=Path, default=None,
        help="server snapshot path (with --checkpoint-at)",
    )
    rp.add_argument(
        "--checkpoint-at", type=int, default=None,
        help="stop and checkpoint after this many events",
    )
    rp.add_argument(
        "--resume", type=Path, default=None,
        help="resume a checkpointed replay (workload params come from it)",
    )
    return parser


def _workload_params(args) -> dict:
    """The workload-defining parameter record (stored in checkpoints)."""
    params = {
        "workload": args.workload,
        "n": args.n,
        "keys": args.keys,
        "pairs": args.pairs,
        "epochs": args.epochs,
        "d": args.d,
        "strategy": args.strategy,
        "seed": args.seed,
    }
    if args.quick:
        params.update(_QUICK)
    return params


def _build(params):
    """(space, trace) for a parameter record; seeds derive from ``seed``."""
    space = RingSpace.random(params["n"], seed=params["seed"])
    trace_seed = params["seed"] + 1
    kind = params["workload"]
    if kind == "steady":
        trace = steady_state_trace(
            params["keys"], params["pairs"], policy="random",
            epochs=params["epochs"], seed=trace_seed,
        )
    elif kind == "burst":
        trace = adversarial_burst_trace(
            params["keys"], params["pairs"], params["epochs"], seed=trace_seed,
        )
    else:
        trace = churn_storm_trace(
            params["n"], params["keys"], waves=params["epochs"],
            pairs_per_wave=params["pairs"], policy="random", seed=trace_seed,
        )
    return space, trace


def _artifact(params: dict, result) -> dict:
    """The deterministic (timing-free, backend-free) replay record."""
    loads = result.loads
    return {
        "schema": "repro-serve-replay-v1",
        "params": {**params, "max_batch": None},  # batching cannot matter
        "events": result.events,
        "inserts": result.inserts,
        "deletes": result.deletes,
        "occupancy": result.occupancy,
        "max_load": result.max_load,
        "loads_blake2b": hashlib.blake2b(
            loads.tobytes(), digest_size=16
        ).hexdigest(),
        "series": {
            "max_load": result.max_load_over_time.tolist(),
            "total_load": result.total_load_over_time.tolist(),
            "live_bins": result.live_bins_over_time.tolist(),
        },
    }


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.resume is not None:
        params = checkpoint_params(args.resume)
        if not params:
            print(f"error: {args.resume} has no replay parameters", file=sys.stderr)
            return 2
    else:
        params = _workload_params(args)
    space, trace = _build(params)
    result = replay_trace(
        space,
        trace,
        params["d"],
        strategy=params["strategy"],
        seed=params["seed"] + 2,
        max_batch=args.batch,
        backend=args.backend,
        checkpoint=args.checkpoint,
        checkpoint_at=args.checkpoint_at,
        checkpoint_meta=params,
        resume_from=args.resume,
    )
    print(
        f"{params['workload']} replay: {result.events}/{trace.num_events} events, "
        f"occupancy {result.occupancy}, max load {result.max_load} "
        f"[{result.backend}, batch={result.max_batch}]"
    )
    print(result.latency.format())
    if result.checkpointed:
        print(f"checkpointed at event {result.events} -> {args.checkpoint}")
    if args.out is not None:
        if result.checkpointed:
            print("note: --out skipped (partial run); it is written on resume")
        else:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(
                json.dumps(_artifact(params, result), indent=2, sort_keys=True)
                + "\n",
                encoding="utf-8",
            )
            print(f"artifact -> {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
