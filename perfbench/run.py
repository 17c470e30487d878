#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation, one JSON line out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ring_cells --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20    # all four, one after another

``--trace 0`` measures the workload's end-to-end metrics with
observability off.  ``--trace 1`` instead runs the layer census
(:mod:`layers`): it times calls into every layer's public functions on
the inputs the seed generates, with ``REPRO_OBS=1`` so the program's
own trace is written beside it, and reports the per-layer metrics.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; everything above
it is a human-readable report.  A full record (manifest included) is
written under ``.perfbench/results``.  The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import util

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Modules a workload run imports, timed in a fresh interpreter.
IMPORTS = ("repro.sweeps.runner", "repro.serve", "repro.net", "repro.dynamics")
SETUP_REPEATS = 5

END_TO_END_UNITS = {"throughput_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="ring_cells, torus_cells, serve_zipf, net_storm or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    return parser.parse_args(argv)


def isolate_environment(trace: bool, obs_dir: Path) -> None:
    """Library defaults, caches the benchmark owns, observability only when traced."""
    for var in ("REPRO_KERNEL_BACKEND", "REPRO_NUM_THREADS", "REPRO_OBS", "REPRO_OBS_DIR"):
        os.environ.pop(var, None)
    os.environ["REPRO_SWEEP_CACHE"] = str(OUT / "sweep-cache")
    os.environ["REPRO_KERNEL_CACHE"] = str(OUT / "kernels")
    os.environ["PYTHONPATH"] = str(SRC)
    # the kernel compiler's temporary files stay inside the checkout too
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    if trace:
        shutil.rmtree(obs_dir, ignore_errors=True)
        os.environ["REPRO_OBS"] = "1"
        os.environ["REPRO_OBS_DIR"] = str(obs_dir)


def time_fresh_import() -> float:
    """Seconds for a fresh interpreter to import the package and load kernels."""
    code = (f"import {', '.join(IMPORTS)}\n"
            "from repro.kernels import default_backend\n"
            "default_backend()\n")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def host_context() -> dict:
    from repro.kernels import resolve_threads
    from repro.obs.manifest import run_manifest

    return {"manifest": run_manifest(), "threads": resolve_threads(None),
            "nproc": os.cpu_count()}


def print_host(host: dict) -> None:
    m = host["manifest"]
    cpu = m.get("cpu", {})
    print(f"host: {cpu.get('model', '?')}, {cpu.get('physical', '?')} physical / "
          f"{cpu.get('logical', '?')} logical cores, nproc {host['nproc']}; "
          f"kernel backend {m['kernel_backend']}, threads {host['threads']}; "
          f"python {m['python']}, numpy {m['numpy']}")


def run_workload(args):
    """Untraced run: median setup, timed loop, verification.

    Returns ``(metrics, outcome, record)``.
    """
    import workloads

    cache_dir = OUT / "sweep-cache"
    imports = [time_fresh_import() for _ in range(SETUP_REPEATS)]
    setups, inputs = [], None
    for _ in range(SETUP_REPEATS):
        inputs = None  # let the previous inputs go before building the next
        t0 = time.perf_counter()
        inputs = workloads.setup(args.workload, args.seed, args.scale, cache_dir)
        setups.append(time.perf_counter() - t0)
    setup_s = util.median(imports) + util.median(setups)

    util.reset_peak_rss()
    before = util.cpu_jiffies()
    outcome = workloads.measure(args.workload, inputs, args.seconds)
    steal = util.stolen_fraction(before, util.cpu_jiffies())
    peak = util.peak_rss_mb()
    workloads.verify(args.workload, inputs, outcome)

    kept = sum(u["steal"] <= util.STEAL_LIMIT for u in outcome.units)
    print(f"workload {args.workload}: {outcome.work_unit} per second = "
          f"{outcome.throughput:,.1f}; the hypervisor kept {steal:.1%} of the CPU "
          f"time wanted, {kept} of {len(outcome.units)} units lost at most "
          f"{util.STEAL_LIMIT:.0%}")
    for name, value, unit in outcome.figures:
        print(f"  {name:<22} {value:>16,.4f} {unit}")
    print(f"  setup: import+kernels {util.median(imports):.3f} s, "
          f"inputs {util.median(setups):.3f} s (median of {SETUP_REPEATS})")
    metrics = {
        "throughput_per_s": outcome.throughput,
        "peak_rss_mb": peak,
        "setup_s": setup_s,
    }
    for name, value in metrics.items():
        print(f"  {name:<22} {value:>16,.4f} {END_TO_END_UNITS[name]}")
    record = {"units": outcome.units, "figures": outcome.figures,
              "import_s": imports, "inputs_s": setups, "steal_share": steal}
    return metrics, outcome, record


def run_all(argv) -> int:
    """Every workload in its own process (so each has its own peak RSS)."""
    import workloads

    rest = list(argv)
    at = rest.index("--workload")
    del rest[at:at + 2]
    codes = []
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, __file__, "--workload", name, *rest])
        codes.append(proc.returncode)
    return max(codes)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    obs_dir = OUT / "obs" / f"{args.workload}-seed{args.seed}"
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        isolate_environment(False, obs_dir)
        sys.path.insert(0, str(SRC))
        return run_all(argv)
    isolate_environment(bool(args.trace), obs_dir)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    host = host_context()
    print_host(host)

    if args.trace:
        import layers

        metrics, outcome = layers.census(args, obs_dir)
        values = {name: value for name, (value, _) in metrics.items()}
        units = {name: unit for name, (_, unit) in metrics.items()}
        record = {}
    else:
        values, outcome, record = run_workload(args)
        units = END_TO_END_UNITS

    for message in outcome.failures:
        print(f"VERIFY FAILED: {message}")
    print(f"verification: {outcome.checks - len(outcome.failures)}/{outcome.checks} checks passed")
    attempted = max(outcome.checks, 1)
    result = {
        "correct": not outcome.failures,
        "attempted": attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    full = {"args": vars(args), "host": host, "result": result,
            "failures": outcome.failures, **record}
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
