"""Command-line entry point: ``python -m repro.experiments <name>``.

Examples
--------
Run the scaled Table 1 and print it in the paper's format (re-runs are
served from the sweep-layer result cache)::

    python -m repro.experiments table1

Paper-scale Table 3 on two kernel threads, bypassing the cache::

    python -m repro.experiments table3 --full --trials 1000 --threads 2 --no-cache

Peak max load along dynamic insert/delete/churn trajectories
(steady-state, Poisson, adversarial bursts, churn storms)::

    python -m repro.experiments dynamic_churn

Sharded, cached parameter sweeps (see ``docs/sweeps.md``)::

    python -m repro.experiments sweep run n=256,4096 d=1,2 --trials 50

Aggregate observability traces from a ``REPRO_OBS=1`` run into a
per-phase time breakdown (see ``docs/observability.md``)::

    python -m repro.experiments obs report

Replay a churn trace through the online placement service with
latency stats (see ``docs/serving.md``)::

    python -m repro.experiments serve replay --workload steady --quick

List everything::

    python -m repro.experiments --list
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.registry import get_experiment, list_experiments

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (excluding the ``sweep`` subcommand).

    Returns
    -------
    argparse.ArgumentParser
        Parser for ``<name> [--trials N] [--full] [--jobs K] [--seed S]
        [--cache DIR | --no-cache] [--out DIR]``.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the paper's tables and validations, plus the "
            "dynamic_churn trajectory experiment and cached parameter "
            "sweeps (see the 'sweep' subcommand)."
        ),
    )
    parser.add_argument("name", nargs="?", help="experiment id (see --list)")
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument("--trials", type=int, default=None, help="trials per cell")
    parser.add_argument(
        "--full", action="store_true", help="paper-scale n sweep (slow!)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for dynamic_churn trials (0 = all cores, "
        "1 = serial)",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="kernel threads within one cell (default: REPRO_NUM_THREADS, "
        "else physical cores; results are thread-count-independent)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="result-cache directory (default: REPRO_SWEEP_CACHE or the "
        "XDG user cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache (force recomputation)",
    )
    parser.add_argument(
        "--out",
        default="results",
        help="output directory for the 'all' pseudo-experiment",
    )
    return parser


def main(argv=None) -> int:
    """Run the CLI; returns a process exit code (0 ok, 2 usage error).

    Parameters
    ----------
    argv:
        Argument list (defaults to ``sys.argv[1:]``).  A leading
        ``sweep`` token delegates everything after it to the sweep
        subcommand (:func:`repro.sweeps.cli.main`); a leading ``obs``
        token to the observability subcommand
        (:func:`repro.obs.cli.main`); a leading ``serve`` token to the
        placement-service subcommand (:func:`repro.serve.cli.main`);
        a leading ``net`` token to the overlay-simulator subcommand
        (:func:`repro.net.cli.main`).
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        from repro.sweeps.cli import main as sweep_main

        return sweep_main(argv[1:])
    if argv and argv[0] == "obs":
        from repro.obs.cli import main as obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.cli import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "net":
        from repro.net.cli import main as net_main

        return net_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.list or not args.name:
        print("available experiments:")
        for name in list_experiments():
            print(f"  {name}")
        print("  all            (run everything, writing files to --out)")
        print("  sweep          (cached parameter sweeps; sweep --help)")
        print("  obs            (trace aggregation; obs --help)")
        print("  serve          (online placement service; serve --help)")
        print("  net            (message-level overlay simulator; net --help)")
        return 0
    cache = "off" if args.no_cache else (args.cache or "auto")
    if args.name == "all":
        from repro.experiments.run_all import run_all

        run_all(
            args.out,
            trials=args.trials,
            seed=args.seed,
            n_jobs=None if args.jobs == 0 else args.jobs,
            cache=cache,
        )
        return 0
    try:
        driver = get_experiment(args.name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    kwargs: dict = {"cache": cache}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.full:
        kwargs["full"] = True
    if args.jobs != 1:
        kwargs["n_jobs"] = None if args.jobs == 0 else args.jobs
    if args.threads is not None:
        kwargs["threads"] = args.threads
    from repro.experiments.run_all import call_driver

    try:
        report = call_driver(driver, kwargs)
    except TypeError as exc:
        # driver without e.g. `full` support: report cleanly
        print(f"argument error for {args.name}: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
