"""The ``obs`` subcommand of ``python -m repro.experiments``.

One verb so far::

    # aggregate trace JSONL into a per-phase time breakdown
    python -m repro.experiments obs report [TRACE.jsonl | DIR ...] [--dir DIR]

A directory argument stands for every ``trace-*.jsonl`` in it.  Without
positional arguments, the traces under ``--dir`` (or ``REPRO_OBS_DIR``,
or ``.repro-obs``) are aggregated.  The report shows
self-time per span name (percent of traced wall clock) followed by the
merged metric counters — kernel backend selections, cache hit/miss
splits, fused-engine repair counts.

Sweep progress/ETA for in-flight runs lives under
``python -m repro.experiments sweep status`` (same aggregation code,
:mod:`repro.obs.report`).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.obs.report import (
    aggregate_spans,
    format_breakdown,
    histogram_quantiles,
    merge_metrics,
    read_trace,
)

__all__ = ["build_parser", "main"]


def _default_dir() -> Path:
    env = os.environ.get("REPRO_OBS_DIR", "").strip()
    return Path(env) if env else Path(".repro-obs")


def build_parser() -> argparse.ArgumentParser:
    """The ``obs`` subcommand parser (currently the ``report`` verb)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments obs",
        description="Aggregate observability traces into phase breakdowns.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    report_p = sub.add_parser("report", help="per-phase time breakdown from traces")
    report_p.add_argument(
        "traces", nargs="*", metavar="TRACE.jsonl|DIR",
        help="trace files, or directories of trace-*.jsonl files "
             "(default: the traces under --dir)",
    )
    report_p.add_argument(
        "--dir", type=Path, default=None,
        help="trace directory (default: REPRO_OBS_DIR or .repro-obs)",
    )
    report_p.add_argument(
        "--metrics", dest="metrics", action="store_true", default=True,
        help="include the merged metrics section (default)",
    )
    report_p.add_argument(
        "--no-metrics", dest="metrics", action="store_false",
        help="suppress the metrics section",
    )
    return parser


def _format_metrics(merged: dict) -> str:
    lines = []
    if merged["counters"]:
        lines.append("counters:")
        for key in sorted(merged["counters"]):
            value = merged["counters"][key]
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"  {key} = {shown}")
    if merged["gauges"]:
        lines.append("gauges:")
        for key in sorted(merged["gauges"]):
            lines.append(f"  {key} = {merged['gauges'][key]}")
    if merged["histograms"]:
        lines.append("histograms:")
        for key in sorted(merged["histograms"]):
            h = merged["histograms"][key]
            mean = h["total"] / h["count"] if h["count"] else 0.0
            line = (
                f"  {key}: count={h['count']} mean={mean:.4g} "
                f"min={h['min']:.4g} max={h['max']:.4g}"
            )
            p50, p95, p99 = histogram_quantiles(h, (0.5, 0.95, 0.99))
            if p50 is not None:
                line += f" p50={p50:.4g} p95={p95:.4g} p99={p99:.4g}"
            lines.append(line)
    return "\n".join(lines) if lines else "(no metrics)"


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    # report
    targets = [Path(p) for p in args.traces] or [
        args.dir if args.dir is not None else _default_dir()
    ]
    paths = []
    for target in targets:
        if target.is_dir() or not args.traces:
            found = sorted(target.glob("trace-*.jsonl"))
            if not found:
                print(
                    f"no trace files under {target} "
                    "(run with REPRO_OBS=1, or pass trace files explicitly)",
                    file=sys.stderr,
                )
                return 2
            paths += found
        else:
            paths.append(target)
    try:
        spans, metrics_records = read_trace(paths)
    except (OSError, ValueError) as exc:
        print(f"obs report failed: {exc}", file=sys.stderr)
        return 2
    print(f"traces: {', '.join(str(p) for p in paths)}")
    print(format_breakdown(aggregate_spans(spans)))
    if args.metrics:
        print()
        print(_format_metrics(merge_metrics(metrics_records)))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
