#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-csvgz --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.
Inputs are generated from ``--seed``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``).  Scratch data
goes to ``.bench_work/`` under the root, spans and the full result to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[workload["name"] for workload in spec["workloads"]],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec, argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({src})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    meta = provenance(args)

    import repro
    from workloads import WORKLOADS, Context, rss_mb
    from spans import SpanRecorder

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        work=work,
        spans=SpanRecorder(bool(args.trace)),
    )
    started = time.perf_counter()
    try:
        WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ctx.e2e["peak_rss_mb"] = rss_mb()
    ctx.e2e["worker_peak_rss_mb"] = statistics.median(ctx.worker_peaks)
    meta.update(ctx.info)
    meta["wall_s"] = time.perf_counter() - started
    meta["error_rate"] = ctx.checks.error_rate

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = ctx.layer if args.trace else ctx.e2e
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            if not args.trace:
                raise KeyError(f"workload did not measure {name}")
            print(f"metric {name}: not exercised by {args.workload}")
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": metric["unit"]}
        print(f"metric {name} = {value:.6g} {metric['unit']} "
              f"({metric['better']} is better)")

    for name, wall, seconds in ctx.timings:
        print(f"timed {name}: wall {wall:.4f} s, speed-corrected {seconds:.4f} s")
    for key, value in meta.items():
        print(f"provenance {key} = {value}")
    print(f"error_rate = {ctx.checks.error_rate:.6g} "
          f"({ctx.checks.failed} failed of {ctx.checks.attempted} operations)")
    results = ROOT / ".bench_work" / "results"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        ctx.spans.write(results / f"{stem}-spans.json")
        for name, value in sorted(ctx.spans.self_times().items()):
            print(f"self time {name} = {value:.6g} s")
    line = {
        "correct": ctx.checks.failed == 0,
        "attempted": ctx.checks.attempted,
        "failed": ctx.checks.failed,
        "metrics": metrics,
    }
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(
        json.dumps({**line, "provenance": meta, "all": {**ctx.e2e, **ctx.layer}},
                   indent=1) + "\n"
    )
    sys.stdout.flush()
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
