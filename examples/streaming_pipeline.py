#!/usr/bin/env python3
"""Streaming scenario: analyse a trace too large to load into memory.

A real seven-week national proxy log doesn't fit in RAM.  This example
shows the bounded-memory path:

1. export a trace to disk (stand-in for the operator's log store);
2. load it back one account shard at a time and fold each shard into
   the map-reduce partials — ``AdoptionPartial`` and ``ActivityPartial``
   — so at most one shard's records are resident;
3. finalize the partials and compare against the batch pipeline to
   show they agree.

Run with::

    python examples/streaming_pipeline.py [--seed N] [--shards N]
"""

from __future__ import annotations

import argparse
import resource
import tempfile
import time
from pathlib import Path

from repro import SimulationConfig, Simulator, StudyDataset, WearableStudy
from repro.core.dataset import TraceArtifacts
from repro.core.parallel import ActivityPartial, AdoptionPartial
from repro.core.report import format_table


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--shards", type=int, default=8)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    trace_dir = Path(tempfile.mkdtemp(prefix="wearables-stream-"))

    print(f"Exporting a trace to {trace_dir} ...")
    output = Simulator(SimulationConfig.medium(seed=args.seed)).run()
    output.write(trace_dir)
    n_records = len(output.proxy_records) + len(output.mme_records)
    print(f"  {n_records:,} records on disk")

    # --- shard-at-a-time side: never materialise the whole logs ---------
    window = TraceArtifacts.load(trace_dir).window
    print(f"Folding {args.shards} account shards into partials ...")
    started = time.time()
    adoption = AdoptionPartial(total_days=window.total_days)
    activity = ActivityPartial.create(args.seed, 0)
    peak_rows = 0
    for shard in range(args.shards):
        part = StudyDataset.load(trace_dir, shard=shard, shards=args.shards)
        peak_rows = max(
            peak_rows, len(part.proxy_records) + len(part.mme_records)
        )
        # Both partials are split-safe per-record folds, so consuming
        # shard after shard equals one pass over the whole trace.
        adoption.consume(part)
        activity.consume(part)
    streamed_adoption = adoption.finalize(window)
    streamed_activity = activity.finalize(window)
    stream_seconds = time.time() - started
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # --- batch side for comparison --------------------------------------
    study = WearableStudy(StudyDataset.from_simulation(output))
    batch_adoption = study.adoption
    batch_activity = study.activity

    print()
    print(
        format_table(
            ("metric", "sharded", "batch"),
            [
                (
                    "growth %/month",
                    f"{streamed_adoption.monthly_growth_percent:.2f}",
                    f"{batch_adoption.monthly_growth_percent:.2f}",
                ),
                (
                    "data-active fraction",
                    f"{streamed_adoption.data_active_fraction:.3f}",
                    f"{batch_adoption.data_active_fraction:.3f}",
                ),
                (
                    "mean tx bytes",
                    f"{streamed_activity.mean_tx_bytes:.0f}",
                    f"{batch_activity.mean_tx_bytes:.0f}",
                ),
                (
                    "median tx bytes",
                    f"{streamed_activity.median_tx_bytes:.0f} (P²)",
                    f"{batch_activity.median_tx_bytes:.0f}",
                ),
                (
                    "p90 tx bytes",
                    f"{streamed_activity.transaction_sizes.quantile(0.9):.0f}"
                    " (reservoir)",
                    f"{batch_activity.transaction_sizes.quantile(0.9):.0f}",
                ),
                (
                    "active days/week",
                    f"{streamed_activity.mean_active_days_per_week:.2f}",
                    f"{batch_activity.mean_active_days_per_week:.2f}",
                ),
            ],
            title="Sharded partials vs batch results",
        )
    )
    print(
        f"\nSharded pass: {stream_seconds:.1f}s, at most {peak_rows:,} of "
        f"{n_records:,} records resident, process peak RSS {rss_mb:.0f} MB"
        " — counts and means are exact; quantiles are estimates"
        " (P² / reservoir) within a few percent."
    )


if __name__ == "__main__":
    main()
