#!/usr/bin/env python3
"""Rebuild ``perfbench/pins.json``: the seed pools and their pinned outputs.

    python3 perfbench/pin.py

How long a run takes follows the trace's row count, and the simulator's
heavy-tailed users make that count vary by half between seeds.  So each
trace kind draws its simulation seed from a pool: the ``POOL`` candidate
seeds whose row counts lie closest to the median over all candidates.
Seeds on which the
pipeline refuses the trace (``ValueError``) are left out and listed
under ``excluded``.  ``run.py --seed n`` uses pool entry ``n % POOL``.
For the batch pool the digest of the exact-tier report fields,
computed in memory (no export, no decode), is pinned with the row
counts; serve seeds must also analyse on their first half, the warm
prefix.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.core.dataset import StudyDataset  # noqa: E402
from repro.core.pipeline import WearableStudy  # noqa: E402
from repro.simnet.engine import ShardedSimulationEngine  # noqa: E402

from checks import exact_digest  # noqa: E402
from maketrace import trace_config  # noqa: E402

POOL = 16
#: Candidate simulation seeds screened per trace kind.
CANDIDATES = {"serve-append": 200, "batch": 80}


def row_counts(kind: str, seed: int, spool: Path) -> tuple[int, int]:
    engine = ShardedSimulationEngine(trace_config(kind, seed), shards=1, workers=1)
    try:
        with engine.run_streaming(spool_dir=spool) as run:
            return run.proxy_count, run.mme_count
    finally:
        shutil.rmtree(spool, ignore_errors=True)


def report_of(kind: str, seed: int, prefix: float = 1.0):
    """The in-memory report of a seed's trace, or of a row-count prefix."""
    output = ShardedSimulationEngine(trace_config(kind, seed), shards=1, workers=1).run()
    dataset = StudyDataset.from_simulation(output)
    dataset.proxy_records = dataset.proxy_records[: int(len(dataset.proxy_records) * prefix)]
    dataset.mme_records = dataset.mme_records[: int(len(dataset.mme_records) * prefix)]
    return WearableStudy(dataset).run_all()


def pin(kind: str, entry: dict) -> None:
    """Pin the digest (batch) or check the warm prefix analyses (serve).

    Raises ``ValueError`` when the pipeline refuses the trace (e.g. a
    population without both detected and undetected through-device
    users), which makes the seed unusable for a workload.
    """
    if kind == "batch":
        entry["exact_digest"] = exact_digest(report_of(kind, entry["sim_seed"]))
    else:
        report_of(kind, entry["sim_seed"])
        report_of(kind, entry["sim_seed"], prefix=0.5)


def pool_for(kind: str, candidates: int, spool: Path) -> dict:
    counts = {}
    for seed in range(1, candidates + 1):
        counts[seed] = row_counts(kind, seed, spool)
        print(kind, seed, counts[seed], file=sys.stderr, flush=True)
    middle = statistics.median(sum(pair) for pair in counts.values())

    def deviation(seed: int) -> float:
        return abs(sum(counts[seed]) - middle) / middle

    pool, excluded = [], {}
    for seed in sorted(counts, key=deviation):
        if len(pool) == POOL:
            break
        entry = {"sim_seed": seed, "proxy_rows": counts[seed][0], "mme_rows": counts[seed][1]}
        try:
            pin(kind, entry)
        except ValueError as exc:
            excluded[str(seed)] = str(exc)
            continue
        print("pinned", kind, entry, file=sys.stderr, flush=True)
        pool.append(entry)
    return {
        "candidates": candidates,
        "median_rows": middle,
        "max_deviation": max(deviation(entry["sim_seed"]) for entry in pool),
        "excluded": excluded,
        "pool": sorted(pool, key=lambda entry: entry["sim_seed"]),
    }


def main() -> None:
    spool = HERE.parent / ".bench_work" / "pin-spool"
    pins = {
        kind: pool_for(kind, candidates, spool)
        for kind, candidates in CANDIDATES.items()
    }
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
