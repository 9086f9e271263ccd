"""Workload traces: simulate with the engine, export, and corrupt.

``simulate`` is the timed reproduction step of ``paper-csvgz``.  For the
other workloads the whole trace build is set-up, and runs in a child
process so that its memory shows neither in the workload process's
peak RSS nor in the pool workers that process forks::

    python3 perfbench/maketrace.py {lenient-bin|serve-append} SIM_SEED CHAOS_SEED OUT

writes the trace to ``OUT/trace`` and prints one JSON line with the
simulate timings and the trace's row counts.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from speed import Corrected

ROOT = Path(__file__).resolve().parent.parent

#: Fault rate per row and class for the corrupted workloads.
CHAOS_RATE = 0.01
#: Simulations per set-up: the tiny serve trace simulates in a fraction
#: of a second, so its simulate time is the best of several.
SIM_REPEATS = {"lenient-bin": 1, "serve-append": 5}


def trace_config(kind: str, seed: int):
    """The simulation settings of a workload's traces.

    The batch workloads use the medium preset's population and cell plan
    over a three-week window (one detailed week): about 80k rows, so a
    run measures several traces.  ``serve-append`` is far below
    ``small``, so that today's finalize replay keeps up with the append
    schedule.
    """
    from repro.simnet.config import SimulationConfig

    if kind == "serve-append":
        return dataclasses.replace(
            SimulationConfig.small(seed=seed),
            n_wearable_users=30,
            n_general_users=20,
            total_days=14,
            detailed_days=10,
        )
    return dataclasses.replace(
        SimulationConfig.medium(seed=seed), total_days=21, detailed_days=7
    )


def simulate(config, out: Path, fmt: str, spool: Path, spans=None) -> dict:
    """Engine generation (shards=1, workers=1) plus export, as the CLI.

    ``simulate_s`` is speed-corrected (see ``speed.py``), the layer
    times are wall seconds.
    """
    from repro.simnet.engine import ShardedSimulationEngine

    def span(name):
        return spans.span(name) if spans is not None else nullcontext()

    engine = ShardedSimulationEngine(config, shards=1, workers=1)
    try:
        with Corrected() as timer:
            started = time.perf_counter()
            with span("simnet.generate"):
                run = engine.run_streaming(spool_dir=spool)
            generated = time.perf_counter()
            with span("simnet.write"):
                run.write(out, format=fmt)
            done = time.perf_counter()
        proxy_rows, mme_rows = run.proxy_count, run.mme_count
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    return {
        "simulate_s": timer.seconds,
        "simulate_wall_s": timer.wall,
        "generate_s": generated - started,
        "write_s": done - generated,
        "proxy_rows": proxy_rows,
        "mme_rows": mme_rows,
    }


def pool_entry(kind: str, seed: int) -> dict:
    """The workload seed's entry in the trace kind's seed pool (pins.json)."""
    pins = json.loads((Path(__file__).resolve().parent / "pins.json").read_text())
    pool = pins["serve-append" if kind == "serve-append" else "batch"]["pool"]
    return pool[seed % len(pool)]


def corrupted_trace(kind: str, sim_seed: int, chaos_seed: int, base: Path) -> dict:
    """Build ``base/trace``: the simulated trace with chaos faults and
    no truncated tail (a torn tail is accounted differently by the
    tailer and the batch reader)."""
    from repro.logs.faults import FaultSpec, corrupt_trace

    fmt = "bin" if kind == "lenient-bin" else "csv"
    shutil.rmtree(base, ignore_errors=True)
    clean = base / "clean"
    runs = [
        simulate(trace_config(kind, sim_seed), clean, fmt, base / "spool")
        for _ in range(SIM_REPEATS[kind])
    ]
    info = {
        key: min(run[key] for run in runs) for key in runs[0]
    }
    spec = dataclasses.replace(
        FaultSpec.chaos(seed=chaos_seed, rate=CHAOS_RATE), truncate_fraction=0.0
    )
    started = time.perf_counter()
    injected = corrupt_trace(clean, base / "trace", spec)
    info["corrupt_s"] = time.perf_counter() - started
    info["faults_injected"] = sum(injected.counts.values())
    shutil.rmtree(clean)
    return info


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    kind, sim_seed, chaos_seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    print(json.dumps(corrupted_trace(kind, sim_seed, chaos_seed, Path(sys.argv[4]))))
