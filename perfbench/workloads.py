"""The three workloads, driving the public calls the CLI and daemon make.

Each workload function takes a :class:`Context` and fills its
``e2e`` (end-to-end metrics, untraced), ``layer`` (per-layer metrics,
from the traced run) and ``info`` (provenance) dictionaries.
"""

from __future__ import annotations

import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.dataset import StudyDataset
from repro.core.export import report_to_dict
from repro.core.figures import render_all
from repro.core.parallel import analyze_parallel
from repro.core.pipeline import StudyReport, WearableStudy
from repro.serve.service import AnalysisService, ServeConfig, ServiceNotReady

from checks import Checks, check_self_test, exact_diff, exact_digest
from maketrace import ROOT, pool_entry, simulate, trace_config
from openloop import percentile, run_open_loop
from spans import SpanRecorder
from speed import NOMINAL_S, Corrected, probe

HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"

#: ``analyze_parallel`` settings: shards as in the perf gate, one worker
#: per core of the 2-core reference box.
SHARDS = 4
WORKERS = 2

#: The batch workloads measure one unit per trace, on several traces
#: (pool entries seed, seed+1, ...) per run.  The 2-core reference box's
#: speed swings by a fifth over seconds and drifts over tens of seconds,
#: and interference only ever adds time, so a run reports the best of
#: its samples for each timed call.  ``--seconds`` sets the unit count,
#: one per UNIT_SECONDS (a unit takes 5-7 s there).
UNIT_SECONDS = 4.0

#: Set-up repetitions per run (the median is reported); lenient-bin sets
#: up once per unit.
PAPER_SETUPS = 5
SERVE_SETUPS = 3

#: serve-append: open-loop appends, due every SERVE_INTERVAL_S seconds.
SERVE_MIN_APPENDS = 100
SERVE_INTERVAL_S = 0.25
SERVE_CHECKPOINT_EVERY = 5
SERVE_WARM_FRACTION = 0.5
#: Oracle analyses of the small serve trace are short: repeat, take the best.
SERVE_ORACLE_REPEATS = 7

SIDE_ARTIFACTS = ("accounts.csv", "devices.csv", "metadata.json", "sectors.csv")


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    work: Path
    checks: Checks = field(default_factory=Checks)
    spans: SpanRecorder = field(default_factory=lambda: SpanRecorder(False))
    e2e: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    #: Highest pool-worker VmHWM of each untraced analyze_parallel call.
    worker_peaks: list = field(default_factory=list)
    #: (name, wall seconds, speed-corrected seconds) of every timed block.
    timings: list = field(default_factory=list)


@contextmanager
def timed(ctx: Context, name: str):
    """Time a block with speed correction and log both readings."""
    with Corrected() as timer:
        yield timer
    ctx.timings.append((name, timer.wall, timer.seconds))


# ------------------------------------------------------------------ helpers
def took(span) -> float:
    return span["end"] - span["start"]


def best_of(samples: list[dict], key: str) -> float:
    return min(sample[key] for sample in samples)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class ChildPeakRss:
    """Highest VmHWM among this process's children while the block runs.

    ``RUSAGE_CHILDREN`` would also hold the set-up children's peak, so
    the pool workers are sampled from ``/proc`` instead.
    """

    def __init__(self, period: float = 0.01) -> None:
        self.period = period
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def __enter__(self) -> "ChildPeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0

    def _poll(self) -> None:
        tasks = Path(f"/proc/{os.getpid()}/task")
        while True:
            for pid in _children(tasks):
                self.peak_kb = max(self.peak_kb, _hwm_kb(pid))
            if self._stop.wait(self.period):
                return


def _children(tasks: Path) -> list[str]:
    pids: list[str] = []
    for task in tasks.iterdir():
        try:
            pids.extend((task / "children").read_text().split())
        except OSError:
            continue
    return pids


def _hwm_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def setup_child(ctx: Context, kind: str, seed: int, base: Path) -> tuple[float, dict]:
    """Build a corrupted workload trace in a child; (seconds, info).

    The simulation seed comes from the pool, the fault seed is ``seed``.
    """
    sim_seed = pool_entry(kind, seed)["sim_seed"]
    with timed(ctx, f"setup {kind}") as timer:
        done = subprocess.run(
            [sys.executable, str(HERE / "maketrace.py"), kind, str(sim_seed),
             str(seed), str(base)],
            capture_output=True,
            text=True,
            timeout=170,
        )
    if done.returncode != 0:
        raise RuntimeError(f"trace set-up failed:\n{done.stderr}")
    info = json.loads(done.stdout.strip().splitlines()[-1])
    info["sim_seed"] = sim_seed
    ctx.timings.append((f"simulate {kind}", info["simulate_wall_s"], info["simulate_s"]))
    return timer.seconds, info


def note_traces(ctx: Context, infos: list[dict]) -> None:
    """Provenance of the traces a run measured: seeds and row counts."""
    for key in ("sim_seed", "proxy_rows", "mme_rows"):
        ctx.info[key] = [info[key] for info in infos]


def note_simnet(ctx: Context, infos: list[dict]) -> None:
    ctx.e2e["simulate_s"] = best_of(infos, "simulate_s")
    ctx.layer["simnet.generate_s"] = best_of(infos, "generate_s")
    ctx.layer["simnet.write_s"] = best_of(infos, "write_s")
    ctx.layer["simnet.rows_out"] = infos[0]["proxy_rows"] + infos[0]["mme_rows"]
    note_traces(ctx, infos)


# -------------------------------------------------------------- the paths
def batch_analyze(ctx: Context, spans, trace_dir: Path, *, lenient, fmt):
    """Load, analyse and render in one process.

    Returns the report, the corrected seconds and the rows the load kept.

    Traced, the cached properties are read one by one in ``_ANALYSES``
    order after ``attributed`` and ``sessions`` (what ``run_all`` does),
    so each panel's fold gets its own span.
    """
    with timed(ctx, "analyze") as timer, spans.span("analyze", path="batch"):
        with spans.span("dataset.load") as load:
            dataset = StudyDataset.load(trace_dir, lenient=lenient, format=fmt)
        study = WearableStudy(dataset)
        if spans.enabled:
            with spans.span("attribute") as attribute:
                attributed = study.attributed
            with spans.span("sessionize") as sessionize:
                sessions = study.sessions
            results = {}
            folds = {}
            for name in WearableStudy._ANALYSES:
                with spans.span(f"fold.{name}") as fold:
                    results[name] = getattr(study, name)
                folds[f"fold.{name}_s"] = took(fold)
            report = StudyReport(quarantine=study.quarantine, **results)
        else:
            report = study.run_all()
        with spans.span("render") as render:
            render_all(report)
    kept = len(dataset.proxy_records) + len(dataset.mme_records)
    if spans.enabled:
        quarantine = dataset.quarantine
        rows_in = sum(quarantine.rows_read.values()) if quarantine else kept
        ctx.layer.update(folds)
        ctx.layer.update(
            {
                "dataset.load_s": took(load),
                "dataset.rows_in": rows_in,
                "dataset.rows_kept": kept,
                "dataset.rows_quarantined": (
                    quarantine.total_quarantined if quarantine else 0
                ),
                "dataset.rows_per_s": rows_in / took(load),
                "attribute_s": took(attribute),
                "attribute.rows_in": len(dataset.wearable_proxy),
                "attribute.rows_attributed": sum(
                    1 for record in attributed if record.app is not None
                ),
                "sessionize_s": took(sessionize),
                "sessions_out": len(sessions),
                "encounters.events": report.encounters.n_events,
                "render_s": took(render),
            }
        )
    return report, timer.seconds, kept


def parallel_analyze(ctx: Context, spans, trace_dir: Path, *, lenient, fmt):
    """``analyze_parallel`` plus render; (report, corrected seconds)."""
    cpu_before = children_cpu_s()
    with timed(ctx, "parallel_analyze") as timer, ChildPeakRss() as workers, spans.span(
        "parallel", shards=SHARDS, workers=WORKERS
    ):
        started = time.perf_counter()
        with spans.span("parallel.analyze"):
            run = analyze_parallel(
                trace_dir,
                shards=SHARDS,
                workers=WORKERS,
                lenient=lenient,
                format=fmt,
            )
        analyzed = time.perf_counter()
        with spans.span("parallel.render"):
            render_all(run.report)
    if not spans.enabled:
        ctx.worker_peaks.append(workers.peak_mb)
    shard_s = [stats.elapsed_seconds for stats in run.shard_stats]
    resident = [stats.resident_records for stats in run.shard_stats]
    ctx.layer.update(
        {
            "parallel.shard_s.max": max(shard_s),
            "parallel.shard_s.mean": statistics.fmean(shard_s),
            "parallel.shard_skew": max(resident) / statistics.fmean(resident),
            "parallel.peak_resident_rows": run.peak_resident_records,
            "parallel.worker_cpu_s": children_cpu_s() - cpu_before,
            "parallel.outside_workers_s": analyzed - started - max(shard_s),
        }
    )
    return run.report, timer.seconds


def unit_count(ctx: Context) -> int:
    return max(2, round(ctx.seconds / UNIT_SECONDS))


def run_units(ctx: Context, unit) -> list[dict]:
    """Run ``unit(spans, i)`` untraced for each of the run's units.

    In a traced run unit 0 runs once more with spans on; the difference
    in wall time is the tracing overhead.
    """
    samples, walls = [], []
    for index in range(unit_count(ctx)):
        started = time.perf_counter()
        samples.append(unit(SpanRecorder(False), index))
        walls.append(time.perf_counter() - started)
    if ctx.trace:
        started = time.perf_counter()
        unit(ctx.spans, 0)
        ctx.layer["trace.overhead_s"] = time.perf_counter() - started - walls[0]
    return samples


def note_best(ctx: Context, samples: list[dict]) -> None:
    for key in ("simulate_s", "analyze_s", "parallel_analyze_s"):
        if key in samples[0]:
            ctx.e2e[key] = best_of(samples, key)


def note_batch_visibility(ctx: Context) -> None:
    """A batch user sees appended rows when a re-run analysis returns:
    the whole trace is one append, so p50 and p90 are that one wait."""
    ctx.e2e["visible_p50_s"] = ctx.e2e["analyze_s"]
    ctx.e2e["visible_p90_s"] = ctx.e2e["analyze_s"]


# ---------------------------------------------------------------- workloads
def paper_csvgz(ctx: Context) -> None:
    """simulate -> analyze -> figures as the CLI does, on csv.gz traces."""
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import repro.simnet.engine, repro.core.pipeline, "
        "repro.core.figures, repro.core.parallel"
    )
    walls = []
    for _ in range(PAPER_SETUPS):
        with timed(ctx, "setup imports") as timer:
            subprocess.run([sys.executable, "-c", probe], check=True, timeout=120)
        walls.append(timer.seconds)
    ctx.e2e["setup_s"] = statistics.median(walls)
    base = ctx.work / "paper"

    def unit(spans, index: int) -> dict:
        pin = pool_entry("paper-csvgz", ctx.seed + index)
        config = trace_config("paper-csvgz", pin["sim_seed"])
        shutil.rmtree(base, ignore_errors=True)
        trace_dir = base / "trace"
        with spans.span("simulate"):
            sim = simulate(config, trace_dir, "csv.gz", base / "spool", spans)
        ctx.timings.append(("simulate", sim["simulate_wall_s"], sim["simulate_s"]))
        ctx.checks.op()
        parallel, parallel_s = parallel_analyze(
            ctx, spans, trace_dir, lenient=False, fmt="auto"
        )
        ctx.checks.op()
        batch, batch_s, kept = batch_analyze(
            ctx, spans, trace_dir, lenient=False, fmt="auto"
        )
        ctx.checks.op()
        rows = sim["proxy_rows"] + sim["mme_rows"]
        ctx.checks.check(
            "strict load keeps every exported row",
            kept == rows,
            f"{kept} != {rows}",
        )
        diff = exact_diff(parallel, batch)
        ctx.checks.check("parallel == batch (exact tier)", not diff, str(diff))
        digest = exact_digest(batch)
        ctx.checks.check(
            "exact-tier digest matches pin",
            digest == pin["exact_digest"],
            f"{digest} != {pin['exact_digest']}",
        )
        ctx.checks.check(
            "row counts match pin",
            (sim["proxy_rows"], sim["mme_rows"])
            == (pin["proxy_rows"], pin["mme_rows"]),
        )
        check_self_test(ctx.checks, batch, exact_diff)
        if spans.enabled:
            ctx.layer["simnet.generate_s"] = sim["generate_s"]
            ctx.layer["simnet.write_s"] = sim["write_s"]
            ctx.layer["simnet.rows_out"] = rows
        print(f"parallel/batch wall ratio: {parallel_s / batch_s:.3f} "
              f"(base: batch {batch_s:.3f} s)")
        return {
            **sim,
            "sim_seed": pin["sim_seed"],
            "analyze_s": batch_s,
            "parallel_analyze_s": parallel_s,
        }

    samples = run_units(ctx, unit)
    note_best(ctx, samples)
    note_traces(ctx, samples)
    note_batch_visibility(ctx)


def lenient_bin(ctx: Context) -> None:
    """Chaos-corrupted .bin traces, each analysed by parallel and batch."""
    walls, infos = [], []
    for index in range(unit_count(ctx)):
        wall, info = setup_child(
            ctx, "lenient-bin", ctx.seed + index, ctx.work / f"lenient{index}"
        )
        walls.append(wall)
        infos.append(info)
    ctx.e2e["setup_s"] = statistics.median(walls)
    note_simnet(ctx, infos)

    def unit(spans, index: int) -> dict:
        trace_dir = ctx.work / f"lenient{index}" / "trace"
        # Parallel first: the forked workers then inherit no batch heap.
        parallel, parallel_s = parallel_analyze(
            ctx, spans, trace_dir, lenient=True, fmt="bin"
        )
        ctx.checks.op()
        batch, batch_s, _ = batch_analyze(
            ctx, spans, trace_dir, lenient=True, fmt="bin"
        )
        ctx.checks.op()
        diff = exact_diff(parallel, batch)
        ctx.checks.check("parallel == batch (exact tier)", not diff, str(diff))
        ctx.checks.check(
            "parallel quarantine == batch quarantine",
            parallel.quarantine.to_dict() == batch.quarantine.to_dict(),
        )
        check_self_test(ctx.checks, batch, exact_diff)
        print(f"parallel/batch wall ratio: {parallel_s / batch_s:.3f} "
              f"(base: batch {batch_s:.3f} s)")
        return {"analyze_s": batch_s, "parallel_analyze_s": parallel_s}

    note_best(ctx, run_units(ctx, unit))
    note_batch_visibility(ctx)


class Feeder:
    """A growing copy of a finished plain-CSV trace.

    The copy starts with the side artefacts and a warm prefix of each
    log's rows; :meth:`append` adds the ``index``-th of ``count`` equal
    row slices of the rest.  Slices end on line boundaries.
    """

    def __init__(self, full: Path, grow: Path, count: int, warm: float):
        grow.mkdir(parents=True)
        for name in SIDE_ARTIFACTS:
            shutil.copyfile(full / name, grow / name)
        self.grow = grow
        self.slices: dict[str, list[bytes]] = {}
        for stem in ("proxy", "mme"):
            lines = io.BytesIO((full / f"{stem}.csv").read_bytes()).readlines()
            cut = 1 + int((len(lines) - 1) * warm)
            (grow / f"{stem}.csv").write_bytes(b"".join(lines[:cut]))
            rest = lines[cut:]
            bounds = [len(rest) * i // count for i in range(count + 1)]
            self.slices[stem] = [
                b"".join(rest[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
            ]

    def append(self, index: int) -> None:
        for stem, slices in self.slices.items():
            with (self.grow / f"{stem}.csv").open("ab") as handle:
                handle.write(slices[index])


@dataclass
class ServeSetup:
    base: Path
    feeder: Feeder
    service: AnalysisService
    config: ServeConfig


def serve_setup(ctx: Context, base: Path, count: int) -> tuple[float, dict, ServeSetup]:
    """Build the trace, then a service that has ingested the warm prefix."""
    with timed(ctx, "setup serve") as timer:
        _, info = setup_child(ctx, "serve-append", ctx.seed, base)
        setup = warm_service(base, count)
    return timer.seconds, info, setup


def warm_service(base: Path, count: int) -> ServeSetup:
    feeder = Feeder(base / "trace", base / "grow", count, SERVE_WARM_FRACTION)
    config = ServeConfig(
        trace_dir=base / "grow",
        shards=SHARDS,
        lenient=True,
        checkpoint_dir=base / "checkpoints",
    )
    service = AnalysisService(config)
    while service.ingest_once():
        pass
    service.report_resource()
    return ServeSetup(base, feeder, service, config)


def serve_loop(ctx: Context, setup: ServeSetup, count: int, spans) -> dict:
    """The open loop over one warm service; mirrors ``AnalysisService.run``."""
    service = setup.service
    pending: list[int] = []
    state = {"appended": 0, "busy_s": 0.0, "rows": 0, "probes": []}

    def idle(seconds: float) -> None:
        # Probe the host's speed while waiting, if it ends well in time.
        if seconds > 0.08:
            state["probes"].append(probe(repeats=3))

    def caught_up(generation: int) -> bool:
        return generation == service.generation and all(
            tailer.path is not None
            and tailer.offset == tailer.path.stat().st_size
            for tailer in service.tailers.values()
        )

    def step(batch: list[int]) -> list[int]:
        started = time.perf_counter()
        for index in batch:
            setup.feeder.append(index)
        pending.extend(batch)
        with spans.span("serve.ingest"):
            state["rows"] += service.ingest_once()
        before = state["appended"]
        state["appended"] += len(batch)
        every = SERVE_CHECKPOINT_EVERY
        if state["appended"] // every > before // every:
            with spans.span("serve.checkpoint"):
                service.checkpoint(force=True)
        shown: list[int] = []
        try:
            if spans.enabled:
                with spans.span("serve.finalize"):
                    service.report()
            with spans.span("serve.render"):
                generation, _ = service.report_resource()
            if caught_up(generation):
                shown, pending[:] = list(pending), []
        except ServiceNotReady as exc:
            print(f"note: report not ready: {exc}", file=sys.stderr)
        state["busy_s"] += time.perf_counter() - started
        return shown

    state["result"] = run_open_loop(count, SERVE_INTERVAL_S, step, idle=idle)
    service.checkpoint(force=True)
    return state


def serve_append(ctx: Context) -> None:
    """Live tailing of a chaos-corrupted plain CSV trace, open loop."""
    count = max(SERVE_MIN_APPENDS, round(ctx.seconds / SERVE_INTERVAL_S))
    walls, infos, setups = [], [], []
    for i in range(SERVE_SETUPS):
        wall, info, setup = serve_setup(ctx, ctx.work / f"serve{i}", count)
        walls.append(wall)
        infos.append(info)
        setups.append(setup)
    ctx.e2e["setup_s"] = statistics.median(walls)
    note_simnet(ctx, infos)
    live = setups[0]

    loop = serve_loop(ctx, live, count, SpanRecorder(False))
    result = loop["result"]
    for index in range(count):
        ctx.checks.op(result.latency[index] is not None)
    visible = result.visible
    if not visible:
        raise RuntimeError("no append ever became visible")
    # The loop's latencies are wall time from due times; they are scaled
    # by the speed the idle-time probes saw over the loop.
    speed = NOMINAL_S / statistics.median(loop["probes"])
    for name, value in (
        ("visible_p50_s", statistics.median(visible)),
        ("visible_p90_s", percentile(visible, 0.9)),
    ):
        ctx.e2e[name] = value * speed
        ctx.timings.append((name, value, value * speed))
    print(
        f"open loop: {count} appends every {SERVE_INTERVAL_S} s, "
        f"{result.invisible} never visible, generator late by at most "
        f"{max(result.lateness):.4f} s, backlog at most {max(result.backlog)}, "
        f"{len(loop['probes'])} speed probes while idle"
    )
    checked = [live]
    if ctx.trace:
        traced = serve_loop(ctx, setups[1], count, ctx.spans)
        checked.append(setups[1])
        durations = ctx.spans.durations()
        ctx.layer.update(
            {
                "serve.ingest_s": statistics.median(durations["serve.ingest"]),
                "serve.ingest_rows": traced["rows"],
                "serve.finalize_s": statistics.median(
                    durations["serve.finalize"]
                ),
                "serve.render_s": statistics.median(durations["serve.render"]),
                "serve.checkpoint_s": statistics.median(
                    durations["serve.checkpoint"]
                ),
                "serve.gen_late_max_s": max(traced["result"].lateness),
                "trace.overhead_s": traced["busy_s"] - loop["busy_s"],
            }
        )
        checkpoints = sorted(
            (setups[1].base / "checkpoints").glob("checkpoint-*.json")
        )
        ctx.layer["serve.checkpoint_bytes"] = checkpoints[-1].stat().st_size

    full = live.base / "trace"
    batch_s, parallel_s = [], []
    for repeat in range(SERVE_ORACLE_REPEATS + ctx.trace):
        spans = ctx.spans if repeat == SERVE_ORACLE_REPEATS else SpanRecorder(False)
        parallel, seconds = parallel_analyze(
            ctx, spans, full, lenient=True, fmt="csv"
        )
        parallel_s.append(seconds)
        batch, seconds, _ = batch_analyze(
            ctx, spans, full, lenient=True, fmt="csv"
        )
        batch_s.append(seconds)
        ctx.checks.op()
        ctx.checks.op()
    ctx.e2e["analyze_s"] = min(batch_s[:SERVE_ORACLE_REPEATS])
    ctx.e2e["parallel_analyze_s"] = min(parallel_s[:SERVE_ORACLE_REPEATS])

    for setup in checked:
        _, report = setup.service.report()
        diff = exact_diff(report, batch)
        ctx.checks.check("serve == batch lenient (exact tier)", not diff, str(diff))
        ctx.checks.check(
            "serve quarantine == batch quarantine",
            report.quarantine.to_dict() == batch.quarantine.to_dict(),
        )
        ctx.checks.check(
            "serve == parallel lenient (whole report)",
            report_to_dict(report) == report_to_dict(parallel),
        )
    live_report = report_to_dict(live.service.report()[1])
    restored = AnalysisService(live.config)
    started = time.perf_counter()
    found = restored.restore()
    restore_s = time.perf_counter() - started
    ctx.checks.check(
        "restored service == live service",
        found and report_to_dict(restored.report()[1]) == live_report,
    )
    if ctx.trace:
        ctx.layer["serve.restore_s"] = restore_s
        ctx.layer["serve.rows_quarantined"] = (
            setups[1].service.collector.report().total_quarantined
        )
    check_self_test(ctx.checks, live.service.report()[1], exact_diff)


WORKLOADS = {
    "paper-csvgz": paper_csvgz,
    "lenient-bin": lenient_bin,
    "serve-append": serve_append,
}
