"""What every workload shares: outcomes, checks, layer metrics, the batch runner.

A batch workload is a module with three functions:

* ``setup(seed, work_dir)`` builds the program's inputs (analog load or
  generation, attack construction) and returns a state object;
* ``rep(state, seed)`` is one timed repetition of the job and returns
  its outputs;
* ``check(state, output, checks)`` verifies one repetition's outputs,
  outside the timed region, and returns derived per-layer values.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

from benchkit.machine import cpu_seconds, peak_rss_mb
from benchkit.trace import Tracer

#: Timed laps (set-up plus repetition) every untraced run makes at
#: least, however short ``--seconds`` is; the metrics are their medians.
MIN_REPS = 5

#: Untraced laps of a traced run, against which the tracing overhead
#: is measured.
PLAIN_REPS = 3

#: Lap seeds reserved per run seed (see :func:`lap_seed`).
LAP_SEEDS = 1000

#: The engines' thread count: the machine has two cores.
WORKERS = 2

#: Every per-layer metric of a traced run, with its unit.  A workload
#: that bypasses a layer reports 0 for it.
LAYER_METRICS: dict[str, str] = {
    "sybil.gatekeeper_s": "s",
    "sybil.ticket_runs": "count",
    "sybil.ticket_run_s": "s",
    "markov.walks_s": "s",
    "markov.walk_steps_per_s": "1/s",
    "privacy.perturb_s": "s",
    "privacy.walks_per_s": "1/s",
    "mixing.slem_s": "s",
    "mixing.slem_matvecs": "count",
    "mixing.slem_abs_err": "1",
    "shard.loads": "count",
    "shard.spills": "count",
    "shard.peak_resident_bytes": "bytes",
    "markov.tvd_s": "s",
    "graph.bfs_s": "s",
    "expansion.envelope_s": "s",
    "cores.structure_s": "s",
    "datasets.load_s": "s",
    "datasets.stream_build_s": "s",
    "sybil.sybilframe_s": "s",
    "sybil.sybilfuse_s": "s",
    "sybil.bp_rounds": "count",
    "store.put_s": "s",
    "store.get_s": "s",
    "store.bytes_written": "bytes",
    "pipeline.warm_rerun_s": "s",
    "pipeline.overlap": "1",
    "chunking.chunks": "count",
    "chunking.busy_s": "s",
    "parallel.process_runs": "count",
    "serve.rank_p50_ms": "ms",
    "serve.rank_p99_ms": "ms",
    "serve.admission_p50_ms": "ms",
    "serve.admission_p99_ms": "ms",
    "serve.escape_p50_ms": "ms",
    "serve.escape_p99_ms": "ms",
    "serve.write_p50_ms": "ms",
    "serve.write_p99_ms": "ms",
    "serve.cold_builds": "count",
    "serve.cache_hit_ratio": "1",
    "serve.gatekeeper_runs_per_key": "1",
    "serve.compaction_pause_ms": "ms",
    "serve.http_overhead_ms": "ms",
    "serve.client_throughput_rps": "req/s",
    "serve.client_p50_ms": "ms",
    "serve.client_p99_ms": "ms",
    "serve.client_admission_p95_ms": "ms",
    "trace.overhead_s": "s",
}

#: End-to-end metrics of an untraced run, with their units.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

_WALK_FUNCTIONS = (
    "walk_block",
    "walk_endpoints",
    "walk_first_hits",
    "walk_visit_counts",
    "walk_cover_steps",
)


def layer_tracer() -> Tracer:
    """A tracer over the public entry point of every measured layer."""
    tracer = (
        Tracer()
        .time("sybil.gatekeeper", "repro.sybil.gatekeeper", "GateKeeper.run")
        .time("sybil.ticket_run", "repro.sybil.tickets", "TicketPlan.run")
        .time("privacy.perturb", "repro.privacy.perturb", "perturb_links")
        .time("mixing.slem", "repro.mixing.spectral", "slem")
        .time("mixing.slem", "repro.mixing.spectral", "power_iteration_slem")
        .count_within(
            "mixing.slem_matvecs",
            "repro.graph.shard",
            "ShardedGraph.iter_shards",
            within="mixing.slem",
        )
        .time("markov.tvd", "repro.markov.batch", "batched_tvd_profile")
        .time("graph.bfs", "repro.graph.bfs_batch", "bfs_level_sizes_block")
        .time("graph.bfs", "repro.graph.bfs_batch", "bfs_distances_block")
        .time("expansion.envelope", "repro.expansion.envelope", "envelope_expansion")
        .time("cores.structure", "repro.cores.statistics", "core_structure")
        .time("datasets.load", "repro.datasets.registry", "load_dataset")
        .time(
            "datasets.stream_build", "repro.datasets.streaming", "build_sharded_analog"
        )
        .time("sybil.sybilframe", "repro.sybil.fusion", "SybilFrame.run")
        .time("sybil.sybilfuse", "repro.sybil.fusion", "SybilFuse.run")
        .time("store.put", "repro.store", "ArtifactStore.put")
        .time("store.get", "repro.store", "ArtifactStore.get")
    )
    for name in _WALK_FUNCTIONS:
        tracer.time("markov.walks", "repro.markov.walk_batch", name)
    return tracer


def layer_metrics(tracer: Tracer, tel: Any, derived: dict[str, float]) -> dict:
    """Fold tracer timings, program counters and derived values into metrics.

    ``tel`` is the :class:`repro.telemetry.Telemetry` registry that was
    active during the traced repetition; only counters the program
    already emits are read from it.
    """
    counters = tel.counters
    gauges = tel.gauges
    walks_s = tracer.seconds["markov.walks"]
    perturb_s = tracer.seconds["privacy.perturb"]
    values = {
        "sybil.gatekeeper_s": tracer.seconds["sybil.gatekeeper"],
        "sybil.ticket_runs": tracer.calls["sybil.ticket_run"],
        "sybil.ticket_run_s": tracer.seconds["sybil.ticket_run"],
        "markov.walks_s": walks_s,
        "markov.walk_steps_per_s": (
            counters.get("markov.walk.steps", 0) / walks_s if walks_s else 0.0
        ),
        "privacy.perturb_s": perturb_s,
        "privacy.walks_per_s": (
            counters.get("privacy.perturb.walks", 0) / perturb_s if perturb_s else 0.0
        ),
        "mixing.slem_s": tracer.seconds["mixing.slem"],
        "mixing.slem_matvecs": tracer.calls["mixing.slem_matvecs"],
        "shard.loads": counters.get("shard.loads", 0),
        "shard.spills": counters.get("shard.spills", 0),
        "shard.peak_resident_bytes": gauges.get("shard.peak_resident_bytes", 0.0),
        "markov.tvd_s": tracer.seconds["markov.tvd"],
        "graph.bfs_s": tracer.seconds["graph.bfs"],
        "expansion.envelope_s": tracer.seconds["expansion.envelope"],
        "cores.structure_s": tracer.seconds["cores.structure"],
        "datasets.load_s": tracer.seconds["datasets.load"],
        "datasets.stream_build_s": tracer.seconds["datasets.stream_build"],
        "sybil.sybilframe_s": tracer.seconds["sybil.sybilframe"],
        "sybil.sybilfuse_s": tracer.seconds["sybil.sybilfuse"],
        "sybil.bp_rounds": counters.get("sybil.fusion.bp.rounds", 0),
        "store.put_s": tracer.seconds["store.put"],
        "store.get_s": tracer.seconds["store.get"],
        "chunking.chunks": counters.get("chunking.chunks", 0),
        "chunking.busy_s": counters.get("chunking.busy_seconds", 0.0),
        "parallel.process_runs": counters.get("parallel.process_runs", 0),
    }
    values.update(derived)
    unknown = set(values) - set(LAYER_METRICS)
    if unknown:
        raise KeyError(f"undeclared layer metrics: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in LAYER_METRICS.items()
    }


class Checks:
    """Named pass/fail output checks, each one attempted operation."""

    def __init__(self) -> None:
        self.items: list[dict] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def failed(self) -> int:
        return sum(1 for item in self.items if not item["ok"])


@dataclass
class Outcome:
    """What one run of one workload measured and verified."""

    metrics: dict[str, dict]
    attempted: int
    failed: int
    checks: list[dict]
    details: dict = field(default_factory=dict)


def end_to_end(setups: list[float], walls: list[float], cpus: list[float], rss: float) -> dict:
    """The end-to-end metric block from per-repetition measurements."""
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": rss,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def timed(fn, *args: Any) -> tuple[Any, float, float]:
    """Call ``fn(*args)``; return its result, wall seconds and CPU seconds."""
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start, cpu_seconds() - cpu0


def lap_seed(seed: int, index: int) -> int:
    """Seed of lap ``index`` (0 is the warm-up) of a run with seed ``seed``.

    Every lap draws its own inputs, so a run's median spans several
    draws instead of repeating one: a job's cost moves with its inputs
    by 10-25% (GateKeeper runs, loopy-BP rounds, a burst's cold builds).
    Runs of distinct seeds share no lap seed while a run makes fewer
    than ``LAP_SEEDS`` laps.
    """
    return seed * LAP_SEEDS + index


def repeat(seconds: float, lap: Callable[[int], None]) -> int:
    """Call ``lap(1)``, ``lap(2)``, ...; return how many laps ran.

    At least ``MIN_REPS`` laps run; after that another lap starts only
    if the median lap so far still fits in ``seconds``, so a run ends
    close to ``seconds`` instead of overshooting by a whole lap.
    """
    laps: list[float] = []
    start = time.perf_counter()
    while (
        len(laps) < MIN_REPS
        or time.perf_counter() - start + statistics.median(laps) <= seconds
    ):
        lap_start = time.perf_counter()
        lap(len(laps) + 1)
        laps.append(time.perf_counter() - lap_start)
    return len(laps)


def _timed_setup(workload: ModuleType, seed: int, work_dir: Path):
    gc.collect()
    return timed(workload.setup, seed, work_dir)


def _timed_rep(workload: ModuleType, state: Any, seed: int):
    """One timed repetition, started with no garbage left by the last one.

    Without the collection, handles and arrays of earlier repetitions
    that sit in reference cycles linger, and each repetition runs slower
    than the one before.
    """
    gc.collect()
    return timed(workload.rep, state, seed)


def run_batch(
    workload: ModuleType, seed: int, seconds: float, trace: bool, work_dir: Path
) -> Outcome:
    """Run a batch workload untraced (end-to-end) or traced (per layer).

    Both start with one untimed set-up and repetition (lap 0) that
    warms imports, caches and the allocator.  Untraced: laps of one
    set-up and one repetition on the lap's own inputs (see
    :func:`lap_seed`), each timed and the repetition checked after its
    timed region, for about ``seconds`` (see :func:`repeat`);
    the metrics are the medians over laps, and peak RSS is read after
    the first timed repetition, before any reference computation.
    Traced: ``PLAIN_REPS`` untraced laps, then one set-up and
    repetition under the layer tracer and the program's telemetry; the
    traced repetition's wall time minus the plain laps' median is the
    tracing overhead.
    """
    from repro import telemetry

    checks = Checks()
    warm = workload.setup(lap_seed(seed, 0), work_dir)
    workload.rep(warm, lap_seed(seed, 0))
    del warm
    setups: list[float] = []
    walls: list[float] = []
    cpus: list[float] = []
    rss: list[float] = []

    def lap(index: int) -> None:
        state, setup_wall, _ = _timed_setup(workload, lap_seed(seed, index), work_dir)
        output, wall, cpu = _timed_rep(workload, state, lap_seed(seed, index))
        if not rss:  # before any reference computation
            rss.append(peak_rss_mb())
        setups.append(setup_wall)
        walls.append(wall)
        cpus.append(cpu)
        workload.check(state, output, checks)

    if not trace:
        repeat(seconds, lap)
        metrics = end_to_end(setups, walls, cpus, rss[0])
        details = {"setups_s": setups, "walls_s": walls, "cpus_s": cpus}
    else:
        for index in range(1, PLAIN_REPS + 1):
            lap(index)
        plain_wall = statistics.median(walls)
        tracer = layer_tracer()
        tel = telemetry.Telemetry()
        with tracer, telemetry.activate(tel):
            traced_state = workload.setup(lap_seed(seed, 1), work_dir)
            output, traced_wall, _ = _timed_rep(workload, traced_state, lap_seed(seed, 1))
        derived = workload.check(traced_state, output, checks) or {}
        derived["trace.overhead_s"] = traced_wall - plain_wall
        metrics = layer_metrics(tracer, tel, derived)
        details = {
            "untraced_walls_s": walls,
            "traced_wall_s": traced_wall,
            "telemetry": tel.as_dict(),
        }
    return Outcome(
        metrics=metrics,
        attempted=len(checks.items),
        failed=checks.failed,
        checks=checks.items,
        details=details,
    )
