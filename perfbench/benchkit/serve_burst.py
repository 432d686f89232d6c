"""serve_burst: a closed-loop HTTP burst against ``repro serve``.

The admission service on ``wiki_vote`` at scale 0.1 under the standard
attack, compacting every 80 overlay edges, is served by ``repro serve``
in a child process.  Two client threads in this process drive it
closed-loop with the load generator's op mix: 600 requests, 25%
writes.  This is the only workload where writes and reads share a
layer: a write-triggered compaction drops the warm caches, and the next
admission query of each of the load generator's 8 controllers pays a
cold GateKeeper build.  Cold builds take most of a burst's time, so its
cost follows the number of compactions: a burst of 600 requests adds
about 120 overlay edges, which makes exactly one compaction every 80
edges for nearly every request stream.  A burst takes about 2.5 s on
two cores, so one run holds several.

The traced run replays the same request stream in process, against a
service built as the server builds it, to time the service's public
methods and count its GateKeeper runs.
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from benchkit.common import (
    Checks,
    Outcome,
    end_to_end,
    lap_seed,
    layer_metrics,
    layer_tracer,
    repeat,
    timed,
)
from benchkit.machine import child_cpu_seconds, child_peak_rss_mb, cpu_seconds
from benchkit.stats import nearest_rank, tail_percentile
from repro import telemetry
from repro.datasets import registry
from repro.errors import ServeError
from repro.markov.transition import clear_operator_cache
from repro.serve import (
    AdmissionService,
    CompactionPolicy,
    HttpClient,
    InProcessClient,
    LoadConfig,
    ServiceConfig,
    run_load,
)
from repro.sybil.harness import standard_attack

TARGET = "wiki_vote"
SCALE = 0.1
COMPACT_EVERY = 80
CLIENTS = 2
REQUESTS = 600
WRITE_FRACTION = 0.25
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 20.0
_WRITES = ("add_edge", "remove_edge", "add_node")

_CACHED_LOADER = registry.load_dataset


class Recorder:
    """Client proxy that times every call and tallies the writes applied.

    Transport failures become :class:`ServeError`, which the load
    generator counts as failed requests.
    """

    def __init__(self, client: Any) -> None:
        self._client = client
        self._lock = threading.Lock()
        self.transport = client.transport
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.applied = {op: 0 for op in _WRITES}

    @property
    def num_nodes(self) -> int:
        return self._client.num_nodes

    def _call(self, op: str, fn: Callable, *args: Any) -> Any:
        start = time.perf_counter()
        try:
            result = fn(*args)
        except (OSError, urllib.error.URLError) as exc:
            raise ServeError(f"{op} failed: {exc}") from exc
        elapsed = time.perf_counter() - start
        with self._lock:
            self.samples[op].append(elapsed)
            if op in _WRITES and result is not False:
                self.applied[op] += 1
        return result

    def rank(self, node: int) -> Any:
        return self._call("rank", self._client.rank, node)

    def admission(self, node: int, controller: int = 0) -> Any:
        return self._call("admission", self._client.admission, node, controller)

    def escape(self) -> Any:
        return self._call("escape", self._client.escape)

    def stats(self) -> Any:
        return self._call("stats", self._client.stats)

    def add_edge(self, u: int, v: int) -> bool:
        return self._call("add_edge", self._client.add_edge, u, v)

    def remove_edge(self, u: int, v: int) -> bool:
        return self._call("remove_edge", self._client.remove_edge, u, v)

    def add_node(self) -> int:
        return self._call("add_node", self._client.add_node)

    def pooled(self, ops: tuple[str, ...] | None = None) -> list[float]:
        """Latency samples of ``ops`` (every op when ``None``)."""
        return [
            s for op, values in self.samples.items()
            if ops is None or op in ops for s in values
        ]


class ServerProcess:
    """``repro serve`` in a child process, from spawn to its first reply."""

    def __init__(self, root: Path, seed: int, log: Path) -> None:
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env["PYTHONUNBUFFERED"] = "1"
        command = [
            sys.executable, "-m", "repro", "serve",
            "--target", TARGET, "--scale", str(SCALE), "--seed", str(seed),
            "--compact-max-overlay", str(COMPACT_EVERY),
        ]
        start = time.perf_counter()
        with open(log, "w") as out:
            self.proc = subprocess.Popen(
                command, cwd=root, env=env, stdout=out, stderr=subprocess.STDOUT
            )
        try:
            self.url = self._await_url(log, start)
            self._await_reply(start)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def _await_url(self, log: Path, start: float) -> str:
        while time.perf_counter() - start < READY_TIMEOUT_S:
            match = re.search(r" at (http://\S+)", log.read_text())
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited early:\n{log.read_text()}")
            time.sleep(0.01)
        raise TimeoutError("repro serve printed no URL")

    def _await_reply(self, start: float) -> None:
        while time.perf_counter() - start < READY_TIMEOUT_S:
            try:
                with urllib.request.urlopen(self.url + "/healthz", timeout=10) as reply:
                    reply.read()
                return
            except OSError:
                time.sleep(0.01)
        raise TimeoutError("repro serve never answered /healthz")

    def stop(self) -> None:
        """Interrupt the server and wait for it; kill it if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _load_config(seed: int) -> LoadConfig:
    return LoadConfig(
        num_clients=CLIENTS, num_requests=REQUESTS,
        write_fraction=WRITE_FRACTION, seed=seed,
    )


def _burst(client: Any, seed: int) -> tuple[Recorder, Any]:
    recorder = Recorder(client)
    return recorder, run_load(recorder, _load_config(seed), target=TARGET)


def _expect_counts(checks: Checks, label: str, before: dict, after: dict, recorder: Recorder) -> None:
    """Final node and edge counts equal the initial ones plus the writes applied."""
    applied = recorder.applied
    nodes = before["num_nodes"] + applied["add_node"]
    edges = before["num_edges"] + applied["add_edge"] - applied["remove_edge"]
    checks.expect(
        f"{label}: final counts match the writes applied",
        after["num_nodes"] == nodes and after["num_edges"] == edges,
        f"nodes {after['num_nodes']} (expect {nodes}), "
        f"edges {after['num_edges']} (expect {edges})",
    )


def _client_summary(recorder: Recorder, report: Any) -> dict:
    everything = recorder.pooled()
    admissions = recorder.pooled(("admission",))
    p99, p99_at = tail_percentile(everything, 99)
    p95, p95_at = tail_percentile(admissions, 95)
    return {
        "requests": report.total_requests,
        "errors": report.errors,
        "wall_s": report.duration_seconds,
        "throughput_rps": report.total_requests / report.duration_seconds,
        "p50_ms": 1e3 * nearest_rank(everything, 50),
        "p99_ms": 1e3 * p99,
        "p99_percentile": p99_at,
        "admission_p95_ms": 1e3 * p95,
        "admission_p95_percentile": p95_at,
        "admission_samples": len(admissions),
        "error_rate": report.errors / (report.total_requests + report.errors),
    }


def _http_burst(server: ServerProcess, seed: int, checks: Checks) -> dict:
    client = HttpClient(server.url)
    before = client.stats()
    cpu0 = cpu_seconds() + child_cpu_seconds(server.proc.pid)
    recorder, report = _burst(client, seed)
    cpu = cpu_seconds() + child_cpu_seconds(server.proc.pid) - cpu0
    rss = child_peak_rss_mb(server.proc.pid)
    _expect_counts(checks, "http", before, client.stats(), recorder)
    summary = _client_summary(recorder, report)
    summary.update(cpu_s=cpu, peak_rss_mb=rss)
    return summary


def build_service(seed: int) -> AdmissionService:
    """The service ``repro serve`` builds for this workload's arguments."""
    _CACHED_LOADER.cache_clear()
    honest = registry.load_dataset(TARGET, scale=SCALE)  # the CLI's default seed
    attack = standard_attack(honest, max(5, honest.num_nodes // 20), seed=seed)
    return AdmissionService(
        attack.graph,
        num_honest=attack.num_honest,
        config=ServiceConfig(seed=seed),
        policy=CompactionPolicy(max_overlay_edges=COMPACT_EVERY),
    )


def _replay(seed: int, checks: Checks, label: str) -> tuple[AdmissionService, Recorder, float]:
    clear_operator_cache()
    service = build_service(seed)
    before = service.stats().__dict__
    (recorder, report), wall, _ = timed(_burst, InProcessClient(service), seed)
    checks.expect(f"{label}: no request failed", report.errors == 0, f"{report.errors} errors")
    _expect_counts(checks, label, before, service.stats().__dict__, recorder)
    return service, recorder, wall


def _percentiles(recorder: Recorder, name: str, ops: tuple[str, ...]) -> dict:
    samples = recorder.pooled(ops)
    return {
        f"serve.{name}_p50_ms": 1e3 * nearest_rank(samples, 50),
        f"serve.{name}_p99_ms": 1e3 * tail_percentile(samples, 99)[0],
    }


def _traced(root: Path, seed: int, work_dir: Path, checks: Checks) -> Outcome:
    seed = lap_seed(seed, 0)
    server = ServerProcess(root, seed, work_dir / "server-traced.log")
    try:
        client = _http_burst(server, seed, checks)
    finally:
        server.stop()
    _, plain, plain_wall = _replay(seed, checks, "in-process")

    graphs: dict[int, Any] = {}
    keys: list[tuple[int, int]] = []

    def observe(gatekeeper: Any, controller: int) -> None:
        graphs[id(gatekeeper.graph)] = gatekeeper.graph  # pins ids for the run
        keys.append((id(gatekeeper.graph), int(controller)))

    tracer = layer_tracer().time(
        "serve.gatekeeper_run", "repro.sybil.gatekeeper", "GateKeeper.run", observe
    )
    tel = telemetry.Telemetry()
    with tracer, telemetry.activate(tel):
        service, recorder, traced_wall = _replay(seed, checks, "traced in-process")
    stats = service.stats()
    pauses = [1e3 * c.pause_seconds for c in service.compaction_history()]
    derived = {
        **_percentiles(recorder, "rank", ("rank",)),
        **_percentiles(recorder, "admission", ("admission",)),
        **_percentiles(recorder, "escape", ("escape",)),
        **_percentiles(recorder, "write", _WRITES),
        "serve.cold_builds": len(keys),
        "serve.cache_hit_ratio": stats.cache_hits / max(stats.cache_hits + stats.cache_misses, 1),
        "serve.gatekeeper_runs_per_key": len(keys) / max(len(set(keys)), 1),
        "serve.compaction_pause_ms": statistics.median(pauses) if pauses else 0.0,
        "serve.http_overhead_ms": client["p50_ms"] - 1e3 * nearest_rank(plain.pooled(), 50),
        "serve.client_throughput_rps": client["throughput_rps"],
        "serve.client_p50_ms": client["p50_ms"],
        "serve.client_p99_ms": client["p99_ms"],
        "serve.client_admission_p95_ms": client["admission_p95_ms"],
        "trace.overhead_s": traced_wall - plain_wall,
    }
    return Outcome(
        metrics=layer_metrics(tracer, tel, derived),
        attempted=client["requests"] + client["errors"] + len(checks.items),
        failed=client["errors"] + checks.failed,
        checks=checks.items,
        details={
            "client": client,
            "untraced_wall_s": plain_wall,
            "traced_wall_s": traced_wall,
            "compactions": len(pauses),
            "telemetry": tel.as_dict(),
        },
    )


def run(root: Path, seed: int, seconds: float, trace: bool, work_dir: Path) -> Outcome:
    """Spawn a fresh server per burst, for about ``seconds`` (see :func:`repeat`).

    Each spawn is one set-up, and each burst draws its own attack and
    request stream (see :func:`benchkit.common.lap_seed`).  An untimed
    warm-up spawn (lap 0) goes first.
    """
    checks = Checks()
    if trace:
        return _traced(root, seed, work_dir, checks)
    setups: list[float] = []
    bursts: list[dict] = []

    def lap(index: int) -> None:
        server = ServerProcess(
            root, lap_seed(seed, index), work_dir / f"server-{index}.log"
        )
        try:
            bursts.append(_http_burst(server, lap_seed(seed, index), checks))
        finally:
            server.stop()
        setups.append(server.ready_s)

    ServerProcess(root, lap_seed(seed, 0), work_dir / "server-0.log").stop()
    repeat(seconds, lap)
    metrics = end_to_end(
        setups,
        [b["wall_s"] for b in bursts],
        [b["cpu_s"] for b in bursts],
        statistics.median(b["peak_rss_mb"] for b in bursts),
    )
    requests = sum(b["requests"] + b["errors"] for b in bursts)
    errors = sum(b["errors"] for b in bursts)
    return Outcome(
        metrics=metrics,
        attempted=requests + len(checks.items),
        failed=errors + checks.failed,
        checks=checks.items,
        details={"setups_s": setups, "bursts": bursts},
    )
