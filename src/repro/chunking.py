"""Shared chunk planning and fan-out for the batched engines.

Both block engines — the multi-source walk engine
(:mod:`repro.markov.batch`) and the multi-source BFS engine
(:mod:`repro.graph.bfs_batch`) — process independent source columns in
contiguous chunks: ``chunk_size`` bounds the per-chunk working set at
``O(n * chunk_size)``, and ``workers`` optionally fans the chunks out
over a thread pool.  Chunks are independent and write into disjoint
pre-allocated slices, so results are deterministic regardless of
scheduling.  This runner uses threads: the shared graph or matrix is
free to share and the pool is free to start.

This module holds the one chunk planner and runner every engine shares
(TVD, BFS, walks, loopy BP, the pipeline's stage waves), so the engines
stay API-identical by construction and no engine has a second dispatch
path.

Zero sources are a legal plan: ``resolve_chunks(0, ...)`` returns an
empty chunk list and ``run_chunks`` treats an empty list as a no-op
(never opening a thread pool), so engine entry points handed an empty
source set fall through to an empty result instead of crashing.

Fan-out reports into :mod:`repro.telemetry`: per-chunk spans
(``chunking.chunk``), chunk and source counters, and a worker
utilization gauge (busy time across the pool / pool size x elapsed).
Busy time for the gauge is accumulated *per run* — two overlapping
parallel runs sharing one registry must not see each other's busy
deltas — while the global ``chunking.busy_seconds`` counter still sums
across runs.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from repro import telemetry
from repro.errors import GraphError

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "default_workers",
    "resolve_chunks",
    "run_chunks",
]

#: Default number of source columns processed per chunk.  Bounds the
#: dense working set (8 bytes/entry for walk blocks, 1-8 bytes for BFS
#: state) at a few MB per thousand nodes while keeping the sparse
#: structure amortized over many columns.
DEFAULT_CHUNK_SIZE = 128

#: Cap on :func:`default_workers` — past this, per-worker dispatch and
#: merge overhead dominates on every workload the repo runs.
MAX_DEFAULT_WORKERS = 8


def default_workers(cap: int = MAX_DEFAULT_WORKERS) -> int:
    """Worker count derived from the machine, for callers with no opinion.

    Uses the scheduling affinity mask when the platform exposes one
    (containers often grant fewer cores than ``os.cpu_count`` reports),
    capped at ``cap``; always at least 1.  The CLI and the benchmarks
    use this instead of hard-coded worker counts.
    """
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        available = os.cpu_count() or 1
    return max(1, min(available, cap))


def resolve_chunks(
    num_sources: int,
    chunk_size: int | None,
    workers: int | None,
    max_size: int | None = DEFAULT_CHUNK_SIZE,
) -> list[slice]:
    """Split ``num_sources`` columns into contiguous chunk slices.

    An explicit ``chunk_size`` is used as given.  Otherwise the plan is
    sized from the work: one chunk per worker (one chunk inline), cut
    to at most ``max_size`` columns.  Engines whose working set grows
    with the chunk (``n x chunk`` dense blocks) keep the default cap of
    :data:`DEFAULT_CHUNK_SIZE`; element-wise engines (walks, BP
    rounds) pass ``max_size=None`` or a memory-derived cap.

    ``num_sources == 0`` yields an empty plan (no chunks) regardless of
    ``chunk_size``/``workers`` — it must not trip the positivity check,
    which is about the *requested* chunk size, not the workload.  A
    *negative* count is always a caller bug (the ``range`` below would
    silently underflow to an empty plan) and raises.
    """
    if num_sources < 0:
        raise GraphError(f"num_sources must be non-negative, got {num_sources}")
    if num_sources == 0:
        return []
    if chunk_size is None:
        size = -(-num_sources // max(workers or 1, 1))
        if max_size is not None:
            size = min(size, max_size)
    else:
        size = int(chunk_size)
    if size < 1:
        raise GraphError("chunk_size must be positive")
    return [slice(lo, min(lo + size, num_sources)) for lo in range(0, num_sources, size)]


def run_chunks(
    run_chunk: Callable[[slice], None],
    chunks: list[slice],
    workers: int | None,
    span: str | None = "chunking.chunk",
) -> None:
    """Execute chunk jobs inline or on a bounded thread pool.

    An empty chunk list is a clean no-op — in particular it never
    constructs a ``ThreadPoolExecutor`` (whose ``max_workers`` must be
    positive).

    ``span`` names the per-chunk telemetry span; pass ``None`` to keep
    the chunk jobs un-spanned (schedulers whose jobs open their own
    spans, like the pipeline's wave runner, use this so their span
    paths stay rooted at the job names).
    """
    if workers is not None and workers < 1:
        raise GraphError("workers must be positive")
    if not chunks:
        return
    tel = telemetry.current()
    # Per-run busy accumulator: the utilization gauge must be computed
    # from *this run's* busy time only.  Snapshotting the cumulative
    # ``chunking.busy_seconds`` counter (the previous scheme) interleaved
    # the deltas of two overlapping parallel runs sharing one registry,
    # corrupting both gauges.
    busy = _BusyAccumulator()
    if tel.enabled:
        run_chunk = _instrumented(tel, run_chunk, span, busy)
        tel.count("chunking.chunks", len(chunks))
        tel.count("chunking.sources", sum(c.stop - c.start for c in chunks))
    if workers is None or workers == 1 or len(chunks) == 1:
        for columns in chunks:
            run_chunk(columns)
        return
    pool_size = min(workers, len(chunks))
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=pool_size) as pool:
        # list() re-raises the first chunk failure, if any.
        list(pool.map(run_chunk, chunks))
    if tel.enabled:
        elapsed = time.perf_counter() - start
        tel.count("chunking.parallel_runs")
        if elapsed > 0:
            tel.gauge(
                "chunking.worker_utilization",
                min(1.0, busy.total / (pool_size * elapsed)) if busy.total else 0.0,
            )


class _BusyAccumulator:
    """Lock-guarded per-run busy-seconds total (exact under the pool)."""

    __slots__ = ("_lock", "total")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.total = 0.0

    def add(self, seconds: float) -> None:
        with self._lock:
            self.total += seconds


def _instrumented(
    tel: telemetry.Telemetry,
    run_chunk: Callable[[slice], None],
    span: str | None,
    busy: _BusyAccumulator,
) -> Callable[[slice], None]:
    """Wrap a chunk job with a per-chunk span and busy-time accounting."""

    def timed(columns: slice) -> None:
        start = time.perf_counter()
        if span is None:
            run_chunk(columns)
        else:
            with tel.span(span):
                run_chunk(columns)
        elapsed = time.perf_counter() - start
        busy.add(elapsed)
        tel.count("chunking.busy_seconds", elapsed)

    return timed
