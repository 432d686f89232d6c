"""Vectorized Monte-Carlo walk engine (the third block engine).

The dense-distribution engine (:mod:`repro.markov.batch`) and the BFS
engine (:mod:`repro.graph.bfs_batch`) cover algebraic evolution and
shortest-path levels; every *sampled* walk in the repo — escape
probability, SybilDefender/SybilInfer statistics, GateKeeper
distributor selection, Whānau table sampling, Monte-Carlo
hitting/cover estimators, empirical distributions, link-privacy
perturbation — still needs actual random trajectories.  This module
advances a ``(num_walks,)`` state vector one step per iteration with a
single CSR gather::

    next = indices[indptr[state] + floor(u * degree[state])]

instead of ``num_walks x length`` Python iterations, in four modes:

* :func:`walk_block` — full trajectories, ``(num_walks, length + 1)``;
* :func:`walk_endpoints` — endpoints only, O(num_walks) memory;
* :func:`walk_first_hits` — first step touching a node mask
  (:data:`NO_HIT` when a walk never does), the escape-probability and
  Monte-Carlo hitting-time primitive;
* :func:`walk_visit_counts` — per-node visit accumulation
  (``record="last"`` is the empirical-distribution estimator);

plus :func:`walk_cover_steps`, the cover-time tracker built on the
same stepping kernel.

**Seed discipline.**  Randomness is counter-based: walk ``i`` (its
position in ``sources``) takes step ``t`` with the uniform::

    u[i, t] = top53(mix64(mix64(key ^ i * GAMMA) + (t + 1) * GAMMA)) / 2**53

where ``mix64`` is the splitmix64 finalizer, ``GAMMA`` the golden-ratio
increment ``0x9E3779B97F4A7C15`` and ``key`` one 64-bit word derived
from ``seed`` by :func:`seed_key`.  A uniform depends only on
``(key, i, t)``, so results are **bit-identical** for every
``chunk_size``/``workers`` combination and identical to
the per-walk ``strategy="sequential"`` oracle by construction: a chunk
needs only the key and its first walk index.  An int seed and a fresh
:class:`~numpy.random.SeedSequence` of that int give the same walks; a
``SeedSequence`` or :class:`~numpy.random.Generator` is advanced by
each call, so repeated calls draw fresh walks.

**Chunk plan.**  Walks are independent and the per-walk working set is
a few words, so by default every resolved worker gets one contiguous
chunk (one chunk inline).  Cover tracking holds a ``(chunk, n)``
visited block and caps its chunk at :data:`COVER_CHUNK_BYTES`.
``chunk_size`` overrides the plan.  Chunking goes through the shared
planner (:mod:`repro.chunking`); every chunk reports a
``markov.walk.chunk`` span and the ``markov.walk.walks`` /
``markov.walk.steps`` / ``markov.walk.absorbed`` counters into
:mod:`repro.telemetry`.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro import telemetry
from repro.chunking import resolve_chunks, run_chunks
from repro.errors import GraphError
from repro.graph.core import Graph
from repro.graph.shard import ShardedGraph

__all__ = [
    "NO_HIT",
    "COVER_CHUNK_BYTES",
    "seed_key",
    "WalkUniforms",
    "walk_block",
    "walk_endpoints",
    "walk_first_hits",
    "walk_visit_counts",
    "walk_cover_steps",
]

#: Sentinel returned by :func:`walk_first_hits` / :func:`walk_cover_steps`
#: for walks that never reach the mask / never cover within the budget.
NO_HIT = -1

#: Cap on the ``(chunk, n)`` boolean visited block of cover tracking
#: when the chunk plan is derived (``chunk_size=None``).
COVER_CHUNK_BYTES = 1 << 24

_SeedLike = "int | np.random.SeedSequence | np.random.Generator"

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer of a ``uint64`` array, as a new array.

    Wrapping arithmetic on array operands (numpy warns on wrap-around
    only for scalar ones); in-place steps keep per-call overhead low
    for the small chunks of a ``chunk_size`` override.
    """
    z = x >> _S30
    z ^= x
    z *= _MIX1
    t = z >> _S27
    z ^= t
    z *= _MIX2
    np.right_shift(z, _S31, out=t)
    z ^= t
    return z


def seed_key(seed: _SeedLike) -> np.uint64:
    """Derive the 64-bit counter key of one engine call from ``seed``.

    An int ``s`` means ``SeedSequence(s)``.  A ``SeedSequence`` is
    spawned once (advancing it) and the child's first state word is the
    key; a ``Generator`` has one ``uint64`` drawn from it (advancing it).
    """
    if isinstance(seed, np.random.Generator):
        return np.uint64(seed.integers(2**64, dtype=np.uint64))
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(int(seed))
    )
    return np.uint64(root.spawn(1)[0].generate_state(1, dtype=np.uint64)[0])


class WalkUniforms:
    """Counter-based uniforms ``u[i, t]`` of a set of walks, step by step.

    ``walk_ids`` are the walks' global indices; each :meth:`next` call
    returns the next step's uniforms in ``[0, 1)`` for every walk, so
    memory stays O(len(walk_ids)).  Which walks share an instance
    cannot change any value.
    """

    __slots__ = ("_counter",)

    def __init__(self, key: np.uint64, walk_ids: np.ndarray) -> None:
        ids = np.asarray(walk_ids, dtype=np.uint64)
        self._counter = _mix64(ids * _GAMMA ^ np.uint64(key))

    def next(self) -> np.ndarray:
        """The next step's uniforms, one per walk."""
        self._counter += _GAMMA
        return _unit(_mix64(self._counter))

    def block(self, count: int) -> np.ndarray:
        """The next ``count`` steps' uniforms as a ``(walks, count)`` block.

        Wrapping addition makes ``counter + (t + 1) * GAMMA`` equal to
        ``t + 1`` single increments, so a block holds exactly the values
        ``count`` calls of :meth:`next` would return.
        """
        offsets = np.arange(1, count + 1, dtype=np.uint64) * _GAMMA
        values = _unit(_mix64(self._counter[:, None] + offsets[None, :]))
        if count:
            self._counter += offsets[-1]
        return values


def _unit(bits: np.ndarray) -> np.ndarray:
    """Top 53 bits of each word as a double in ``[0, 1)`` (consumes ``bits``)."""
    bits >>= _S11
    u = bits.astype(np.float64)
    u *= 1.0 / (1 << 53)
    return u


def _scalar_uniforms(key: np.uint64, walk: int, length: int):
    """Walk ``walk``'s uniforms for steps ``0 .. length - 1`` as floats.

    The sequential oracle's stream: the same counter function with a
    scalar walk index, generated 1024 steps at a time so a walk that
    stops early never pays for its whole budget.
    """
    uniforms = WalkUniforms(key, np.array([walk]))
    for start in range(0, length, 1024):
        yield from uniforms.block(min(1024, length - start))[0].tolist()


def _validate(
    graph: "Graph | ShardedGraph",
    sources: np.ndarray | Sequence[int],
    length: int,
    strategy: str,
    name: str = "length",
    minimum: int = 0,
) -> np.ndarray:
    chosen = np.asarray(list(sources), dtype=np.int64)
    if chosen.size and (chosen.min() < 0 or chosen.max() >= graph.num_nodes):
        raise GraphError(
            f"sources must be node ids in [0, {graph.num_nodes})"
        )
    if strategy not in ("batched", "sequential"):
        raise GraphError(
            f"unknown strategy {strategy!r}; use 'batched' or 'sequential'"
        )
    if length < minimum:
        raise GraphError(
            f"{name} must be {'non-negative' if minimum == 0 else 'positive'}"
        )
    return chosen


def _advance(
    states: np.ndarray,
    u: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
) -> np.ndarray:
    """One vectorized walk step; isolated nodes stay put.

    ``floor(u * deg)`` is clipped to ``deg - 1`` so a uniform rounding
    up against 1.0 on a high-degree node cannot index past the row.
    """
    deg = degrees[states]
    if deg.all():
        # fast path: every walk sits on a positive-degree node (the
        # common case on connected graphs) — skip the mask round-trip
        offsets = (u * deg).astype(np.int64)
        np.minimum(offsets, deg - 1, out=offsets)
        return indices[indptr[states] + offsets]
    moving = deg > 0
    out = states.copy()
    if not moving.any():
        return out
    mstates = states[moving]
    mdeg = deg[moving]
    offsets = (u[moving] * mdeg).astype(np.int64)
    np.minimum(offsets, mdeg - 1, out=offsets)
    out[moving] = indices[indptr[mstates] + offsets]
    return out


def _step_sequential(
    state: int,
    u: float,
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
) -> int:
    """Scalar twin of :func:`_advance` — same IEEE ops, same clip."""
    deg = degrees[state]
    if deg == 0:
        return state
    offset = int(u * deg)
    if offset >= deg:
        offset = int(deg - 1)
    return int(indices[indptr[state] + offset])


class _DenseStepper:
    """Stepping kernel over a resident graph's CSR arrays."""

    __slots__ = ("indptr", "indices", "degrees", "num_nodes")

    def __init__(self, graph: Graph) -> None:
        self.indptr = graph.indptr
        self.indices = graph.indices
        self.degrees = graph.degrees
        self.num_nodes = graph.num_nodes

    def advance(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _advance(states, u, self.indptr, self.indices, self.degrees)

    def step(self, state: int, u: float) -> int:
        return _step_sequential(state, u, self.indptr, self.indices, self.degrees)


class _ShardedStepper:
    """Stepping kernel that gathers from memory-mapped shards.

    States are grouped by owning shard per step; each group's degree
    lookup and neighbor gather run against that shard's local arrays
    with the exact per-element arithmetic of :func:`_advance`
    (``floor(u * deg)`` clipped to ``deg - 1``; isolated nodes stay
    put), so trajectories are bit-identical to the resident kernel for
    the same uniforms.
    """

    __slots__ = ("_sharded", "num_nodes")

    def __init__(self, sharded: ShardedGraph) -> None:
        self._sharded = sharded
        self.num_nodes = sharded.num_nodes

    def advance(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = states.copy()
        sids = self._sharded.shard_index_of(states)
        for k in np.unique(sids):
            shard = self._sharded.shard(int(k))
            sel = np.flatnonzero(sids == k)
            local = states[sel] - shard.lo
            starts = np.asarray(shard.indptr[local])
            deg = np.asarray(shard.indptr[local + 1]) - starts
            moving = deg > 0
            if not moving.any():
                continue
            mdeg = deg[moving]
            offsets = (u[sel][moving] * mdeg).astype(np.int64)
            np.minimum(offsets, mdeg - 1, out=offsets)
            out[sel[moving]] = shard.indices[starts[moving] + offsets]
        return out

    def step(self, state: int, u: float) -> int:
        shard = self._sharded.shard(self._sharded.shard_index_of(int(state)))
        local = int(state) - shard.lo
        start = int(shard.indptr[local])
        deg = int(shard.indptr[local + 1]) - start
        if deg == 0:
            return int(state)
        offset = int(u * deg)
        if offset >= deg:
            offset = deg - 1
        return int(shard.indices[start + offset])


def _stepper(graph: "Graph | ShardedGraph") -> "_DenseStepper | _ShardedStepper":
    if isinstance(graph, ShardedGraph):
        return _ShardedStepper(graph)
    return _DenseStepper(graph)


# ----------------------------------------------------------------------
# per-chunk kernels
#
# kernel(stepper, states, uniforms, length, mask, record) returns
# ``(values, steps taken)``: one row per walk, or per-node visit counts.
# ----------------------------------------------------------------------
def _block_chunk(stepper, states, uniforms, length, mask, record):
    out = np.empty((states.size, length + 1), dtype=np.int64)
    out[:, 0] = states
    for t in range(length):
        states = stepper.advance(states, uniforms.next())
        out[:, t + 1] = states
    return out, states.size * length


def _endpoints_chunk(stepper, states, uniforms, length, mask, record):
    for _ in range(length):
        states = stepper.advance(states, uniforms.next())
    return states, states.size * length


def _first_hits_chunk(stepper, states, uniforms, length, mask, record):
    """A chunk whose walks have all been absorbed stops stepping."""
    hits = np.full(states.size, NO_HIT, dtype=np.int64)
    hits[mask[states]] = 0
    alive = hits == NO_HIT
    steps = 0
    for t in range(length):
        if not alive.any():
            break
        states = stepper.advance(states, uniforms.next())
        steps += states.size
        newly = alive & mask[states]
        hits[newly] = t + 1
        alive &= ~newly
    return hits, steps


def _visit_chunk(stepper, states, uniforms, length, mask, record):
    n = stepper.num_nodes
    local = np.zeros(n, dtype=np.int64)
    if record == "all":
        local += np.bincount(states, minlength=n)
    for _ in range(length):
        states = stepper.advance(states, uniforms.next())
        if record == "all":
            local += np.bincount(states, minlength=n)
    if record == "last":
        local += np.bincount(states, minlength=n)
    return local, states.size * length


def _cover_chunk(stepper, states, uniforms, length, mask, record):
    """Cover steps of one chunk; stops once every walk has covered."""
    n = stepper.num_nodes
    k = states.size
    rows = np.arange(k)
    visited = np.zeros((k, n), dtype=bool)
    visited[rows, states] = True
    remaining = np.full(k, n - 1, dtype=np.int64)
    covered = np.full(k, 0 if n == 1 else NO_HIT, dtype=np.int64)
    alive = covered == NO_HIT
    steps = 0
    for t in range(length):
        if not alive.any():
            break
        states = stepper.advance(states, uniforms.next())
        steps += k
        newly = alive & ~visited[rows, states]
        visited[rows[newly], states[newly]] = True
        remaining[newly] -= 1
        done = newly & (remaining == 0)
        covered[done] = t + 1
        alive &= ~done
    return covered, steps


_KERNELS = {
    "block": _block_chunk,
    "endpoints": _endpoints_chunk,
    "first_hits": _first_hits_chunk,
    "visit": _visit_chunk,
    "cover": _cover_chunk,
}

#: modes whose rows can stop early, reporting ``markov.walk.absorbed``
_ABSORBING = ("first_hits", "cover")


def _run_kernel(mode, stepper, states, key, columns, length, mask, record):
    """Run one chunk and report its steps (and absorptions) to telemetry."""
    tel = telemetry.current()
    uniforms = WalkUniforms(key, np.arange(columns.start, columns.stop))
    with tel.span("markov.walk.chunk"):
        values, steps = _KERNELS[mode](
            stepper, states, uniforms, length, mask, record
        )
    tel.count("markov.walk.steps", steps)
    if mode in _ABSORBING:
        tel.count("markov.walk.absorbed", int(np.count_nonzero(values != NO_HIT)))
    return values


def _run_walks(
    mode: str,
    graph: "Graph | ShardedGraph",
    chosen: np.ndarray,
    seed: _SeedLike,
    out: np.ndarray,
    length: int,
    chunk_size: int | None,
    workers: int | None,
    strategy: str,
    mask: np.ndarray | None = None,
    record: str | None = None,
) -> np.ndarray:
    """The one dispatch seam of every mode: oracle or thread chunks.

    ``out`` is ``(num_walks, ...)`` for per-walk modes, ``(n,)`` zeros
    for ``visit``; it is filled and returned.
    """
    if chosen.size == 0:
        return out
    key = seed_key(seed)
    stepper = _stepper(graph)
    tel = telemetry.current()
    tel.count("markov.walk.walks", int(chosen.size))
    if strategy == "sequential":
        return _run_sequential(mode, stepper, chosen, key, out, length, mask, record)
    max_size = None
    if mode == "cover":
        max_size = max(1, COVER_CHUNK_BYTES // graph.num_nodes)
    chunks = resolve_chunks(chosen.size, chunk_size, workers, max_size=max_size)
    visit = mode == "visit"
    merge_lock = threading.Lock()

    def run_chunk(columns: slice) -> None:
        values = _run_kernel(
            mode, stepper, chosen[columns].copy(), key, columns, length, mask,
            record,
        )
        if visit:
            with merge_lock:
                np.add(out, values, out=out)
        else:
            out[columns] = values

    run_chunks(run_chunk, chunks, workers)
    return out


# ----------------------------------------------------------------------
# the per-walk sequential oracle (same uniforms, scalar stepping)
# ----------------------------------------------------------------------
def _run_sequential(mode, stepper, chosen, key, out, length, mask, record):
    steps = 0
    for i, source in enumerate(chosen.tolist()):
        uniforms = _scalar_uniforms(key, i, length)
        if mode == "first_hits":
            out[i], taken = _sequential_first_hit(source, uniforms, mask, stepper)
        elif mode == "cover":
            out[i], taken = _sequential_cover(source, uniforms, stepper)
        else:
            path = _sequential_trajectory(source, uniforms, length, stepper)
            taken = length
            if mode == "block":
                out[i] = path
            elif mode == "endpoints":
                out[i] = path[-1]
            elif record == "last":
                out[path[-1]] += 1
            else:
                out += np.bincount(path, minlength=out.size)
        steps += taken
    tel = telemetry.current()
    tel.count("markov.walk.steps", steps)
    if mode in _ABSORBING:
        tel.count("markov.walk.absorbed", int(np.count_nonzero(out != NO_HIT)))
    return out


def _sequential_trajectory(source, uniforms, length, stepper) -> np.ndarray:
    path = np.empty(length + 1, dtype=np.int64)
    path[0] = source
    state = source
    for t, u in enumerate(uniforms):
        state = stepper.step(state, u)
        path[t + 1] = state
    return path


def _sequential_first_hit(source, uniforms, mask, stepper):
    """Per-walk oracle; returns ``(first_hit, steps consumed)``."""
    if mask[source]:
        return 0, 0
    state = source
    t = 0
    for t, u in enumerate(uniforms, start=1):
        state = stepper.step(state, u)
        if mask[state]:
            return t, t
    return NO_HIT, t


def _sequential_cover(source, uniforms, stepper):
    """Per-walk oracle; returns ``(cover step, steps consumed)``."""
    n = stepper.num_nodes
    if n == 1:
        return 0, 0
    visited = np.zeros(n, dtype=bool)
    visited[source] = True
    remaining = n - 1
    state = source
    t = 0
    for t, u in enumerate(uniforms, start=1):
        state = stepper.step(state, u)
        if not visited[state]:
            visited[state] = True
            remaining -= 1
            if remaining == 0:
                return t, t
    return NO_HIT, t


# ----------------------------------------------------------------------
# public modes
# ----------------------------------------------------------------------
def walk_block(
    graph: Graph | ShardedGraph,
    sources: np.ndarray | Sequence[int],
    length: int,
    seed: _SeedLike = 0,
    chunk_size: int | None = None,
    workers: int | None = None,
    strategy: str = "batched",
) -> np.ndarray:
    """Return one walk per source as a ``(len(sources), length + 1)`` block.

    Row ``i`` is a ``length``-step uniform random walk from
    ``sources[i]`` (column 0 is the source itself), driven by walk
    ``i``'s counter uniforms — so the block is bit-identical for every
    ``chunk_size``/``workers`` setting and to the per-walk
    ``strategy="sequential"`` oracle.
    """
    chosen = _validate(graph, sources, length, strategy)
    out = np.empty((chosen.size, length + 1), dtype=np.int64)
    with telemetry.current().span("markov.walk.block"):
        return _run_walks(
            "block", graph, chosen, seed, out, length,
            chunk_size, workers, strategy,
        )


def walk_endpoints(
    graph: Graph | ShardedGraph,
    sources: np.ndarray | Sequence[int],
    length: int,
    seed: _SeedLike = 0,
    chunk_size: int | None = None,
    workers: int | None = None,
    strategy: str = "batched",
) -> np.ndarray:
    """Return the ``length``-step endpoint of one walk per source.

    O(num_walks) memory: only the state vector advances — the mode the
    sampling defenses (SybilDefender calibration, SybilInfer traces,
    GateKeeper distributors, Whānau tables) and link perturbation need.
    """
    chosen = _validate(graph, sources, length, strategy)
    out = np.empty(chosen.size, dtype=np.int64)
    with telemetry.current().span("markov.walk.endpoints"):
        return _run_walks(
            "endpoints", graph, chosen, seed, out, length,
            chunk_size, workers, strategy,
        )


def walk_first_hits(
    graph: Graph | ShardedGraph,
    sources: np.ndarray | Sequence[int],
    length: int,
    mask: np.ndarray,
    seed: _SeedLike = 0,
    chunk_size: int | None = None,
    workers: int | None = None,
    strategy: str = "batched",
) -> np.ndarray:
    """Return per walk the first step index at which it stands on ``mask``.

    Step 0 is the source itself; walks that never touch the mask within
    ``length`` steps report :data:`NO_HIT`.  This is the
    escape-probability / Monte-Carlo hitting-time primitive: ``mask``
    marks the absorbing region and ``first_hit <= w`` recovers the
    absorbed-by-``w`` indicator for any sub-budget ``w``.  A chunk
    whose walks have all been absorbed stops stepping early — absorbed
    walks' hit steps are final, and a walk's uniforms depend only on
    its index and step.
    """
    chosen = _validate(graph, sources, length, strategy)
    hit_mask = np.asarray(mask, dtype=bool)
    if hit_mask.shape != (graph.num_nodes,):
        raise GraphError(
            f"mask must have shape ({graph.num_nodes},), got {hit_mask.shape}"
        )
    out = np.empty(chosen.size, dtype=np.int64)
    with telemetry.current().span("markov.walk.first_hits"):
        return _run_walks(
            "first_hits", graph, chosen, seed, out, length,
            chunk_size, workers, strategy, mask=hit_mask,
        )


def walk_visit_counts(
    graph: Graph | ShardedGraph,
    sources: np.ndarray | Sequence[int],
    length: int,
    seed: _SeedLike = 0,
    record: str = "all",
    chunk_size: int | None = None,
    workers: int | None = None,
    strategy: str = "batched",
) -> np.ndarray:
    """Accumulate per-node visit counts over one walk per source.

    ``record="all"`` counts every position (source included) of every
    walk — ``counts.sum() == len(sources) * (length + 1)``;
    ``record="last"`` counts endpoints only, which divided by the walk
    count is exactly the empirical ``length``-step distribution.
    Memory stays O(num_nodes) per chunk regardless of the sample count;
    chunk partial counts merge under a lock (integer addition commutes,
    so scheduling cannot change the totals).
    """
    chosen = _validate(graph, sources, length, strategy)
    if record not in ("all", "last"):
        raise GraphError(f"unknown record mode {record!r}; use 'all' or 'last'")
    counts = np.zeros(graph.num_nodes, dtype=np.int64)
    with telemetry.current().span("markov.walk.visit_counts"):
        return _run_walks(
            "visit", graph, chosen, seed, counts, length,
            chunk_size, workers, strategy, record=record,
        )


def walk_cover_steps(
    graph: Graph | ShardedGraph,
    sources: np.ndarray | Sequence[int],
    max_steps: int,
    seed: _SeedLike = 0,
    chunk_size: int | None = None,
    workers: int | None = None,
    strategy: str = "batched",
) -> np.ndarray:
    """Return per walk the step at which it has visited every node.

    Walks that do not cover the graph within ``max_steps`` report
    :data:`NO_HIT`.  Visited state is a ``(chunk, n)`` boolean block;
    a chunk stops stepping once all of its walks have covered.
    """
    chosen = _validate(graph, sources, max_steps, strategy, "max_steps", 1)
    out = np.empty(chosen.size, dtype=np.int64)
    with telemetry.current().span("markov.walk.cover_steps"):
        return _run_walks(
            "cover", graph, chosen, seed, out, max_steps,
            chunk_size, workers, strategy,
        )
