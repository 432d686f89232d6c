"""sharded_audit: the out-of-core mixing audit on a streamed analog.

A 10,000-node ``fast`` analog is streamed into 8 shards with 2 resident.
Each repetition runs a TVD profile, multi-source BFS, the SLEM call the
``repro audit --sharded`` command makes, and 20,000 walks of 32 steps.
SLEM and walk RNG take most of the time; GateKeeper, the store and the
serve layers take none.  At 10,000 nodes a repetition takes about 2.8 s
on two cores, so one run holds several.

The audited analog is the one ``repro shard build`` streams by default
(stream seed 0) for every benchmark seed; the benchmark seed draws the
TVD and BFS sources, the walk sources and the walk streams.  The SLEM
call's run time is a property of the graph's spectrum: on the 50,000-node
analog, over stream seeds 0 and 2-6 it ranged from 4.8 s to 12.1 s, and
on stream seed 1 it raised ``ConvergenceError`` after 5,000 iterations
(see NOTES.md).  The walks run in chunks of ``WALK_CHUNK`` walks: at the
engine's default of 128, two workers sharing two resident shards thrash
the shard LRU, and 50,000 walks took about 71 s instead of about 4 s.
"""

from __future__ import annotations

import hashlib
import uuid
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from benchkit.common import WORKERS, Checks
from repro.datasets import streaming
from repro.graph import bfs_batch
from repro.graph.shard import ShardedGraph
from repro.markov import batch, walk_batch
from repro.markov.transition import clear_operator_cache
from repro.mixing import spectral

NUM_NODES = 10_000
STREAM_SEED = 0
NUM_SHARDS = 8
RESIDENT = 2
TVD_SOURCES = 16
TVD_LENGTHS = (1, 2, 4, 8, 16)
BFS_SOURCES = 8
WALKS = 20_000
WALK_STEPS = 32
WALK_CHUNK = 4096
SLEM_TOL = 1e-4
TVD_LIMIT = 1e-3
#: Walk endpoints are binned into this many equal node ranges; the
#: binned histogram of 20,000 endpoints must lie within WALK_TVD of the
#: binned stationary distribution (sampling noise alone is about 0.016).
WALK_BINS = 32
WALK_TVD = 0.03


def setup(seed: int, work_dir: Path) -> dict:
    root = work_dir / f"shards-{uuid.uuid4().hex}"
    streaming.build_sharded_analog(
        root,
        NUM_NODES,
        regime="fast",
        seed=STREAM_SEED,
        num_shards=NUM_SHARDS,
        max_resident_shards=RESIDENT,
    )
    return {"root": root}


def rep(state: dict, seed: int) -> dict:
    clear_operator_cache()
    rng = np.random.default_rng(seed)
    graph = ShardedGraph.open(state["root"], max_resident_shards=RESIDENT)
    n = graph.num_nodes
    tvd_sources = np.sort(rng.choice(n, size=TVD_SOURCES, replace=False))
    tvd = batch.batched_tvd_profile(
        graph, batch.sharded_stationary(graph), tvd_sources, TVD_LENGTHS,
        workers=WORKERS,
    )
    bfs_sources = rng.choice(n, size=BFS_SOURCES, replace=False)
    levels = bfs_batch.bfs_level_sizes_block(graph, bfs_sources, workers=WORKERS)
    # the call ``repro audit --sharded`` makes, on a full-residency handle
    mu = spectral.power_iteration_slem(ShardedGraph.open(state["root"]), tol=1e-8)
    walk_sources = rng.integers(0, n, size=WALKS)
    ends = walk_batch.walk_endpoints(
        graph, walk_sources, WALK_STEPS, seed=int(rng.integers(2**31)),
        chunk_size=WALK_CHUNK, workers=WORKERS,
    )
    return {"tvd": tvd, "levels": levels, "mu": mu, "ends": ends}


#: (SLEM, stationary distribution) of each audited graph, by CSR digest:
#: every lap streams the analog afresh, and the eigensolve is the
#: slowest part of a check.
_REFERENCES: dict[str, tuple[float, np.ndarray]] = {}


def reference(state: dict) -> tuple[float, np.ndarray]:
    """SLEM from scipy ``eigsh`` on the materialized CSR, and the stationary distribution."""
    graph = ShardedGraph.open(state["root"]).to_graph()
    key = hashlib.sha1(graph.indptr.tobytes() + graph.indices.tobytes()).hexdigest()
    if key not in _REFERENCES:
        n = graph.num_nodes
        adjacency = sp.csr_matrix(
            (np.ones(graph.indices.size), graph.indices, graph.indptr), shape=(n, n)
        )
        degrees = np.diff(graph.indptr).astype(float)
        scale = sp.diags(1.0 / np.sqrt(degrees))
        values = spla.eigsh(
            scale @ adjacency @ scale, k=3, which="LM", ncv=40, tol=1e-10,
            return_eigenvectors=False,
        )
        _REFERENCES[key] = (float(np.sort(np.abs(values))[-2]), degrees / degrees.sum())
    return _REFERENCES[key]


def binned_tvd(ends: np.ndarray, stationary: np.ndarray, bins: int) -> float:
    """TVD between the endpoint histogram and ``stationary`` over node ranges."""
    n = stationary.size
    edges = np.linspace(0, n, bins + 1).astype(np.int64)
    which = np.searchsorted(edges, ends, side="right") - 1
    empirical = np.bincount(which, minlength=bins) / ends.size
    expected = np.add.reduceat(stationary, edges[:-1])
    return 0.5 * float(np.abs(empirical - expected).sum())


def check(state: dict, output: dict, checks: Checks) -> dict:
    mu_ref, stationary = reference(state)
    err = abs(output["mu"] - mu_ref)
    checks.expect(
        f"SLEM within {SLEM_TOL} of eigsh", err <= SLEM_TOL,
        f"mu={output['mu']:.7f} ref={mu_ref:.7f}",
    )
    reached = output["levels"].sum(axis=1)
    checks.expect(
        "BFS covers every node", bool((reached == NUM_NODES).all()),
        f"reached {reached.tolist()}",
    )
    worst = float(output["tvd"][:, -1].max())
    checks.expect(
        f"worst TVD at t={TVD_LENGTHS[-1]} below {TVD_LIMIT}", worst < TVD_LIMIT,
        f"{worst:.3e}",
    )
    walk_tvd = binned_tvd(output["ends"], stationary, WALK_BINS)
    checks.expect(
        f"walk endpoints within {WALK_TVD} TVD of stationary ({WALK_BINS} bins)",
        walk_tvd <= WALK_TVD,
        f"{walk_tvd:.4f}",
    )
    return {"mixing.slem_abs_err": err}
