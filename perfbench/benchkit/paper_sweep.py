"""paper_sweep: the paper's own measurement job, cold then warm.

One cold :func:`repro.pipeline.paper_measurement_pipeline` run per
target (all seven stages, a fresh empty store, two workers) over a fast
analog (``wiki_vote`` at scale 0.1) and a slow one (``physics1`` at
scale 0.2, where it fragments into a dozen or more cores), then one
warm rerun from the same store.  GateKeeper
ticket distribution does most of the work; the shard, walk-RNG and
serve layers do almost none.  A repetition takes about 2 s on two
cores, so one run holds several (see NOTES.md for why the paper's four
analogs at scale 0.25 are not used).
"""

from __future__ import annotations

import time
import uuid
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from benchkit.common import WORKERS, Checks
from repro import pipeline, store
from repro.datasets import dataset_spec, registry
from repro.markov.transition import clear_operator_cache

#: Target analog -> scale.
TARGETS = {"wiki_vote": 0.1, "physics1": 0.2}
SLEM_TOL = 1e-6

# the registry's cached loader; ``cache_clear`` makes every set-up a
# real generation (calls go through the module attribute, so a tracer
# sees them)
_CACHED_LOADER = registry.load_dataset


def setup(seed: int, work_dir: Path) -> dict:
    _CACHED_LOADER.cache_clear()
    graphs = {
        t: registry.load_dataset(t, scale=scale, seed=seed) for t, scale in TARGETS.items()
    }
    return {"graphs": graphs, "work_dir": work_dir}


def rep(state: dict, seed: int) -> dict:
    clear_operator_cache()
    root = state["work_dir"] / f"store-{uuid.uuid4().hex}"
    artifacts = store.ArtifactStore(root)
    pipes = [
        pipeline.paper_measurement_pipeline(
            target, scale=scale, seed=seed, store=artifacts, workers=WORKERS
        )
        for target, scale in TARGETS.items()
    ]
    cold, cold_wall = _run_all(pipes)
    warm, warm_wall = _run_all(pipes)
    return {
        "cold": cold,
        "warm": warm,
        "cold_wall": cold_wall,
        "warm_wall": warm_wall,
        "store_bytes": sum(p.stat().st_size for p in root.rglob("*") if p.is_file()),
    }


def _run_all(pipes: list) -> tuple[list, float]:
    start = time.perf_counter()
    results = [p.run() for p in pipes]
    return results, time.perf_counter() - start


def reference_slem(graph) -> float:
    """Second largest |eigenvalue| of D^-1/2 A D^-1/2, built here from the CSR."""
    n = graph.num_nodes
    adjacency = sp.csr_matrix(
        (np.ones(graph.indices.size), graph.indices, graph.indptr), shape=(n, n)
    )
    scale = sp.diags(1.0 / np.sqrt(np.diff(graph.indptr).astype(float)))
    values = spla.eigsh(
        scale @ adjacency @ scale, k=4, which="LM", tol=0, return_eigenvectors=False
    )
    return float(np.sort(np.abs(values))[-2])


def check(state: dict, output: dict, checks: Checks) -> dict:
    worst_err = 0.0
    stage_seconds = 0.0
    for target, cold, warm in zip(TARGETS, output["cold"], output["warm"]):
        tables = cold.results["tables"]
        stage_seconds += sum(run.seconds for run in cold.runs)
        checks.expect(
            f"{target}: cold run executed every stage",
            sorted(cold.executed) == sorted(pipeline.PAPER_STAGES),
            f"executed {cold.executed}",
        )
        checks.expect(
            f"{target}: warm rerun served from the store",
            not warm.executed and warm.digest() == cold.digest(),
            f"executed {warm.executed}",
        )
        ref = reference_slem(state["graphs"][target])
        err = abs(float(tables["slem"]) - ref)
        worst_err = max(worst_err, err)
        checks.expect(
            f"{target}: SLEM within {SLEM_TOL} of the scipy reference",
            err <= SLEM_TOL,
            f"mu={tables['slem']:.9f} ref={ref:.9f}",
        )
        fast = dataset_spec(target).mixing_regime == "fast"
        cores = int(tables["max_cores"])
        checks.expect(
            f"{target}: {'single core' if fast else 'fragmented cores'}",
            cores == 1 if fast else cores > 1,
            f"max cores {cores}",
        )
    return {
        "mixing.slem_abs_err": worst_err,
        "pipeline.warm_rerun_s": output["warm_wall"],
        "pipeline.overlap": stage_seconds / output["cold_wall"],
        "store.bytes_written": float(output["store_bytes"]),
    }
