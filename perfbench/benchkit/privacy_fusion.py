"""privacy_fusion: link-privacy perturbation, then fusion defenses on the result.

``facebook_a`` at scale 0.25 under the standard attack (3,600 nodes,
about 28,000 half-edges) is perturbed with ``perturb_links(t=10)`` and
scored by SybilRank, SybilFrame and SybilFuse.  This covers the two
paths the other workloads skip: many short in-RAM walks (one per
half-edge) and the loopy-BP engine.  At scale 0.25 a repetition takes
about 2 s on two cores, so one run holds several.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from benchkit.common import WORKERS, Checks
from repro.datasets import registry
from repro.markov.transition import clear_operator_cache
from repro.privacy import perturb
from repro.sybil import comparison
from repro.sybil.attack import SybilAttack
from repro.sybil.harness import standard_attack

TARGET = "facebook_a"
SCALE = 0.25
T = 10
DEFENSES = ("sybilrank", "sybilframe", "sybilfuse")
MIN_AUC = 0.95

_CACHED_LOADER = registry.load_dataset


def setup(seed: int, work_dir: Path) -> dict:
    _CACHED_LOADER.cache_clear()
    honest = registry.load_dataset(TARGET, scale=SCALE, seed=seed)
    return {"attack": standard_attack(honest, max(honest.num_nodes // 20, 5), seed=seed)}


def rep(state: dict, seed: int) -> dict:
    clear_operator_cache()
    attack = state["attack"]
    perturbed = perturb.perturb_links(attack.graph, T, seed=seed, workers=WORKERS)
    scored = SybilAttack(
        graph=perturbed, num_honest=attack.num_honest, attack_edges=attack.attack_edges
    )
    aucs = {
        name: comparison.defense_scores(scored, name, seed=seed).auc
        for name in DEFENSES
    }
    return {"perturbed": perturbed, "aucs": aucs}


def check(state: dict, output: dict, checks: Checks) -> dict:
    graph = output["perturbed"]
    owners = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    loops = int(np.count_nonzero(owners == graph.indices))
    checks.expect("perturbed graph has no self-loops", loops == 0, f"{loops} loops")
    checks.expect(
        "perturbation keeps the node set",
        graph.num_nodes == state["attack"].graph.num_nodes,
        f"{graph.num_nodes} nodes",
    )
    for name, auc in output["aucs"].items():
        checks.expect(f"{name} AUC >= {MIN_AUC}", auc >= MIN_AUC, f"{auc:.4f}")
    return {}
