"""Tests for the benchmark's own helpers.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from benchkit import common, machine
from benchkit.common import Checks, run_batch
from benchkit.serve_burst import Recorder
from benchkit.stats import MIN_BEYOND, nearest_rank, tail_percentile, verdict
from benchkit.trace import Tracer

BENCH = Path(__file__).resolve().parents[1]


# --- percentiles ---------------------------------------------------------

def test_nearest_rank_picks_the_ceiling_rank():
    samples = list(range(1, 101))
    assert nearest_rank(samples, 50) == 50
    assert nearest_rank(samples, 99) == 99
    assert nearest_rank(samples, 100) == 100
    assert nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert nearest_rank([7.0], 1) == 7.0


def test_nearest_rank_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)


def test_p99_of_1000_leaves_exactly_ten_beyond():
    samples = [float(i) for i in range(1000)]
    value, percentile = tail_percentile(samples, 99)
    assert percentile == 99.0
    assert sum(1 for s in samples if s > value) == MIN_BEYOND


def test_small_sample_tail_is_capped_to_keep_ten_beyond():
    samples = [float(i) for i in range(188)]  # a typical admission count
    value, percentile = tail_percentile(samples, 95)
    assert sum(1 for s in samples if s > value) == MIN_BEYOND
    assert percentile == pytest.approx(100.0 * 178 / 188)
    assert tail_percentile([float(i) for i in range(200)], 95) == (189.0, 95.0)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * MIN_BEYOND, 99)
    assert tail_percentile([1.0] * (MIN_BEYOND + 1), 99) == (1.0, 100.0 / 11)


# --- failures against attempts -------------------------------------------

def test_checks_count_failures():
    checks = Checks()
    checks.expect("a", True)
    checks.expect("b", False, "detail")
    checks.expect("c", True)
    assert len(checks.items) == 3
    assert checks.failed == 1
    assert checks.items[1] == {"name": "b", "ok": False, "detail": "detail"}


def _fake_workload(failing: set[int] = frozenset()):
    """A workload whose repetition fails its check if its seed is listed."""

    def check(state, output, checks):
        assert output == state["seed"]  # set-up and repetition share the lap seed
        checks.expect(f"rep {output}", output not in failing)

    return SimpleNamespace(
        setup=lambda seed, work_dir: {"seed": seed},
        rep=lambda state, seed: seed,
        check=check,
    )


def test_run_batch_counts_every_check_as_an_attempt(tmp_path):
    outcome = run_batch(_fake_workload(), 1, 0.0, False, tmp_path)
    # seconds=0 still measures MIN_REPS laps; the warm-up is not checked
    assert (outcome.attempted, outcome.failed) == (common.MIN_REPS, 0)
    assert set(outcome.metrics) == set(common.END_TO_END)
    assert len(outcome.details["setups_s"]) == common.MIN_REPS
    assert len(outcome.details["walls_s"]) == common.MIN_REPS


def test_run_batch_reports_a_failed_check(tmp_path):
    outcome = run_batch(_fake_workload({common.lap_seed(1, 2)}), 1, 0.0, False, tmp_path)
    assert (outcome.attempted, outcome.failed) == (common.MIN_REPS, 1)


def test_run_batch_traced_reports_every_layer_metric(tmp_path):
    outcome = run_batch(_fake_workload(), 1, 0.0, True, tmp_path)
    assert set(outcome.metrics) == set(common.LAYER_METRICS)
    # the plain laps and the traced repetition
    assert outcome.attempted == common.PLAIN_REPS + 1


def test_lap_seeds_are_distinct_across_laps_and_runs():
    seeds = {common.lap_seed(run, lap) for run in range(5) for lap in range(50)}
    assert len(seeds) == 5 * 50


def test_repeat_runs_the_minimum_then_stops_when_the_next_lap_would_not_fit():
    laps = []
    assert common.repeat(0.0, laps.append) == common.MIN_REPS
    assert laps == list(range(1, common.MIN_REPS + 1))


def test_repeat_keeps_going_while_laps_fit(monkeypatch):
    clock = iter(range(1000))
    monkeypatch.setattr(common.time, "perf_counter", lambda: float(next(clock)))
    # the clock ticks one second per read; a lap reads it at its start and
    # end (1 s), and each loop test after the minimum reads it once more:
    # 5 laps end at t=10, then laps start at t=12, 15, ..., 30 and the
    # test at t=32 sees 32 + 1 > 30
    assert common.repeat(30.0, lambda index: None) == common.MIN_REPS + 7


class _FlakyClient:
    transport = "fake"
    num_nodes = 10

    def rank(self, node):
        raise ConnectionRefusedError("down")

    def add_edge(self, u, v):
        return u % 2 == 0

    def add_node(self):
        return 10


def test_recorder_turns_transport_errors_into_counted_failures():
    from repro.errors import ServeError

    recorder = Recorder(_FlakyClient())
    with pytest.raises(ServeError):
        recorder.rank(1)
    assert recorder.add_edge(2, 3) is True
    assert recorder.add_edge(1, 3) is False
    recorder.add_node()
    assert recorder.applied == {"add_edge": 1, "remove_edge": 0, "add_node": 1}
    assert len(recorder.pooled()) == 3  # the failed call has no latency sample
    assert len(recorder.pooled(("add_edge",))) == 2


def test_load_generator_counts_failed_requests_against_attempts():
    from repro.serve import LoadConfig, run_load

    class Client(_FlakyClient):
        def admission(self, node, controller=0):
            return {}

        def escape(self):
            return {}

        def stats(self):
            return {}

        def remove_edge(self, u, v):
            return False

    recorder = Recorder(Client())
    report = run_load(recorder, LoadConfig(num_clients=2, num_requests=200, seed=3))
    assert report.errors == 200 - report.total_requests
    assert report.errors == 200 - len(recorder.pooled())
    assert report.errors > 0  # every rank request failed


# --- verdicts ------------------------------------------------------------

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_verdict_better_when_nearly_every_pair_wins_beyond_the_spread():
    change = [v * 0.8 for v in PARENT]
    assert verdict(PARENT, change, 0.1, "lower") == "better"
    assert verdict(change, PARENT, 0.1, "higher") == "better"


def test_verdict_worse_beyond_the_bound():
    change = [v * 1.2 for v in PARENT]
    assert verdict(PARENT, change, 0.1, "lower") == "worse"


def test_verdict_unchanged_within_the_bound():
    change = [v * 1.03 for v in PARENT]
    assert verdict(PARENT, change, 0.1, "lower") == "unchanged"
    assert verdict(PARENT, list(PARENT), 0.1, "lower") == "unchanged"


def test_verdict_unresolved_when_the_spread_exceeds_the_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(PARENT, noisy, 0.1, "lower") == "unresolved"
    # every change run better than every parent run is not a regression
    assert verdict([20.0, 30.0, 25.0], [10.0, 14.0, 12.0], 0.05, "lower") in (
        "better",
        "unchanged",
    )


def test_verdict_rejects_bad_direction():
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], 0.1, "faster")


# --- fingerprint ---------------------------------------------------------

def test_fingerprint_fields(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    info = machine.fingerprint(tmp_path)
    assert info["nproc"] == os.cpu_count()
    assert info["affinity"] == sorted(os.sched_getaffinity(0))
    for key in ("python", "numpy", "scipy", "source_digest"):
        assert info[key]
    assert info["commit"] is None  # no .git here: git is never asked


def test_source_digest_follows_the_code(tmp_path):
    (tmp_path / "src").mkdir()
    target = tmp_path / "src" / "a.py"
    target.write_text("x = 1\n")
    before = machine.source_digest(tmp_path)
    target.write_text("x = 2\n")
    assert machine.source_digest(tmp_path) != before


# --- tracer and metric catalogue -----------------------------------------

def test_tracer_times_calls_and_restores_the_originals():
    import repro.datasets as datasets
    from repro.datasets import registry

    original = registry.dataset_spec
    tracer = Tracer().time("spec", "repro.datasets.registry", "dataset_spec")
    with tracer:
        assert datasets.dataset_spec is not original  # re-exported name wrapped too
        datasets.dataset_spec("wiki_vote")
        registry.dataset_spec("dblp")
    assert registry.dataset_spec is original and datasets.dataset_spec is original
    assert tracer.calls["spec"] == 2
    assert tracer.seconds["spec"] > 0


def test_benchmark_json_matches_the_metric_catalogue():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == [
        "paper_sweep", "sharded_audit", "serve_burst", "privacy_fusion"
    ]


def test_layer_metrics_rejects_undeclared_names():
    from repro.telemetry import Telemetry

    with pytest.raises(KeyError):
        common.layer_metrics(Tracer(), Telemetry(), {"nope": 1.0})


# --- result-set diff -----------------------------------------------------

def _record(workload, seed, trace, metrics):
    return {
        "workload": workload, "seed": seed, "trace": trace, "started": float(seed),
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
    }


def test_diff_gives_one_row_per_workload_with_verdicts_and_the_moved_layer():
    import diff

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parent, change = [], []
    for seed, base in enumerate(PARENT):
        parent.append(_record("a", seed, 0, {"wall_s": base, "cpu_s": base}))
        change.append(_record("a", seed, 0, {"wall_s": base * 0.7, "cpu_s": base}))
        parent.append(_record("b", seed, 0, {"wall_s": base}))
        change.append(_record("b", seed, 0, {"wall_s": base * 1.5}))
    parent.append(_record("a", 0, 1, {"markov.walks_s": 4.0, "mixing.slem_s": 5.0}))
    change.append(_record("a", 0, 1, {"markov.walks_s": 1.0, "mixing.slem_s": 5.1}))
    rows = {row["workload"]: row for row in diff.compare(parent, change, spec)}
    assert set(rows) == {"a", "b"}
    assert rows["a"]["metrics"]["wall_s"]["verdict"] == "better"
    assert rows["a"]["metrics"]["cpu_s"]["verdict"] == "unchanged"
    assert rows["b"]["metrics"]["wall_s"]["verdict"] == "worse"
    assert rows["a"]["most_moved_layer"]["metric"] == "markov.walks_s"
    assert rows["b"]["most_moved_layer"] is None
    assert "a: wall_s" in diff.render(list(rows.values()))
