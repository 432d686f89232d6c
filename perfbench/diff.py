"""Compare two sets of benchmark result records, one row per workload.

Usage, from the root of a checkout::

    python3 perfbench/diff.py PARENT_DIR CHANGE_DIR

Each directory holds the records ``perfbench/run.py`` writes (one JSON
file per run, any mix of workloads and seeds).  For every workload and
every end-to-end metric of ``BENCHMARK.json`` the row gives each side's
median and quartiles over its untraced runs and a verdict (better,
worse, unchanged or unresolved; see :func:`benchkit.stats.verdict`).
Runs are paired by seed for the win count.  From the traced runs the row
names the per-layer metric whose median moved most, as a share of the
parent's median.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchkit.stats import quartiles, verdict  # noqa: E402


def load_records(directory: Path) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]
    return sorted(records, key=lambda r: (r["seed"], r["started"]))


def series(records: list[dict], workload: str, trace: int, metric: str) -> list[float]:
    return [
        r["metrics"][metric]["value"]
        for r in records
        if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]
    ]


def most_moved(parent: list[dict], change: list[dict], workload: str) -> dict | None:
    """The per-layer metric with the largest relative change of its median."""
    names = {
        name
        for r in parent + change
        if r["workload"] == workload and r["trace"] == 1
        for name in r["metrics"]
    }
    best = None
    for name in sorted(names):
        a = series(parent, workload, 1, name)
        b = series(change, workload, 1, name)
        if not a or not b:
            continue
        med_a, med_b = quartiles(a)[1], quartiles(b)[1]
        if med_a == med_b:
            continue
        share = (med_b - med_a) / abs(med_a) if med_a else float("inf")
        if best is None or abs(share) > abs(best["share"]):
            best = {"metric": name, "parent": med_a, "change": med_b, "share": share}
    return best


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[dict]:
    rows = []
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    for workload in workloads:
        row = {"workload": workload, "metrics": {}}
        for metric in spec["end_to_end"]:
            a = series(parent, workload, 0, metric["name"])
            b = series(change, workload, 0, metric["name"])
            if not a or not b:
                continue
            row["metrics"][metric["name"]] = {
                "parent": quartiles(a),
                "change": quartiles(b),
                "runs": [len(a), len(b)],
                "verdict": verdict(a, b, metric["bound"], metric["better"]),
            }
        row["most_moved_layer"] = most_moved(parent, change, workload)
        rows.append(row)
    return rows


def render(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        cells = []
        for name, m in row["metrics"].items():
            (a1, a2, a3), (b1, b2, b3) = m["parent"], m["change"]
            cells.append(
                f"{name} {a2:.4g} [{a1:.4g}, {a3:.4g}] -> {b2:.4g} [{b1:.4g}, {b3:.4g}] "
                f"({m['runs'][0]} vs {m['runs'][1]} runs) {m['verdict']}"
            )
        moved = row["most_moved_layer"]
        if moved:
            cells.append(
                f"most moved layer: {moved['metric']} {moved['parent']:.4g} -> "
                f"{moved['change']:.4g} ({moved['share']:+.1%})"
            )
        lines.append(f"{row['workload']}: " + "; ".join(cells))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rows = compare(load_records(args.parent), load_records(args.change), spec)
    print(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
