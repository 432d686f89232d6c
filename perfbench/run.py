"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the workload a few times plainly, then once under
the layer tracer, and reports the per-layer metrics and the tracing
overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full result
record (metrics, checks, machine fingerprint) is written to
``perfbench/results/`` or ``--out``; scratch files go to
``perfbench/_work/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_sweep", "sharded_audit", "serve_burst", "privacy_fusion")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=HERE / "results",
        help="directory for the result record (default: perfbench/results)",
    )
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: Path):
    from benchkit import common

    if name == "serve_burst":
        from benchkit import serve_burst

        return serve_burst.run(ROOT, seed, seconds, trace, work_dir)
    module = importlib.import_module(f"benchkit.{name}")
    return common.run_batch(module, seed, seconds, trace, work_dir)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from benchkit.machine import fingerprint

    # a terminated run still cleans up and stops the server it spawned
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work_dir = HERE / "_work" / f"{args.workload}-{os.getpid()}-{time.time_ns()}"
    work_dir.mkdir(parents=True)
    started = time.time()
    try:
        outcome = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "machine": fingerprint(ROOT),
        **result,
        "checks": outcome.checks,
        "details": outcome.details,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    for check in outcome.checks:
        print(f"{'ok  ' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    for name, metric in outcome.metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"record: {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
