"""Machine fingerprint and process resource readings for result records."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
from pathlib import Path


def source_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of every ``*.py`` in ``src``.

    Identifies the measured code even in a checkout that is not a git
    repository.
    """
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit(root: Path) -> str | None:
    """The checked-out commit, or ``None`` outside a git work tree.

    Only asks git when ``root`` itself holds ``.git``, so git never
    searches the directories above the checkout.
    """
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def fingerprint(root: Path) -> dict:
    """nproc, CPU affinity, interpreter and library versions, and the code."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": commit(root),
        "source_digest": source_digest(root),
    }


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_cpu_seconds(pid: int) -> float:
    """User + system CPU of a running child, from ``/proc/<pid>/stat``."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # fields after the parenthesized command name; utime and stime are
    # the 14th and 15th fields of the whole line
    fields = stat[stat.rindex(")") + 2 :].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def child_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a running child, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
