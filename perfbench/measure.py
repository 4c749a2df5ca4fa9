"""Measurements of the host and of the process under test, read from /proc.

On a shared virtual machine the hypervisor gives part of each vCPU's time
to other guests and counts it as *steal* in ``/proc/stat``. Latency on the
2-vCPU host the benchmark was sized on rose with steal (``op_p50_ms`` by
about 5.5% per point of steal on ``dashboard``), and steal came and went
within a run. Every slice of a timed phase therefore records the steal
share it saw; a phase runs for the time asked for (:func:`enough`), and the
per-run medians are taken over the quietest slices that cover half of it
(:func:`quiet`). A phase of fixed length keeps the run's wall time, and
with it the time all runs of the benchmark take, from growing with the
host's load.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

# Column of /proc/stat's cpu line that counts stolen time.
STEAL = 7
# ``host.quiet_share`` counts the slices during which at most this share of
# the machine's CPU time went to other guests: one tick in a 0.25 s slice on
# two vCPUs. On ``live``, slices above it were up to 25% slower at p50.
STEAL_LIMIT = 0.02


class Slice(NamedTuple):
    """A run of consecutive ops: one sample of the per-run medians."""

    latencies: list[float]  # seconds, inf = failed
    wall: float  # seconds the slice's ops kept the clients busy
    steal: float  # share of the machine's CPU time stolen meanwhile


def cpu_ticks() -> list[int]:
    """Machine-wide CPU time per state, as ``/proc/stat`` counts it."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    delta = [b - a for a, b in zip(before, after)]
    return delta[STEAL] / max(1, sum(delta))


def enough(slices: list[Slice], seconds: float) -> bool:
    """Whether a phase may stop: its slices cover ``seconds``."""
    return sum(s.wall for s in slices) >= seconds


def quiet(slices: list[Slice]) -> list[Slice]:
    """The quietest slices that together cover half of the phase."""
    half = sum(s.wall for s in slices) / 2
    kept: list[Slice] = []
    covered = 0.0
    for s in sorted(slices, key=lambda s: s.steal):
        if covered >= half:
            break
        kept.append(s)
        covered += s.wall
    return kept


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of a process, in MiB."""
    status = Path(f"/proc/{pid}/status").read_text()
    return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0


def dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in Path(path).iterdir()) / 2**20
