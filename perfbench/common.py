"""Shared paths and measurement helpers.

Importing this module puts the checkout's ``src/`` on ``sys.path``, so
the benchmark runs the program from source wherever it is checked out.
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for WALs and child output; always inside the checkout.
TMP = ROOT / ".perfbench_tmp"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


#: Width of the windows whose median a rate or latency figure reports.
WINDOW_S = 1.0


def _windows(start: float, end: float) -> int:
    return max(1, int((end - start) // WINDOW_S))


def window_rate(times: Sequence[float], start: float, end: float) -> float:
    """Median over one-second windows of events per second.

    A median of windows resists a few seconds of interference from
    other work on the host better than one rate over the whole span.
    A span shorter than one window is one window of its own length.
    """
    width = min(WINDOW_S, end - start)
    counts = [0] * _windows(start, end)
    for t in times:
        slot = int((t - start) // width)
        if 0 <= slot < len(counts):
            counts[slot] += 1
    return median(counts) / width


def window_percentile(samples: Sequence[Tuple[float, float]], start: float, end: float,
                      q: float) -> float:
    """Median over one-second windows of each window's ``q``-th percentile.

    ``samples`` are ``(time, value)``; windows without samples are skipped.
    """
    buckets: List[List[float]] = [[] for _ in range(_windows(start, end))]
    for t, value in samples:
        slot = int((t - start) // WINDOW_S)
        if 0 <= slot < len(buckets):
            buckets[slot].append(value)
    return median([percentile(b, q) for b in buckets if b])


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, in seconds."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
