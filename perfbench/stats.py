"""The benchmark's own arithmetic and environment record."""
from __future__ import annotations

import math
import os
import platform
import statistics
from typing import Sequence

TAIL_BEYOND = 10  # a percentile is reported only with this many samples above it


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail_percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct`` percentile (nearest rank), only when at least
    ``TAIL_BEYOND`` samples lie above its rank; otherwise ValueError."""
    n = len(values)
    rank = math.ceil(pct / 100.0 * n)  # 1-based nearest rank
    if n - rank < TAIL_BEYOND:
        raise ValueError(
            f"p{pct:g} of {n} samples leaves {n - rank} beyond it; need {TAIL_BEYOND}"
        )
    return sorted(values)[rank - 1]


def failed_ratio(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operation attempted")
    return failed / attempted


def environment() -> dict:
    """Python, numpy, kernel backend, numba availability, CPUs and load.

    Imports ``textrkm.kernels``, so call it only once the program is on the
    import path.
    """
    import numpy
    from textrkm import kernels

    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.backend(),
        "numba_importable": have_numba,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg_start": list(os.getloadavg()),
    }
