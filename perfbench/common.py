"""Small helpers shared by the benchmark: statistics, metric names, probes.

Nothing here imports :mod:`repro`; the statistics and the metric-name
grammar are unit-tested on their own (``perfbench/tests``).
"""

from __future__ import annotations

import math
import os
import re
import statistics
import time
from pathlib import Path

import numpy as np

#: Metric and workload names: a letter or digit, then up to 63 letters,
#: digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Units: up to 16 letters, digits, ``_``, ``/``, ``%``, ``.`` and ``-``.
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: The run's BLAS pinning, applied before NumPy loads (see ``run.py``).
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

MIB = float(2**20)


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.match(unit))


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def tail(values) -> "tuple[float, int, float] | None":
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, n, value)`` — for ``n`` samples the percentile is
    ``floor(100 * (n - 10) / n)`` and the value is the sample at that rank
    (nearest-rank) — or ``None`` below 20 samples, where no percentile above
    the median has ten samples beyond it.
    """
    data = sorted(float(v) for v in values)
    n = len(data)
    if n < 20:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100.0 * n))  # nearest-rank, 1-based
    return float(pct), n, data[rank - 1]


def gemm_probe(n: int = 384, reps: int = 5) -> float:
    """Best-of-``reps`` GFLOP/s of one ``n × n`` float64 GEMM (plain NumPy).

    Printed at the start and end of every timed run: when it moves with
    ``op_s`` the machine drifted, when ``op_s`` moves alone the program did.
    """
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    out = np.empty((n, n))
    best = math.inf
    for _ in range(reps):
        t = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - t)
    return 2.0 * n**3 / best / 1e9


def copy_probe(nbytes: int, reps: int = 3) -> float:
    """Best-of-``reps`` GiB/s of a streaming copy (read + write counted)."""
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    best = math.inf
    for _ in range(reps):
        t = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t)
    del src, dst
    return 2.0 * nbytes / best / 2**30


def dir_stats(path: Path) -> tuple[int, int]:
    """``(bytes, files)`` of the regular files under ``path``."""
    total = files = 0
    for p in Path(path).rglob("*"):
        if p.is_file():
            total += p.stat().st_size
            files += 1
    return total, files


def orthonormal(factors, tol: float = 1e-8) -> bool:
    """Every factor has orthonormal columns to within ``tol``."""
    for a in factors:
        a = np.asarray(a, dtype=float)
        gram = a.T @ a
        if not np.all(np.isfinite(gram)):
            return False
        if np.max(np.abs(gram - np.eye(gram.shape[0]))) > tol:
            return False
    return True


def env_report() -> str:
    pinned = " ".join(f"{v}={os.environ.get(v, '-')}" for v in THREAD_VARS[:3])
    stray = sorted(k for k in os.environ if k.startswith("REPRO_"))
    return f"env: {pinned} REPRO_*={','.join(stray) or 'unset'}"
