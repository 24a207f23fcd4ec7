"""Seeded workload inputs: tensors, the serving query sequence, stream blocks.

The workload seed drives the data and the query sequence only; every
solver call uses the fixed ``SOLVER_SEED``.  The same seed gives the same
inputs in every process.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

#: Solver seed for every fit, query and stream (fixed: not the workload seed).
SOLVER_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "fit" | "serve" | "stream"
    dataset: str
    scale: str
    ranks: tuple[int, ...]
    why: str
    #: Fits per round; a serve-stock round is its query sequence and a
    #: stream-walking round its 50 blocks.
    ops_per_round: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fit-boats", "fit", "boats", "default", (10, 10, 10),
            "1200 small 120x90 slices: the approximation phase is ~90% of the "
            "fit, so per-call LAPACK overhead and the layout copy show here",
            ops_per_round=2,
        ),
        Workload(
            "fit-airquality", "fit", "airquality", "large", (6, 6, 6),
            "six tall 4000x376 slices: big-slice SVD and layout dominate, so a "
            "many-small-slice gain that costs large slices shows here",
            ops_per_round=4,
        ),
        Workload(
            "serve-stock", "serve", "stock", "default", (10, 10, 10),
            "time-range queries on a stored model: no approximation phase; "
            "init, compressed ALS, result cache, range index and store reads",
        ),
        Workload(
            "stream-walking", "stream", "walking", "large", (10, 10, 10),
            "durable ingest (incremental partial_fit of 16 steps + checkpoint "
            "save): the store's write side beside the streaming workspace",
        ),
    )
}

#: serve-stock's round: 72 distinct ranges (more than the 32-entry LRU
#: result cache of ``ModelStore.open`` holds) plus 24 repeats of a recent
#: range — a quarter of the queries.  Of the 72 computed queries exactly
#: ``SERVE_MISSES`` (the most common count) find no cached range
#: overlapping half of theirs (cold misses); the rest warm-start.  Left to
#: chance the miss count moves with the seed, and misses cost more than
#: warm starts.  The round is this long because per-query ALS sweep counts
#: vary with the data and the range: with 36 distinct ranges, rounds of
#: different seeds differed by up to 18% on the same machine.
SERVE_DISTINCT = 72
SERVE_REPEATS = 24
SERVE_MISSES = 9
SERVE_MIN_LEN = 16
SERVE_CACHE = 32
#: stream-walking: warm window, block length and window size.
STREAM_WARM = 400
STREAM_BLOCK = 16
STREAM_WINDOW = 400


def make_tensor(workload: Workload, seed: int) -> np.ndarray:
    """The workload's C-ordered float64 tensor for ``seed``."""
    from repro.datasets.registry import load_dataset

    x = load_dataset(workload.dataset, workload.scale, seed=int(seed)).tensor
    return np.ascontiguousarray(x, dtype=np.float64)


def cache_outcomes(seq) -> list[str]:
    """``"hit"``/``"warm"``/``"miss"`` per query, by the serving cache's rules.

    Mirrors ``ServedModel``'s LRU result cache: an exact repeat is a hit;
    otherwise a cached range overlapping at least half of the request
    warm-starts it; every computed answer is cached, evicting the least
    recently used entry beyond ``SERVE_CACHE``.
    """
    cache: OrderedDict = OrderedDict()
    out = []
    for r in seq:
        if r in cache:
            cache.move_to_end(r)
            out.append("hit")
            continue
        t0, t1 = r
        warm = any(2 * (min(t1, b) - max(t0, a)) >= t1 - t0 and min(t1, b) > max(t0, a)
                   for a, b in cache)
        out.append("warm" if warm else "miss")
        cache[r] = None
        while len(cache) > SERVE_CACHE:
            cache.popitem(last=False)
    return out


def query_sequence(seed: int, extent: int) -> list[tuple[int, int]]:
    """One round of serve-stock: ``SERVE_DISTINCT + SERVE_REPEATS`` ranges.

    Lengths are log-uniform from ``SERVE_MIN_LEN`` to ``extent // 2`` on a
    fixed grid (the midpoints of equal-width log bins).  The seed draws the
    order, the start of every range and where repeats fall, redrawing until
    exactly ``SERVE_MISSES`` queries are cold (:func:`cache_outcomes`), so the
    round's cost mix does not move with the seed.  Each repeat re-issues
    one of the four most recent distinct ranges: a guaranteed hit.
    """
    rng = np.random.default_rng([int(seed), 1])
    lo, hi = math.log(SERVE_MIN_LEN), math.log(extent // 2)
    u = (np.arange(SERVE_DISTINCT) + 0.5) / SERVE_DISTINCT
    grid = np.rint(np.exp(lo + u * (hi - lo))).astype(int)
    for _ in range(10_000):
        seq = _draw_sequence(rng, grid, extent)
        if cache_outcomes(seq).count("miss") == SERVE_MISSES:
            return seq
    raise ValueError(f"no query sequence with {SERVE_MISSES} cold misses for extent {extent}")


def _draw_sequence(rng, grid, extent: int) -> list[tuple[int, int]]:
    lengths = rng.permutation(grid)
    distinct: list[tuple[int, int]] = []
    for length in lengths:
        while True:
            t0 = int(rng.integers(0, extent - int(length) + 1))
            candidate = (t0, t0 + int(length))
            if candidate not in distinct:
                break
        distinct.append(candidate)
    # Repeats go after the first four distinct ranges, never two in a row.
    slots = set(rng.choice(np.arange(4, SERVE_DISTINCT), SERVE_REPEATS, replace=False).tolist())
    seq: list[tuple[int, int]] = []
    for i, r in enumerate(distinct):
        seq.append(r)
        if i in slots:
            seq.append(distinct[i - int(rng.integers(0, 4))])
    return seq


def stream_blocks(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The warm window and the 16-step blocks after it, as contiguous arrays."""
    warm = np.ascontiguousarray(x[..., :STREAM_WARM])
    blocks = [
        np.ascontiguousarray(x[..., t:t + STREAM_BLOCK])
        for t in range(STREAM_WARM, x.shape[-1] - STREAM_BLOCK + 1, STREAM_BLOCK)
    ]
    return warm, blocks
