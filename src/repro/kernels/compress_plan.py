"""Input-adaptive planning for the approximation (compression) phase.

The approximation phase factors ``L`` slice matrices of identical shape
``(I1, I2)``.  Three algorithms can produce the truncated SVD of such a
stack, with very different cost profiles:

* **exact** — batched ``numpy.linalg.svd``: ``O(M·m²)`` per slice with a
  large constant; unbeatable only when the short side is already
  rank-sized (a sketch would span the whole side anyway).
* **gram** — eigendecomposition of the ``m × m`` Gram matrix
  (:func:`repro.linalg.rsvd.batched_svd_via_gram`): one ``M·m²`` GEMM plus
  an ``O(m³)`` eig; wins when one side is much shorter than the other but
  still larger than the sketch size.
* **rsvd** — randomized SVD with a shared test matrix
  (:func:`repro.linalg.rsvd.batched_rsvd`): ``O(M·m·k)`` with
  ``k = rank + oversampling``; wins on squarish slices where ``k ≪ m``.

:func:`plan_compression` picks among them with the flop model of
:func:`estimate_costs` (``strategy="auto"``), reproduces the historical
dispatch for ``strategy="rsvd"``, or honours an explicit ``"gram"`` /
``"exact"`` request.  :func:`execute_plan` then runs the chosen method
through the execution engine: it draws (or receives) *one* Gaussian test
matrix per slab, broadcasts it to every chunk, and each chunk kernel
(:func:`compress_chunk`) streams its slices in cache-sized blocks —
gather into a contiguous buffer, norms, sketch ``block @ Ω``, factor,
write into preallocated outputs.  No slab-sized copy or sketch is ever
made, and since every batched LAPACK/BLAS call runs once per matrix the
factors are bitwise those of one batched call on the whole slab.

The cost constants were calibrated on batched NumPy/LAPACK timings (QR and
eig/SVD flops carry much larger constants than GEMM flops); they only need
to rank the three methods correctly, not predict wall time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..engine import ExecutionBackend, chunked, concat_chunks
from ..engine.array_api import get_module, resolve_device
from ..engine.blas import BLOCK_BYTES, gather_into
from ..exceptions import RankError, ShapeError
from ..linalg.rsvd import _batched_sign_fix, batched_rsvd, batched_svd_via_gram
from ..tensor.random import default_rng
from .buffers import BufferPool
from .stats import KernelStats

__all__ = [
    "CompressionPlan",
    "estimate_costs",
    "estimate_device_costs",
    "plan_compression",
    "plan_from_config",
    "plan_item_costs",
    "execute_plan",
    "compress_chunk",
    "factor_nbytes",
    "slab_norms",
]

#: Methods a plan can select.
_METHODS = ("exact", "gram", "rsvd")

# Relative per-flop weights of the building blocks, calibrated against
# batched NumPy timings on (L, I1, I2) stacks.  GEMM flops are the unit.
_C_EIG = 8.0  # eigh on the Gram matrix, per m³
_C_QR = 4.0  # batched QR, per M·k² flop block
_C_SVD_EXACT = 20.0  # full LAPACK SVD tail, per m³
_C_SVD_SMALL = 20.0  # SVD of the small (k, n) projection, per k³

# Device-placement constants (flop-equivalent units, calibrated against the
# same GEMM-flop scale as the method constants above).  An accelerator runs
# the batched GEMM/QR work roughly an order of magnitude faster than the
# host BLAS, but every slab byte must cross PCIe twice (slab up, factors
# down) at an effective cost of tens of host flops per byte — so small
# slabs stay on the CPU under ``strategy="auto"`` and only
# transfer-amortised ones move.
_DEVICE_SPEEDUP = 8.0  # host-flops of work retired per device "flop"
_XFER_FLOPS_PER_BYTE = 24.0  # host-flop-equivalents per transferred byte


@dataclass(frozen=True)
class CompressionPlan:
    """The planner's decision for one ``(L, I1, I2)`` slab.

    Attributes
    ----------
    method:
        Chosen algorithm: ``"exact"``, ``"gram"``, or ``"rsvd"``.
    strategy:
        The strategy that was requested (``"auto"``, ``"rsvd"``, …).
    k_eff:
        Sketch width ``min(rank + oversampling, min(I1, I2))``; the number
        of Gaussian test vectors the rsvd method draws.
    power_iterations:
        Subspace iterations the rsvd method will run.
    compute_dtype:
        Dtype the slab is factored in (norm accumulation stays float64).
    costs:
        Estimated per-slice flop costs for all three methods (for
        introspection and benchmarks), from :func:`estimate_costs`.
    device:
        Where the slab runs: ``"cpu"`` (the historical host path, default)
        or an array-namespace name (``"torch"``, ``"torch-cuda"``,
        ``"cupy"``).  ``strategy="auto"`` places the slab by the calibrated
        transfer + kernel cost model of :func:`estimate_device_costs`;
        explicit strategies honour the requested device directly.
    device_costs:
        Estimated total (transfer + kernel) cost per placement from
        :func:`estimate_device_costs`; empty when only the CPU was ever a
        candidate.
    """

    method: str
    strategy: str
    k_eff: int
    power_iterations: int
    compute_dtype: np.dtype
    costs: dict[str, float] = field(default_factory=dict)
    device: str = "cpu"
    device_costs: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view (used by the planner benchmark)."""
        return {
            "method": self.method,
            "strategy": self.strategy,
            "k_eff": self.k_eff,
            "power_iterations": self.power_iterations,
            "compute_dtype": str(np.dtype(self.compute_dtype)),
            "costs": dict(self.costs),
            "device": self.device,
            "device_costs": dict(self.device_costs),
        }


def estimate_costs(
    i1: int,
    i2: int,
    rank: int,
    *,
    oversampling: int = 10,
    power_iterations: int = 1,
) -> dict[str, float]:
    """Per-slice flop estimates for the three compression methods.

    With ``m = min(I1, I2)``, ``M = max(I1, I2)``, ``r = rank``,
    ``k = min(r + oversampling, m)`` and ``p = power_iterations``:

    * ``exact``: ``6·M·m²`` (bidiagonalisation) + ``20·m³`` (SVD tail);
    * ``gram``: ``M·m²`` (Gram GEMM) + ``8·m³`` (eigh) + ``M·m·r``
      (recovering the long-side factor);
    * ``rsvd``: ``(2 + 2p)·M·m·k`` (sketch + power-iteration GEMMs)
      + QR and small-SVD terms in ``k``.

    Only the *ranking* of the three numbers matters; see the module
    docstring for how the constants were calibrated.
    """
    m = float(min(int(i1), int(i2)))
    big = float(max(int(i1), int(i2)))
    r = float(int(rank))
    p = float(max(0, int(power_iterations)))
    k = float(min(int(rank) + max(0, int(oversampling)), int(m)))
    exact = 6.0 * big * m * m + _C_SVD_EXACT * m**3
    gram = big * m * m + _C_EIG * m**3 + big * m * r
    rsvd = (
        (2.0 + 2.0 * p) * big * m * k
        + _C_QR * ((1.0 + p) * big * k * k + p * m * k * k)
        + 6.0 * m * k * k
        + _C_SVD_SMALL * k**3
    )
    return {"exact": exact, "gram": gram, "rsvd": rsvd}


def factor_nbytes(
    i1: int,
    i2: int,
    rank: int,
    *,
    n_slices: int = 1,
    dtype: "np.dtype | type" = np.float64,
    norms: bool = True,
) -> int:
    """Bytes of the compressed ``(U, s, Vᵀ[, norms])`` triples per slab.

    The D-Tucker invariant in byte form: ``n_slices · (I1 + I2 + 1) · K``
    factor entries (plus one float64 norm per slice when ``norms``) —
    independent of the slab width ``I1·I2``.  This is the payload that
    crosses a boundary whenever compressed slices do: device→host
    downloads (:func:`estimate_device_costs`) and shard→coordinator
    shipping in the distributed layer both price traffic with it.
    """
    l = int(n_slices)
    itemsize = int(np.dtype(dtype).itemsize)
    total = l * (int(i1) + int(i2) + 1) * int(rank) * itemsize
    if norms:
        total += l * np.dtype(np.float64).itemsize
    return total


def estimate_device_costs(
    i1: int,
    i2: int,
    rank: int,
    *,
    n_slices: int = 1,
    method_cost: float,
    dtype: "np.dtype | type" = np.float64,
    device: str = "cuda",
) -> dict[str, float]:
    """Total (kernel + transfer) cost of one slab per placement.

    The CPU runs the chosen method at its :func:`estimate_costs` flop cost.
    A device retires the same flops ``_DEVICE_SPEEDUP`` times faster, but
    pays ``_XFER_FLOPS_PER_BYTE`` host-flop-equivalents for every byte of
    the slab shipped up and every byte of the ``(U, s, Vᵀ)`` factors
    shipped back.  The calibration only needs to *rank* the placements:
    transfer-dominated (small or skinny) slabs land on the CPU, compute-
    dominated ones on the device.  Keyed per ``(I1, I2, K, dtype)`` via the
    arguments; ``n_slices`` scales both terms linearly, so the ranking is
    batch-size independent unless transfer and kernel costs cross.
    """
    l = float(max(1, int(n_slices)))
    itemsize = float(np.dtype(dtype).itemsize)
    kernel = l * float(method_cost)
    slab_bytes = l * float(int(i1)) * float(int(i2)) * itemsize
    factor_bytes = l * (int(i1) + int(i2) + 1.0) * float(int(rank)) * itemsize
    xfer = _XFER_FLOPS_PER_BYTE * (slab_bytes + factor_bytes)
    return {
        "cpu": kernel,
        str(device): kernel / _DEVICE_SPEEDUP + xfer,
    }


def plan_compression(
    i1: int,
    i2: int,
    rank: int,
    *,
    strategy: str = "auto",
    precision: str = "float64",
    oversampling: int = 10,
    power_iterations: int = 1,
    exact_slice_svd: bool = False,
    device: str = "cpu",
    n_slices: int = 1,
) -> CompressionPlan:
    """Choose the compression method for slices of shape ``(i1, i2)``.

    ``strategy="rsvd"`` reproduces the historical dispatch exactly (Gram
    when ``min(I1, I2) <= 2·(rank + oversampling)``, randomized SVD
    otherwise), so existing seeds keep their bit-identical results.
    ``strategy="auto"`` consults :func:`estimate_costs`: the exact SVD for
    tall-skinny slices whose short side the sketch would span entirely,
    else the cheaper of Gram and rsvd.  ``"gram"``/``"exact"`` force those
    methods.  ``exact_slice_svd=True`` (the ablation reference knob)
    overrides everything.

    ``device`` names where the slab *may* run (``"cpu"`` — the default and
    the historical behaviour — or a resolved accelerator namespace).  With
    an accelerator offered, ``strategy="auto"`` additionally decides
    *where* via :func:`estimate_device_costs` (``n_slices`` sizes the
    slab); any explicit strategy honours the offered device directly.
    """
    m = min(int(i1), int(i2))
    r = int(rank)
    if r < 1 or r > m:
        raise RankError(f"rank {rank} invalid for slice shape ({i1}, {i2})")
    if precision not in ("float64", "float32"):
        raise ShapeError(f"precision must be 'float64' or 'float32', got {precision!r}")
    over = max(0, int(oversampling))
    k_nom = r + over
    costs = estimate_costs(
        i1, i2, r, oversampling=over, power_iterations=power_iterations
    )
    if exact_slice_svd or strategy == "exact":
        method = "exact"
    elif strategy == "gram":
        method = "gram"
    elif strategy == "rsvd":
        # Historical dispatch: the Gram shortcut when one slice side is
        # already rank-sized, the randomized path otherwise.
        method = "gram" if m <= 2 * k_nom else "rsvd"
    elif strategy == "auto":
        if m <= k_nom:
            # The sketch would span the whole short side: randomization
            # saves nothing, and the exact SVD is the accuracy optimum.
            method = "exact"
        else:
            method = "gram" if costs["gram"] <= costs["rsvd"] else "rsvd"
    else:
        raise ShapeError(
            f"strategy must be one of auto, rsvd, gram, exact; got {strategy!r}"
        )
    compute_dtype = np.dtype(np.float32 if precision == "float32" else np.float64)
    dev = str(device).lower().replace("_", "-")
    if dev in ("", "auto", "numpy"):
        dev = "cpu"
    device_costs: dict[str, float] = {}
    placed = "cpu"
    if dev != "cpu":
        device_costs = estimate_device_costs(
            i1,
            i2,
            rank,
            n_slices=n_slices,
            method_cost=costs[method],
            dtype=compute_dtype,
            device=dev,
        )
        if strategy == "auto":
            placed = min(device_costs, key=device_costs.get)
        else:
            placed = dev
    return CompressionPlan(
        method=method,
        strategy=strategy,
        k_eff=min(k_nom, m),
        power_iterations=max(0, int(power_iterations)),
        compute_dtype=compute_dtype,
        costs=costs,
        device=placed,
        device_costs=device_costs,
    )


def plan_from_config(
    i1: int, i2: int, rank: int, config, *, n_slices: int = 1
) -> CompressionPlan:
    """:func:`plan_compression` with knobs taken from a ``DTuckerConfig``.

    The config's ``device`` spec is resolved here (``"auto"`` honours the
    ``REPRO_DEVICE`` environment variable, then CPU), so the plan's
    ``device`` is always a concrete namespace name.  Requesting a namespace
    that is not installed raises at planning time with an actionable
    message rather than mid-phase.
    """
    module = resolve_device(None, config=config)
    return plan_compression(
        i1,
        i2,
        rank,
        strategy=config.strategy,
        precision=config.precision,
        oversampling=max(0, int(config.oversampling)),
        power_iterations=int(config.power_iterations),
        exact_slice_svd=bool(config.exact_slice_svd),
        device="cpu" if module.is_numpy else module.name,
        n_slices=n_slices,
    )


def plan_item_costs(plan: CompressionPlan, n_items: int) -> np.ndarray:
    """Per-slice scheduling cost of a plan's chosen method.

    Slices of one slab share a shape, so the per-slice cost is uniform
    *within* the slab — but it differs *across* slabs whose shapes or
    planned methods differ.  Sources that mix slab shapes (block sources,
    out-of-core batches) combine these arrays into one cost model so the
    scheduler balances heavy-method slices against light ones; see
    :mod:`repro.engine.cost`.
    """
    per_slice = float(plan.costs.get(plan.method, 1.0)) or 1.0
    return np.full(int(n_items), per_slice)


def slab_norms(stack: np.ndarray) -> np.ndarray:
    """Per-slice ``‖X_l‖_F²`` with float64 accumulation regardless of dtype."""
    if stack.dtype == np.float64:
        return np.einsum("lij,lij->l", stack, stack, optimize=True)
    return np.einsum("lij,lij->l", stack, stack, optimize=True, dtype=np.float64)


# -- the block kernel (module level so the process backend can pickle it) ---

def compress_chunk(
    stack: np.ndarray,
    *,
    method: str,
    rank: int,
    dtype: str = "float64",
    power_iterations: int = 0,
    omega: np.ndarray | None = None,
    pool: BufferPool | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factor one chunk of a slice stack, one cache-sized block at a time.

    A block holds as many whole slices as fit in
    :data:`~repro.engine.blas.BLOCK_BYTES` (at least one).  Each block is
    gathered into a contiguous ``dtype`` buffer, its float64-accumulated
    norms are taken, it is factored with ``method`` — ``"rsvd"`` from the
    sketch ``block @ omega``, ``"gram"``, or the exact SVD — and its
    ``(U, s, Vᵀ)`` rows land in preallocated outputs.  Every batched
    LAPACK/BLAS call runs once per matrix, so the factors are bitwise those
    of one batched call on a contiguous copy of the whole chunk, whatever
    the chunk's layout or the block size.

    ``pool`` supplies the block buffer, one slot per calling thread so
    concurrent chunks never share one; without it the buffer is allocated
    per call.
    """
    l, i1, i2 = stack.shape
    dt = np.dtype(dtype)
    if method == "rsvd":
        if omega is None:
            raise ShapeError("the rsvd method needs a test matrix (omega)")
        om = np.asarray(omega, dtype=dt)
    elif method not in ("exact", "gram"):
        raise ShapeError(f"unknown plan method {method!r}")
    u = np.empty((l, i1, rank), dt)
    s = np.empty((l, rank), dt)
    vt = np.empty((l, rank, i2), dt)
    norms = np.empty(l)
    step = min(l, max(1, BLOCK_BYTES // (i1 * i2 * dt.itemsize)))
    shape = (step, i1, i2)
    if pool is not None:
        buf = pool.take(f"compress:block:{threading.get_ident()}", shape, dt)
    else:
        buf = np.empty(shape, dt)
    for lo in range(0, l, step):
        hi = min(lo + step, l)
        blk = gather_into(buf[: hi - lo], stack[lo:hi])
        norms[lo:hi] = slab_norms(blk)
        if method == "exact":
            bu, bs, bvt = np.linalg.svd(blk, full_matrices=False)
            bu, bvt = _batched_sign_fix(bu[:, :, :rank], bvt[:, :rank, :])
            bs = bs[:, :rank]
        elif method == "gram":
            bu, bs, bvt = batched_svd_via_gram(blk, rank)
        else:
            bu, bs, bvt = batched_rsvd(
                blk, rank, power_iterations=power_iterations, sketch=blk @ om
            )
        u[lo:hi], s[lo:hi], vt[lo:hi] = bu, bs, bvt
    return u, s, vt, norms


def _concat_factors(parts: list[tuple]) -> tuple:
    """Ordered chunk reduce; a lone chunk's fresh outputs pass through."""
    return parts[0] if len(parts) == 1 else concat_chunks(parts)


def _execute_plan_device(
    stack: np.ndarray,
    rank: int,
    plan: CompressionPlan,
    omega: "np.ndarray | None",
    *,
    stats: KernelStats | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run a device-placed plan inline: upload the slab, factor, download.

    The per-slice norms accumulate on the host slab in float64 *before* the
    upload (same code as the CPU path); the factorization itself runs
    through the batched generic paths of :mod:`repro.linalg.rsvd` on the
    plan's device.  Transfers are tallied on ``stats`` as ``xfer:h2d`` /
    ``xfer:d2h``.  Factors return as host arrays, so the resulting
    :class:`~repro.core.slice_svd.SliceSVD` is host-resident either way.
    """
    am = get_module(plan.device)
    norms = slab_norms(stack)
    dev = am.to_device(stack)
    if stats is not None:
        stats.record_transfer("h2d", stack.nbytes)
    if plan.method == "exact":
        u, s, vt = am.svd(dev)
        u, s, vt = u[:, :, :rank], s[:, :rank], vt[:, :rank, :]
        u, vt = _batched_sign_fix(u, vt)
    elif plan.method == "gram":
        u, s, vt = batched_svd_via_gram(dev, rank)
    else:
        om_dev = am.to_device(omega)
        if stats is not None:
            stats.record_transfer("h2d", omega.nbytes)
        y = am.matmul(dev, om_dev)
        u, s, vt = batched_rsvd(
            dev, rank, power_iterations=plan.power_iterations, sketch=y
        )
    u, s, vt = am.from_device(u), am.from_device(s), am.from_device(vt)
    if stats is not None:
        for arr in (u, s, vt):
            stats.record_transfer("d2h", arr.nbytes)
    return u, np.ascontiguousarray(s), vt, norms


def execute_plan(
    engine: ExecutionBackend,
    stack: np.ndarray,
    rank: int,
    plan: CompressionPlan,
    *,
    rng: int | np.random.Generator | None = None,
    omega: np.ndarray | None = None,
    pool: BufferPool | None = None,
    stats: KernelStats | None = None,
    chunk_size: int | None = None,
    costs: "np.ndarray | None" = None,
    schedule: str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run a :class:`CompressionPlan` on one ``(L, I1, I2)`` slab.

    Parameters
    ----------
    engine:
        Live execution backend; the factorization fans out in chunks along
        the slice axis (bitwise identical to the unchunked batched call,
        because every batched LAPACK/BLAS primitive is a per-matrix loop).
    stack:
        The slab, in any memory layout (typically a strided slice view of
        the caller's tensor).  It is never copied whole: each chunk kernel
        (:func:`compress_chunk`) gathers cache-sized blocks of slices into
        a contiguous ``plan.compute_dtype`` buffer, casting on the way, and
        takes norms, sketch and factors on that buffer.  The results
        therefore do not depend on the caller's layout.
    rank:
        Truncation rank ``K``.
    plan:
        The decision from :func:`plan_compression`.
    rng:
        Seed or generator for the test-matrix draw (rsvd method only).
    omega:
        Pre-drawn test matrix of shape ``(I2, plan.k_eff)``; the
        out-of-core path draws all batches' matrices upfront in batch
        order so results do not depend on scheduling.  Overrides ``rng``.
    pool:
        Optional :class:`~repro.kernels.buffers.BufferPool` supplying the
        block buffers (one slot per worker thread), so repeated slabs
        (out-of-core batches, repeated fits) reuse them.  Ignored on the
        process backend, whose workers cannot share the caller's memory.
    stats:
        Optional :class:`~repro.kernels.stats.KernelStats`; records the
        planner decision (``plan:<method>`` miss) and each test-matrix
        draw (``sketch`` miss).
    costs:
        Optional per-slice scheduling costs (e.g. nnz from a sparse
        source, or :func:`plan_item_costs` combined with IO weights);
        ``None`` lets the scheduler treat slices as uniform — correct
        here, since one slab's slices share a shape.
    schedule:
        Scheduling-policy override forwarded to :func:`~repro.engine
        .chunked` (``None`` uses the engine's configured policy).

    Returns
    -------
    tuple
        ``(U, s, Vt, norms)`` — factors in ``plan.compute_dtype``, per-slice
        squared norms always in float64.
    """
    a = np.asarray(stack)
    if a.ndim != 3:
        raise ShapeError(f"stack must be 3-D (L, I1, I2), got shape {a.shape}")
    l, i1, i2 = a.shape
    if stats is not None:
        stats.record_miss(f"plan:{plan.method}")
    om = None
    if plan.method == "rsvd":
        if omega is None:
            omega = default_rng(rng).standard_normal((i2, plan.k_eff))
        om = np.asarray(omega, dtype=plan.compute_dtype)
        if om.shape != (i2, plan.k_eff):
            raise ShapeError(
                f"omega must have shape ({i2}, {plan.k_eff}), got {om.shape}"
            )
        if stats is not None:
            stats.record_miss("sketch")
    if plan.device != "cpu":
        return _execute_plan_device(
            np.asarray(a, dtype=plan.compute_dtype), rank, plan, om, stats=stats
        )
    broadcast = {
        "method": plan.method,
        "rank": int(rank),
        "dtype": np.dtype(plan.compute_dtype).str,
        "power_iterations": plan.power_iterations,
        "omega": om,
    }
    if pool is not None and engine.name != "process":
        broadcast["pool"] = pool
    return chunked(
        engine,
        compress_chunk,
        l,
        slabs=(a,),
        broadcast=broadcast,
        chunk_size=chunk_size,
        reduce=_concat_factors,
        costs=costs,
        schedule=schedule,
    )
