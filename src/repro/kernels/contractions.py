"""Per-slice compressed-domain contraction kernels.

This module is the single home of the slice-parallel einsum kernels used by
both the classic entry points in :mod:`repro.core._ops` and the cached
:class:`~repro.kernels.workspace.SweepWorkspace` path.  Two families live
here:

* **fused kernels** (``w_chunk``, ``mode1_chunk``, ``mode2_chunk``) — the
  original operations that rebuild the per-slice projections ``A(1)ᵀU_l`` /
  ``V_lᵀA(2)`` on every call;
* **projection-cached kernels** (``*_from_projections_chunk``) — the same
  final contraction applied to *precomputed* projection stacks, so a
  projection computed once per factor update can be shared by every kernel
  that needs it.

Bit-identity contract: each fused kernel computes its projections with
exactly the einsum expressions of :func:`project_left_chunk` /
:func:`project_right_chunk`, and every output element depends on a single
slice ``l`` — so (a) feeding cached projections to the ``*_from_projections``
kernels reproduces the fused results bit for bit, and (b) chunked execution
over any slice partition equals the one-shot einsum.  The parity suite in
``tests/test_kernels.py`` pins both properties across all backends.

All kernels are module level so the process backend can pickle them, and
accept an optional ``out=`` so the inline (no-engine) path can write into
preallocated workspace buffers; ``numpy.einsum`` honours ``out=`` without
changing the computation.
"""

from __future__ import annotations

import numpy as np

from ..engine import ExecutionBackend, chunked, concat_chunks
from ..engine.array_api import array_module_of

__all__ = [
    "project_left_chunk",
    "project_right_chunk",
    "w_chunk",
    "mode1_chunk",
    "mode2_chunk",
    "w_from_projections_chunk",
    "mode1_from_projection_chunk",
    "mode2_from_projection_chunk",
    "stack_to_tensor",
    "dispatch_slices",
]


def _einsum(subscripts: str, *operands, out=None):
    """Namespace-dispatched einsum (``np.einsum(optimize=True)`` for NumPy)."""
    return array_module_of(*operands).einsum(subscripts, *operands, out=out)


# -- projection kernels ------------------------------------------------------

def project_left_chunk(
    u: np.ndarray, *, a1: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-slice ``A(1)ᵀ U_l`` stacked as ``(L, J1, K)``."""
    return _einsum("lik,ia->lak", u, a1, out=out)


def project_right_chunk(
    vt: np.ndarray, *, a2: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-slice ``V_lᵀ A(2)`` stacked as ``(L, K, J2)``."""
    return _einsum("lki,ib->lkb", vt, a2, out=out)


# -- fused kernels (recompute projections per call) --------------------------

def w_chunk(
    u: np.ndarray,
    s: np.ndarray,
    vt: np.ndarray,
    *,
    a1: np.ndarray,
    a2: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``W_l = (A(1)ᵀU_l) diag(s_l) (V_lᵀA(2))`` for one slice range."""
    au = project_left_chunk(u, a1=a1)
    av = project_right_chunk(vt, a2=a2)
    return w_from_projections_chunk(au, s, av, out=out)


def mode1_chunk(
    u: np.ndarray,
    s: np.ndarray,
    vt: np.ndarray,
    *,
    a2: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``U_l diag(s_l) (V_lᵀA(2))`` for one slice range (mode 1 kept)."""
    av = project_right_chunk(vt, a2=a2)
    return mode1_from_projection_chunk(u, s, av, out=out)


def mode2_chunk(
    u: np.ndarray,
    s: np.ndarray,
    vt: np.ndarray,
    *,
    a1: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``(A(1)ᵀU_l) diag(s_l) V_lᵀ`` for one slice range (mode 2 kept)."""
    au = project_left_chunk(u, a1=a1)
    return mode2_from_projection_chunk(au, s, vt, out=out)


# -- projection-cached kernels -----------------------------------------------

def w_from_projections_chunk(
    au: np.ndarray, s: np.ndarray, av: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Final ``W`` contraction from cached ``A(1)ᵀU`` / ``VᵀA(2)`` stacks."""
    return _einsum("lak,lk,lkb->lab", au, s, av, out=out)


def mode1_from_projection_chunk(
    u: np.ndarray, s: np.ndarray, av: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Mode-1 partial from the cached ``VᵀA(2)`` stack."""
    return _einsum("lik,lk,lkb->lib", u, s, av, out=out)


def mode2_from_projection_chunk(
    au: np.ndarray, s: np.ndarray, vt: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Mode-2 partial from the cached ``A(1)ᵀU`` stack."""
    return _einsum("lak,lk,lki->lai", au, s, vt, out=out)


# -- shaping -----------------------------------------------------------------

def stack_to_tensor(stack: np.ndarray, trailing: tuple[int, ...]) -> np.ndarray:
    """Reshape an ``(L, a, b)`` slice stack to an ``(a, b, *trailing)`` tensor.

    The slice index is Fortran-ordered over the trailing modes, matching
    :func:`repro.tensor.slices.to_slices`.
    """
    am = array_module_of(stack)
    moved = am.moveaxis(stack, 0, 2)  # (a, b, L)
    shape = tuple(int(d) for d in stack.shape[1:3]) + tuple(trailing)
    return am.reshape(moved, shape, order="F")


# -- dispatch ----------------------------------------------------------------

def dispatch_slices(
    engine: ExecutionBackend | None,
    kernel,
    n_items: int,
    slabs: tuple[np.ndarray, ...],
    broadcast: dict[str, np.ndarray],
    *,
    out: np.ndarray | None = None,
    costs: np.ndarray | None = None,
    schedule: str | None = None,
) -> np.ndarray:
    """Run a per-slice kernel inline or as engine chunks, optionally into ``out``.

    Inline execution passes ``out`` straight to the kernel's einsum; engine
    execution keeps the chunk protocol (fresh per-chunk arrays, required by
    the process backend) and concatenates the ordered results into ``out``.
    Both routes produce values identical to the unbuffered call.  ``costs``
    and ``schedule`` are forwarded to :func:`~repro.engine.chunked` — the
    sweep workspace supplies per-slice contraction flop weights so dynamic
    dispatches order their queues by actual work.
    """
    if engine is None:
        return kernel(*slabs, **broadcast, out=out)
    if out is None:
        return chunked(
            engine, kernel, n_items, slabs=slabs, broadcast=broadcast,
            reduce=concat_chunks, costs=costs, schedule=schedule,
        )
    def _concat_into(parts):
        return array_module_of(out, *parts).concatenate(parts, axis=0, out=out)

    return chunked(
        engine, kernel, n_items, slabs=slabs, broadcast=broadcast,
        reduce=_concat_into, costs=costs, schedule=schedule,
    )
