"""The correctness yardstick: a plain-NumPy HOOI, independent of ``repro``.

No library change can move this reference, so ``error_ratio`` (the
program's relative error over the reference's, same tensor and ranks)
stays comparable across commits.  Every contraction works on the thin
side of the C-ordered tensor without a transpose copy: the Gram of the
4000-row mode of airquality is never formed, because HOOI starts by
updating the largest mode from the others' initial factors.
"""

from __future__ import annotations

import math

import numpy as np

HOOI_MAX_SWEEPS = 50
HOOI_TOL = 1e-7
#: The mode Grams gather the unfolding this many bytes at a time.
GRAM_CHUNK_BYTES = 8 << 20


def ttm(x: np.ndarray, a_t: np.ndarray, mode: int) -> np.ndarray:
    """``x ×_mode a_t`` for a C-contiguous ``x`` and ``a_t`` of shape ``(J, I_mode)``."""
    shape = x.shape
    front = int(np.prod(shape[:mode], dtype=np.int64))
    back = int(np.prod(shape[mode + 1:], dtype=np.int64))
    j = a_t.shape[0]
    x = np.ascontiguousarray(x)
    if mode == 0:
        out = a_t @ x.reshape(shape[0], back)
    elif mode == x.ndim - 1:
        out = x.reshape(front, shape[mode]) @ a_t.T
    else:
        out = np.matmul(a_t, x.reshape(front, shape[mode], back))
    return out.reshape(shape[:mode] + (j,) + shape[mode + 1:])


def project(x: np.ndarray, factors, skip: "int | None" = None) -> np.ndarray:
    """``x`` multiplied by every ``factors[m]ᵀ`` except mode ``skip``.

    Modes are contracted largest reduction first, so the first product
    shrinks the tensor the most.
    """
    modes = [m for m in range(x.ndim) if m != skip]
    modes.sort(key=lambda m: factors[m].shape[1] / x.shape[m])
    y = x
    for m in modes:
        y = ttm(y, factors[m].T, m)
    return y


def _mode_gram(x: np.ndarray, mode: int) -> np.ndarray:
    """``X₍ₙ₎ X₍ₙ₎ᵀ``, gathering the unfolding a few MiB at a time."""
    shape = x.shape
    front = int(np.prod(shape[:mode], dtype=np.int64))
    back = int(np.prod(shape[mode + 1:], dtype=np.int64))
    m = np.ascontiguousarray(x).reshape(front, shape[mode], back)
    if front == 1:
        return m[0] @ m[0].T
    if back == 1:
        return m[:, :, 0].T @ m[:, :, 0]
    step = max(1, GRAM_CHUNK_BYTES // (shape[mode] * back * 8))
    gram = np.zeros((shape[mode], shape[mode]))
    for lo in range(0, front, step):
        part = np.moveaxis(m[lo:lo + step], 1, 0).reshape(shape[mode], -1)
        gram += part @ part.T
    return gram


def _leading(matrix: np.ndarray, rank: int) -> np.ndarray:
    u, _, _ = np.linalg.svd(matrix, full_matrices=False)
    return u[:, :rank]


def _unfold(y: np.ndarray, mode: int) -> np.ndarray:
    return np.moveaxis(y, mode, 0).reshape(y.shape[mode], -1)


def relative_error(x: np.ndarray, core: np.ndarray, factors) -> float:
    """``‖x − core ×ₙ Aₙ‖ / ‖x‖`` for column-orthonormal factors.

    Uses ``‖x‖² − 2⟨x ×ₙ Aₙᵀ, core⟩ + ‖core‖²``, which never forms the
    reconstruction.
    """
    norm2 = float(np.vdot(x, x))
    p = project(x, factors)
    err2 = norm2 - 2.0 * float(np.vdot(p, core)) + float(np.vdot(core, core))
    return math.sqrt(max(err2, 0.0) / norm2)


def hooi(x: np.ndarray, ranks):
    """Tucker decomposition by HOOI; returns ``(core, factors, rel_error)``.

    Initial factors of every mode but the largest are the leading
    eigenvectors of the mode Grams; sweeps update the largest mode first
    and stop once the relative error changes by less than ``HOOI_TOL`` (or
    after ``HOOI_MAX_SWEEPS``).
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    ranks = [int(r) for r in ranks]
    first = int(np.argmax(x.shape))
    factors: list = [None] * x.ndim
    for n in range(x.ndim):
        if n != first:
            _, vecs = np.linalg.eigh(_mode_gram(x, n))
            factors[n] = vecs[:, ::-1][:, : ranks[n]]
    order = [first] + [n for n in range(x.ndim) if n != first]
    norm2 = float(np.vdot(x, x))
    prev = math.inf
    core = None
    for _ in range(HOOI_MAX_SWEEPS):
        for n in order:
            y = project(x, factors, skip=n)
            factors[n] = _leading(_unfold(y, n), ranks[n])
        core = ttm(y, factors[order[-1]].T, order[-1])
        err = math.sqrt(max(norm2 - float(np.vdot(core, core)), 0.0) / norm2)
        if abs(prev - err) < HOOI_TOL:
            break
        prev = err
    return core, factors, relative_error(x, core, factors)
