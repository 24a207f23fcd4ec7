"""Slice-matrix views of a dense tensor.

D-Tucker's approximation phase views an order-``N`` tensor
``X ∈ R^{I1×…×IN}`` as ``L = I3·…·IN`` *slice matrices* ``X_l ∈ R^{I1×I2}``:
the first two modes span each slice, all remaining modes are flattened into
the slice index ``l`` (mode 3 fastest, matching the Fortran ordering of the
library-wide unfolding convention).

Two identities make this layout useful (both verified by the test suite):

* ``unfold(X, 0) == hstack([X_1, …, X_L])``
* ``unfold(X, 1) == hstack([X_1.T, …, X_L.T])``

so the mode-1/mode-2 unfoldings of the whole tensor decompose into per-slice
blocks, and any per-slice SVD immediately factors those unfoldings.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..exceptions import ShapeError
from ..validation import as_tensor

__all__ = [
    "slice_count",
    "to_slices",
    "from_slices",
    "iter_slices",
    "slice_index_to_multi",
    "multi_to_slice_index",
]


def slice_count(shape: Sequence[int]) -> int:
    """Number of ``I1×I2`` slices of a tensor with the given ``shape``.

    For order-2 tensors there is exactly one slice (the matrix itself).
    """
    full_shape = tuple(int(s) for s in shape)
    if len(full_shape) < 2:
        raise ShapeError(f"slices require order >= 2, got shape {full_shape}")
    return int(np.prod(full_shape[2:], dtype=np.int64)) if len(full_shape) > 2 else 1


def to_slices(tensor: np.ndarray) -> np.ndarray:
    """Reshape ``tensor`` to a slice stack of shape ``(I1, I2, L)``.

    The result is a view whenever the input is Fortran-compatible along the
    trailing modes; otherwise NumPy copies.  Values are not scanned for
    NaN/Inf: this is a reshape, and the entry points that call it validate
    their input once.

    Parameters
    ----------
    tensor:
        Order-``N >= 2`` array.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(I1, I2, L)`` whose ``[:, :, l]`` is slice ``l``.
    """
    x = as_tensor(tensor, min_order=2, name="tensor", finite=False)
    i1, i2 = x.shape[:2]
    return x.reshape((i1, i2, -1), order="F")


def from_slices(slices: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Invert :func:`to_slices` for a tensor of the given full ``shape``."""
    s = as_tensor(slices, min_order=2, name="slices")
    full_shape = tuple(int(d) for d in shape)
    if len(full_shape) < 2:
        raise ShapeError(f"target shape must have order >= 2, got {full_shape}")
    expected = (full_shape[0], full_shape[1], slice_count(full_shape))
    stacked = s if s.ndim == 3 else s.reshape(s.shape + (1,))
    if stacked.shape != expected:
        raise ShapeError(
            f"slice stack shape {stacked.shape} inconsistent with target "
            f"{full_shape} (expected {expected})"
        )
    return stacked.reshape(full_shape, order="F")


def iter_slices(tensor: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the ``L`` slice matrices of ``tensor`` in slice-index order."""
    stack = to_slices(tensor)
    for l in range(stack.shape[2]):
        yield stack[:, :, l]


def slice_index_to_multi(l: int, shape: Sequence[int]) -> tuple[int, ...]:
    """Map a flat slice index to the multi-index over modes ``3..N``.

    Parameters
    ----------
    l:
        Flat slice index in ``[0, L)``.
    shape:
        Full tensor shape.

    Returns
    -------
    tuple of int
        Indices ``(i_3, ..., i_N)``; empty for order-2 tensors.
    """
    full_shape = tuple(int(s) for s in shape)
    count = slice_count(full_shape)
    if not 0 <= l < count:
        raise ShapeError(f"slice index {l} out of range [0, {count})")
    trailing = full_shape[2:]
    if not trailing:
        return ()
    return tuple(int(i) for i in np.unravel_index(l, trailing, order="F"))


def multi_to_slice_index(multi: Sequence[int], shape: Sequence[int]) -> int:
    """Inverse of :func:`slice_index_to_multi`."""
    full_shape = tuple(int(s) for s in shape)
    trailing = full_shape[2:]
    if len(multi) != len(trailing):
        raise ShapeError(
            f"multi-index {tuple(multi)} must have {len(trailing)} entries"
        )
    if not trailing:
        return 0
    return int(np.ravel_multi_index(tuple(int(i) for i in multi), trailing, order="F"))
