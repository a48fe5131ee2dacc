"""Dense slice sequences: pack a voxel grid into 3k 2D occupancy-sum slices.

The grid is cut into k equal-thickness segments along each axis (z, then
x, then y); each segment is summed along its axis into a 2D integer
slice. Segment ranges are half-open [i*n, (i+1)*n) so the k slices of an
axis partition the grid exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .voxel import VoxelGrid

AXIS_ORDER = ("z", "x", "y")


class MdrError(ValueError):
    """Invalid slicing parameter or slice index."""


@dataclass(frozen=True)
class MdrSequence:
    """3k integer slices, k per axis in z, x, y order."""

    k: int
    n: int  # segment thickness along the sliced axis
    slices: np.ndarray  # (3k, H, W) int64, values in [0, n], read-only


def valid_slice_counts(dim):
    return [k for k in range(1, dim + 1) if dim % k == 0]


def compute_mdr(grid: VoxelGrid, k: int) -> MdrSequence:
    """Sum k half-open segments of a cubic grid along each of z, x, y."""
    dx, dy, dz = grid.dims
    if k <= 0:
        raise MdrError("k must be positive")
    if not dx == dy == dz:
        raise MdrError(f"grid {dx}x{dy}x{dz} is not a cube")
    if dx % k != 0:
        raise MdrError(f"k={k} does not divide dimension {dx}; valid divisors: {valid_slice_counts(dx)}")
    n = dx // k
    occ = grid.occupancy.reshape(dx, dx, dx)  # the raw [x, z, y] order
    acc = np.min_scalar_type(n)  # a segment sums at most n cells of 0 or 1
    slices = np.empty((3 * k, dx, dx), np.int64)
    # z segments -> rows x, cols y; x segments -> rows y, cols z; y segments -> rows x, cols z
    slices[:k] = np.einsum("xkny->kxy", occ.reshape(dx, k, n, dx), dtype=acc)
    slices[k : 2 * k] = np.einsum("knzy->kyz", occ.reshape(k, n, dx, dx), dtype=acc)
    slices[2 * k :] = np.einsum("xzkn->kxz", occ.reshape(dx, dx, k, n), dtype=acc)
    slices.setflags(write=False)
    return MdrSequence(k=k, n=n, slices=slices)


def normalize_mdr(seq: MdrSequence) -> np.ndarray:
    """The (3k, H, W) float64 slices scaled by 1/n, so cells lie in [0, 1]."""
    return seq.slices / seq.n


def slice_name(seq: MdrSequence, index: int) -> str:
    axis = AXIS_ORDER[index // seq.k]
    return f"{axis}{index % seq.k}"


def export_slice_pgm(seq: MdrSequence, index: int) -> bytes:
    """Binary PGM (P5) of one slice, scaled so a full column maps to 255."""
    if not 0 <= index < 3 * seq.k:
        raise MdrError(f"slice index {index} out of [0, {3 * seq.k})")
    sl = seq.slices[index]
    pixels = np.rint(255.0 * sl / seq.n).astype(np.uint8)
    h, w = sl.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


def export_mdr_text(seq: MdrSequence) -> str:
    """Flat text form: header line, then one 900-integer line per slice."""
    dim = seq.slices.shape[1]
    lines = [f"MDR k={seq.k} dim={dim}"]
    for sl in seq.slices:
        lines.append(" ".join(str(int(v)) for v in sl.reshape(-1)))
    return "\n".join(lines) + "\n"
