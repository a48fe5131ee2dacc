"""Binary voxel occupancy grids: binvox I/O, synthetic shapes, datasets.

Cell ordering follows the binvox convention: x-major with y fastest,
flat index = x*dy*dz + z*dy + y. Only `VoxelGrid.from_array`,
`VoxelGrid.to_array` and `mdr.compute_mdr` (which sums the raw cells)
know that order; other modules read cells as (x, y, z) through
`to_array`, never through raw indices.
"""
from __future__ import annotations

import posixpath
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class BinvoxError(ValueError):
    """Malformed binvox stream."""


class DatasetError(ValueError):
    """Inconsistent dataset, manifest, or split."""


SYNTHETIC_CLASSES = ("sphere", "box", "cross", "pyramid")
GRID_SIZE = 30


@dataclass(frozen=True)
class VoxelGrid:
    """Dense binary occupancy over a (dx, dy, dz) lattice."""

    dims: tuple
    occupancy: np.ndarray  # uint8, flat, x-major / y-fastest

    def __post_init__(self):
        dx, dy, dz = self.dims
        if dx <= 0 or dy <= 0 or dz <= 0:
            raise ValueError("grid dimensions must be positive")
        occ = np.asarray(self.occupancy)
        if occ.shape != (dx * dy * dz,):
            raise ValueError(
                f"occupancy length {occ.shape} != dx*dy*dz = {dx * dy * dz}"
            )
        # the raw values: a uint8 cast would wrap 256 to 0 and truncate 1.5 to 1
        if not ((occ == 0) | (occ == 1)).all():
            raise ValueError("occupancy cells must be 0 or 1")
        occ = occ.astype(np.uint8)  # an owned copy, so the caller's array stays writable
        occ.setflags(write=False)
        object.__setattr__(self, "occupancy", occ)

    @classmethod
    def from_array(cls, arr):
        """Build from a bool/int array indexed [x, y, z]."""
        arr = np.asarray(arr)
        dx, dy, dz = arr.shape
        return cls((dx, dy, dz), arr.transpose(0, 2, 1).reshape(-1))

    def to_array(self):
        """Dense occupancy indexed [x, y, z]."""
        dx, dy, dz = self.dims
        return self.occupancy.reshape(dx, dz, dy).transpose(0, 2, 1)

    def __eq__(self, other):
        return (
            isinstance(other, VoxelGrid)
            and self.dims == other.dims
            and np.array_equal(self.occupancy, other.occupancy)
        )


@dataclass(frozen=True)
class LabeledShape:
    """A voxel grid with its 1-based class label and identifier."""

    grid: VoxelGrid
    label: int
    class_name: str
    shape_id: str


@dataclass
class ShapeDataset:
    classes: list
    shapes: list
    split: dict  # shape_id -> "train" | "test"

    def subset(self, part):
        return [s for s in self.shapes if self.split[s.shape_id] == part]


# ---------------------------------------------------------------------------
# binvox format


def load_binvox(data: bytes) -> VoxelGrid:
    """Decode a binvox byte stream (RLE pairs after the `data` line)."""
    nl = data.find(b"\n")
    if nl < 0 or data[:nl].strip() != b"#binvox 1":
        raise BinvoxError("missing '#binvox 1' header")
    pos = nl + 1
    dims = None
    while True:
        nl = data.find(b"\n", pos)
        if nl < 0:
            raise BinvoxError("truncated header")
        line = data[pos:nl].strip()
        pos = nl + 1
        parts = line.split()
        if not parts:
            continue
        if parts[0] == b"dim":
            if len(parts) != 4:
                raise BinvoxError("malformed dim line")
            try:
                dims = tuple(int(p) for p in parts[1:])
            except ValueError as e:
                raise BinvoxError("non-integer dim") from e
        elif parts[0] in (b"translate", b"scale"):
            continue  # parsed and discarded
        elif parts[0] == b"data":
            break
        else:
            raise BinvoxError(f"unexpected header line {line!r}")
    if dims is None:
        raise BinvoxError("missing dim line")
    if min(dims) <= 0:
        raise BinvoxError(f"grid dimensions {dims} must be positive")
    total = dims[0] * dims[1] * dims[2]
    rle = np.frombuffer(data[pos:], dtype=np.uint8)
    if rle.size % 2 != 0:
        raise BinvoxError("odd RLE payload length")
    values = rle[0::2]
    counts = rle[1::2].astype(np.int64)
    if (values > 1).any():
        raise BinvoxError("RLE value octet not in {0, 1}")
    if (counts < 1).any():
        raise BinvoxError("RLE count octet out of [1, 255]")
    if int(counts.sum()) != total:
        raise BinvoxError(
            f"RLE decodes to {int(counts.sum())} cells, expected {total}"
        )
    flat = np.repeat(values, counts)
    return VoxelGrid(dims, flat)


def save_binvox(grid: VoxelGrid) -> bytes:
    """Canonical binvox encoding: maximal runs, capped at 255."""
    dx, dy, dz = grid.dims
    header = (
        f"#binvox 1\ndim {dx} {dy} {dz}\ntranslate 0 0 0\nscale 1\ndata\n"
    ).encode("ascii")
    occ = grid.occupancy
    starts = np.concatenate(([0], np.flatnonzero(np.diff(occ)) + 1))
    full, rest = np.divmod(np.diff(starts, append=occ.size), 255)
    chunks = full + (rest > 0)  # r // 255 chunks of 255 cells, then one of r % 255 if that is not 0
    pairs = np.empty((int(chunks.sum()), 2), np.uint8)
    pairs[:, 0] = np.repeat(occ[starts], chunks)
    pairs[:, 1] = 255
    pairs[np.cumsum(chunks)[rest > 0] - 1, 1] = rest[rest > 0]
    return header + pairs.tobytes()


# ---------------------------------------------------------------------------
# synthetic shapes


def _rng_for(class_name, seed):
    return np.random.default_rng(
        [int(seed) & 0xFFFFFFFFFFFFFFFF, SYNTHETIC_CLASSES.index(class_name)]
    )


def generate_synthetic(class_name, seed):
    """Deterministic 30^3 test shape for the given class and seed."""
    if class_name not in SYNTHETIC_CLASSES:
        raise ValueError(f"unknown synthetic class {class_name!r}")
    rng = _rng_for(class_name, seed)
    n = GRID_SIZE
    arr = np.zeros((n, n, n), dtype=np.uint8)
    coords = np.arange(n)
    if class_name == "sphere":
        radius = rng.uniform(6.0, 11.0)
        center = (n - 1) / 2.0 + rng.uniform(-3.0, 3.0, size=3)
        dist2 = (
            (coords[:, None, None] - center[0]) ** 2
            + (coords[None, :, None] - center[1]) ** 2
            + (coords[None, None, :] - center[2]) ** 2
        )
        arr[dist2 <= radius**2] = 1
    elif class_name == "box":
        edges = rng.integers(10, 23, size=3)
        origin = [int(rng.integers(0, n - e + 1)) for e in edges]
        arr[
            origin[0] : origin[0] + edges[0],
            origin[1] : origin[1] + edges[1],
            origin[2] : origin[2] + edges[2],
        ] = 1
    elif class_name == "cross":
        center = n // 2 + rng.integers(-3, 4, size=3)
        half = 3  # 6x6 bar cross-section
        lo = [max(0, c - half) for c in center]
        hi = [min(n, c + half) for c in center]
        arr[:, lo[1] : hi[1], lo[2] : hi[2]] = 1
        arr[lo[0] : hi[0], :, lo[2] : hi[2]] = 1
        arr[lo[0] : hi[0], lo[1] : hi[1], :] = 1
    else:  # pyramid
        base = int(rng.integers(14, 25))
        cx = n // 2 + int(rng.integers(-2, 3))
        cy = n // 2 + int(rng.integers(-2, 3))
        z0 = int(rng.integers(0, 5))
        width = base
        z = z0
        while width >= 1 and z < n:
            half_lo = width // 2
            half_hi = width - half_lo
            arr[
                max(0, cx - half_lo) : min(n, cx + half_hi),
                max(0, cy - half_lo) : min(n, cy + half_hi),
                z,
            ] = 1
            width -= 2
            z += 1
    return VoxelGrid.from_array(arr)


# ---------------------------------------------------------------------------
# dataset manifests


def train_test_counts(per_class):
    """Deterministic 75/25 split sizes; at least one test shape per class."""
    if per_class < 2:
        raise DatasetError("per-class count must be >= 2 to split")
    n_test = max(1, per_class // 4)
    return per_class - n_test, n_test


def build_synthetic_dataset(classes, per_class, seed):
    """In-memory labeled dataset with a 75/25 split by per-class index."""
    if not classes:
        raise DatasetError("no synthetic class given")
    for c in classes:
        if c not in SYNTHETIC_CLASSES:
            raise DatasetError(f"unknown synthetic class {c!r}")
    if len(set(classes)) != len(classes):
        raise DatasetError(f"a synthetic class is named twice: {list(classes)}")
    n_train, _ = train_test_counts(per_class)
    shapes = []
    split = {}
    for label, cname in enumerate(classes, start=1):
        for i in range(per_class):
            sid = f"{cname}_{i:04d}"
            grid = generate_synthetic(cname, seed * 100003 + i)
            shapes.append(LabeledShape(grid, label, cname, sid))
            split[sid] = "train" if i < n_train else "test"
    return ShapeDataset(list(classes), shapes, split)


def write_atomic(path: Path, data):
    """Write bytes, or text as UTF-8, to a temp file beside `path`, then rename it into place."""
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, bytes):
        tmp.write_bytes(data)
    else:
        tmp.write_text(data, encoding="utf-8")
    tmp.rename(path)


def write_dataset(dataset, out_dir):
    """Write binvox files plus a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for shape in dataset.shapes:
        rel = f"{shape.shape_id}.binvox"
        write_atomic(out_dir / rel, save_binvox(shape.grid))
        lines.append(f"{rel}\t{shape.class_name}\t{dataset.split[shape.shape_id]}")
    manifest = out_dir / "manifest.tsv"
    write_atomic(manifest, "\n".join(lines) + "\n")
    return manifest


def load_dataset(manifest_path):
    """Load a dataset from a manifest of `path<TAB>class<TAB>train|test` lines.

    Each path is normalised lexically, and its shape id is that path
    without `.binvox`. A path that is absolute or leaves the manifest's
    directory, or that gives an earlier line's id again, is a DatasetError."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    classes = []
    shapes = []
    split = {}
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DatasetError(f"manifest is not UTF-8: {e}") from e
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split("\t")
        # a NUL byte cannot be in a file name; open() would raise a bare ValueError
        if len(parts) != 3 or parts[2] not in ("train", "test") or "\0" in parts[0]:
            raise DatasetError(f"bad manifest line {raw!r}")
        path, cname, part = parts
        rel = posixpath.normpath(path)
        if posixpath.isabs(rel) or rel.split("/")[0] == "..":
            raise DatasetError(f"manifest path {path!r} is outside the dataset directory")
        sid = rel.removesuffix(".binvox")
        if sid in split:
            raise DatasetError(f"manifest path {path!r} gives shape id {sid!r} a second time")
        if cname not in classes:
            classes.append(cname)
        grid = load_binvox((base / rel).read_bytes())
        shapes.append(LabeledShape(grid, classes.index(cname) + 1, cname, sid))
        split[sid] = part
    if not shapes:
        raise DatasetError("empty manifest")
    return ShapeDataset(classes, shapes, split)
