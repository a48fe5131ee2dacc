"""Generator forward passes (slice encoder + ConvLSTM) and file formats.

The encoder maps each normalized 30x30 slice to a 256x2x2 feature map
through four stride-2 conv layers (32, 64, 128, 256 channels), then
scales each slice's feature map to unit root-mean-square. The leaky conv
stack is positively homogeneous, so without that last step the feature
scale grows with the product of the layer weight norms during training
and saturates every ConvLSTM gate. The ConvLSTM consumes the 3k feature
maps in sequence; its final cell state, flattened to 1024 values, is the
shape descriptor (the paper's 3D-DDSD); the hidden state only feeds the
recurrence. On the 2x2 state map each 3x3 "same" gate conv is exactly a
dense map, so `engine.convlstm` runs the recurrence as dense gate GEMMs
from the four gate-stacked ConvLSTM tensors.

These functions take the tensors they run and hold none:
`training.param_shapes` names every parameter, `training.build_model`
draws or adopts them, and `training.Model` holds them in one named dict.
Every parameter is PARAM_DTYPE (float32), and so are the activations,
gradients and Adam moments that follow it through the engine; checkpoint
records are that float32, little-endian, behind a CRC32 of the file.
"""
from __future__ import annotations

import math
import re
import struct
import zlib
from collections import Counter

import numpy as np

from . import engine

ENCODER_CHANNELS = (32, 64, 128, 256)
ENCODER_KERNEL = 4
ENCODER_STRIDE = 2
LSTM_CHANNELS = 256
LSTM_KERNEL = 3
LSTM_SPATIAL = 2
DESCRIPTOR_DIM = LSTM_CHANNELS * LSTM_SPATIAL * LSTM_SPATIAL  # 1024
LEAKY_SLOPE = 0.2
# the dtype of every parameter; initial values are float64 draws rounded to it
PARAM_DTYPE = np.float32

# Refused: MDRNET1 checkpoints predate the feature normalization in
# encode_slice, so their weights would give different descriptors; MDRNET2
# ones hold float64 records and no checksum.
CHECKPOINT_MAGIC = b"MDRNET3"


class NetworkError(ValueError):
    """Shape mismatch, malformed parameter set, or malformed file."""


# ---------------------------------------------------------------------------
# forward passes (each takes a leading batch axis)


def encode_slice(layers, slice_input):
    """Shared conv stack of (kernels, bias) `layers` over a (B, 1, H, W)
    batch of slices, an array or Tensor; returns the (B, 256, h, w)
    feature maps, 2x2 for 30x30 slices.

    Each slice's (C, h, w) output is scaled to unit root-mean-square, so
    the ConvLSTM sees the same input scale however large the conv
    weights grow; an all-zero feature map stays zero.
    """
    x = slice_input
    for w, b in layers:
        x = engine.conv2d(x, w, b, stride=ENCODER_STRIDE)
        x = engine.leaky_rectifier(x, LEAKY_SLOPE)
    return engine.rms_normalize(x, axes=(-3, -2, -1))


def run_convlstm(features, w_x, w_h, w_c, b):
    """Fold a (B, T, C, H, W) feature sequence into its (B, C*H*W) final
    cell state, the shape descriptor; the four gate-stacked tensors are
    those `engine.convlstm` takes."""
    _, c = engine.convlstm(features, w_x, w_h, w_c, b)
    return engine.reshape(c, (c.shape[0], -1))


# ---------------------------------------------------------------------------
# checkpoint serialization


def save_records(records):
    """Serialize an ordered {name: float array} mapping: the magic; per
    record the name length, UTF-8 name, rank and shape as little-endian
    u32s, then the values as C-order little-endian float32; last a
    little-endian u32 CRC32 of every byte before it. The model's float32
    arrays are joined as they are, with no widened or staged copy.
    A count record (mode, n_classes, k, epoch, Adam t) is an integer below
    2^24, which float32 holds exactly."""
    parts = [CHECKPOINT_MAGIC]
    for name, array in records.items():
        nb = name.encode("utf-8")
        array = np.asarray(array, "<f4", order="C")
        parts += (struct.pack(f"<I{len(nb)}sI{array.ndim}I", len(nb), nb, array.ndim, *array.shape), array)
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(struct.pack("<I", crc))
    return b"".join(parts)


def load_records(data):
    """Inverse of save_records as read-only float32 views of `data`. The
    checksum is checked first, so a changed byte or a cut anywhere is a
    NetworkError; in bytes whose checksum holds, so is a truncated record,
    a non-UTF-8 name or a name that appears twice."""
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise NetworkError("bad checkpoint magic")
    view = memoryview(data).toreadonly()
    pos, end = len(CHECKPOINT_MAGIC), len(view) - 4
    if end < pos or zlib.crc32(view[:end]) != int.from_bytes(view[end:], "little"):
        raise NetworkError("checkpoint checksum does not match: the file is corrupt or cut short")

    def take(nbytes, what):
        nonlocal pos
        if nbytes > end - pos:
            raise NetworkError(f"checkpoint truncated in {what} at byte {pos}")
        pos += nbytes
        return view[pos - nbytes : pos]

    records = {}
    while pos < end:
        (nlen,) = struct.unpack("<I", take(4, "a record name length"))
        try:
            name = str(take(nlen, "a record name"), "utf-8")
        except UnicodeDecodeError as e:
            raise NetworkError(f"record name before byte {pos} is not UTF-8") from e
        if name in records:
            raise NetworkError(f"checkpoint repeats record {name}")
        (ndim,) = struct.unpack("<I", take(4, f"the rank of {name}"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"the shape of {name}"))
        payload = take(4 * math.prod(shape), f"the values of {name}")
        try:
            records[name] = np.frombuffer(payload, dtype="<f4").reshape(shape)
        except ValueError as e:  # a rank numpy cannot hold
            raise NetworkError(f"record {name} has rank {ndim}: {e}") from e
    return records


# ---------------------------------------------------------------------------
# descriptor files


def save_descriptors(ids, descriptors):
    """UTF-8 descriptor table: header plus one 1024-value line per shape."""
    descriptors = np.asarray(descriptors, dtype=np.float64)
    if descriptors.ndim != 2 or descriptors.shape[1] != DESCRIPTOR_DIM:
        raise NetworkError(f"descriptors must be (n, {DESCRIPTOR_DIM})")
    row = " ".join(["%.17g"] * DESCRIPTOR_DIM)
    lines = [f"DDSD n={len(ids)} dim={DESCRIPTOR_DIM}"]
    for sid, vec in zip(ids, descriptors):
        lines.append(sid + "\t" + row % tuple(vec.tolist()))
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_descriptors(data):
    """Inverse of save_descriptors: ids and an (n, 1024) array, n = 0 too.
    A malformed table, or one listing a shape id twice, is a NetworkError."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise NetworkError(f"descriptor file is not UTF-8: {e}") from e
    header = re.fullmatch(r"DDSD n=([0-9]{1,18}) dim=([0-9]{1,18})", lines[0]) if lines else None
    if header is None:
        raise NetworkError("bad descriptor file header")
    n, dim = map(int, header.groups())
    if dim != DESCRIPTOR_DIM:
        raise NetworkError(f"descriptor dim {dim} != {DESCRIPTOR_DIM}")
    ids, vecs = [], []
    for line in lines[1:]:
        if not line.strip():
            continue
        sid, _, payload = line.partition("\t")
        try:
            vec = np.array(payload.split(), dtype=np.float64)
        except ValueError as e:
            raise NetworkError(f"descriptor for {sid} is not numeric") from e
        if vec.size != dim:
            raise NetworkError(f"descriptor for {sid} has {vec.size} values, expected {dim}")
        if not np.isfinite(vec).all():
            raise NetworkError(f"descriptor for {sid} is not finite")
        ids.append(sid)
        vecs.append(vec)
    if len(ids) != n:
        raise NetworkError("descriptor count does not match header")
    if len(set(ids)) != n:
        repeated = Counter(ids).most_common(1)[0][0]
        raise NetworkError(f"descriptor file lists shape id {repeated!r} more than once")
    return ids, np.array(vecs).reshape(n, dim)
