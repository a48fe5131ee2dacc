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
gradients and Adam moments that follow it through the engine. A checkpoint
holds that float32, little-endian, behind seven u32 counts and in front of
a CRC32 of the file. It names no array: `training.param_shapes` fixes
the order, and the file stores a CRC32 of that table to refuse another.
"""
from __future__ import annotations

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
# ones hold float64 records and no checksum; MDRNET3 ones hold named records.
CHECKPOINT_MAGIC = b"MDRNET4"
# mode id, classes, k, epoch, generator Adam t, head Adam t, layout id
CHECKPOINT_COUNTS = 7
_HEADER = struct.Struct(f"<{len(CHECKPOINT_MAGIC)}s{CHECKPOINT_COUNTS}I")


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


def save_records(counts, arrays):
    """Serialize a checkpoint: the magic, the CHECKPOINT_COUNTS `counts` as
    little-endian u32s, the values of every array of `arrays` as C-order
    little-endian float32 back to back, then a little-endian u32 CRC32 of
    every byte before it. The model's float32 arrays are joined as they
    are, with no widened or staged copy. `training.Trainer.save` decides
    what the counts and arrays are."""
    parts = [_HEADER.pack(CHECKPOINT_MAGIC, *counts), *(np.asarray(a, "<f4", order="C") for a in arrays)]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(struct.pack("<I", crc))
    return b"".join(parts)


def load_records(data):
    """Inverse of save_records: the counts as a tuple of ints and every
    value as one flat read-only float32 view of `data`. The checksum is
    checked first, so a changed byte or a cut anywhere is a NetworkError;
    so, in bytes whose checksum holds, is a body of no whole value count."""
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise NetworkError("bad checkpoint magic")
    view = memoryview(data).toreadonly()
    end = len(view) - 4
    if end < _HEADER.size or zlib.crc32(view[:end]) != int.from_bytes(view[end:], "little"):
        raise NetworkError("checkpoint checksum does not match: the file is corrupt or cut short")
    if (end - _HEADER.size) % 4:
        raise NetworkError(f"checkpoint body of {end - _HEADER.size} bytes is not whole float32 values")
    return _HEADER.unpack(view[: _HEADER.size])[1:], np.frombuffer(view[_HEADER.size : end], "<f4")


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
