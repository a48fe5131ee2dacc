"""Generator layers (slice encoder + ConvLSTM), initialisers and file formats.

The encoder maps each normalized 30x30 slice to a 256x2x2 feature map
through four stride-2 conv layers (32, 64, 128, 256 channels), then
scales each slice's feature map to unit root-mean-square. The leaky conv
stack is positively homogeneous, so without that last step the feature
scale grows with the product of the layer weight norms during training
and saturates every ConvLSTM gate. The ConvLSTM consumes the 3k feature
maps in sequence; its final cell state, flattened to 1024 values, is the
shape descriptor (the paper's 3D-DDSD); the hidden state only feeds the
recurrence. On the 2x2 state map each 3x3 "same" gate conv is exactly a
dense map, so the recurrence runs as dense gate GEMMs
(`engine.convlstm`): the four input kernels and the four recurrent
kernels are unrolled into two (4096, 1024) matrices on every forward,
the input projection of all B*3k slices is one GEMM, and each step adds
one recurrent GEMM and the gate arithmetic. The matrices are derived
from the four stored ConvLSTM tensors (gate-stacked input kernels,
recurrent kernels, peepholes and biases) and never saved.

`training.Model` is the one place these layers and the FC head (built by
`init_mlp`) are assembled into a model and run. Every parameter is
PARAM_DTYPE (float32), and so are the activations, gradients and Adam
moments that follow it through the engine; checkpoint records stay
little-endian float64, which holds every float32 value exactly.
"""
from __future__ import annotations

import io
import math
import re
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import Tensor

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

# MDRNET1 checkpoints predate the feature normalization in encode_slice:
# their weights would give different descriptors, so they are refused.
CHECKPOINT_MAGIC = b"MDRNET2"


class NetworkError(ValueError):
    """Shape mismatch, malformed parameter set, or malformed file."""


@dataclass
class SliceEncoderParams:
    """Conv stack shared across all slices: list of (kernels, bias)."""

    layers: list

    def tensors(self):
        out = []
        for i, (w, b) in enumerate(self.layers):
            out.append((f"gen.enc{i}.w", w))
            out.append((f"gen.enc{i}.b", b))
        return out


@dataclass
class ConvLstmParams:
    """One cell's parameters, stacked by gate in the order i, f, c, o, as
    `engine.convlstm` reads them.

    w_x, w_h: (4, C, C, kh, kw) input and recurrent kernels;
    w_c: (3, C, H, W) Hadamard peepholes of i, f and o; b: (4, C) biases.
    """

    w_x: Tensor
    w_h: Tensor
    w_c: Tensor
    b: Tensor

    def tensors(self):
        return [(f"gen.lstm.{n}", getattr(self, n)) for n in ("w_x", "w_h", "w_c", "b")]


def _uniform_fan_in(rng, shape, fan_in):
    s = np.sqrt(1.0 / fan_in)
    return Tensor(rng.uniform(-s, s, size=shape).astype(PARAM_DTYPE), requires_grad=True)


def init_encoder(rng):
    layers = []
    prev = 1  # one density channel per slice
    for c in ENCODER_CHANNELS:
        fan_in = prev * ENCODER_KERNEL * ENCODER_KERNEL
        w = _uniform_fan_in(rng, (c, prev, ENCODER_KERNEL, ENCODER_KERNEL), fan_in)
        b = Tensor(np.zeros(c, PARAM_DTYPE), requires_grad=True)
        layers.append((w, b))
        prev = c
    return SliceEncoderParams(layers)


def init_convlstm(rng):
    channels, side = LSTM_CHANNELS, LSTM_SPATIAL
    kern = (channels, channels, LSTM_KERNEL, LSTM_KERNEL)
    fan_in = channels * LSTM_KERNEL * LSTM_KERNEL
    w_x, w_h, w_c = [], [], []
    for gate in "ifco":  # this draw order fixes each seed's values
        w_x.append(_uniform_fan_in(rng, kern, fan_in).data)
        w_h.append(_uniform_fan_in(rng, kern, fan_in).data)
        if gate != "c":  # the cell candidate has no peephole
            w_c.append(_uniform_fan_in(rng, (channels, side, side), channels).data)
    b = np.zeros((4, channels), PARAM_DTYPE)
    b[1] = 1.0  # forget-gate bias starts at 1 so early recurrence keeps its state
    stacked = (np.stack(w_x), np.stack(w_h), np.stack(w_c), b)
    return ConvLstmParams(*(Tensor(a, requires_grad=True) for a in stacked))


def init_mlp(rng, sizes):
    """Fully connected (weight, bias) layers between successive widths."""
    layers = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = _uniform_fan_in(rng, (fan_out, fan_in), fan_in)
        b = Tensor(np.zeros(fan_out, PARAM_DTYPE), requires_grad=True)
        layers.append((w, b))
    return layers


# ---------------------------------------------------------------------------
# forward passes (each takes a leading batch axis)


def encode_slice(params: SliceEncoderParams, slice_input):
    """Shared conv stack over a (B, 1, H, W) batch of slices, an array or
    Tensor; returns the (B, 256, h, w) feature maps, 2x2 for 30x30 slices.

    Each slice's (C, h, w) output is scaled to unit root-mean-square, so
    the ConvLSTM sees the same input scale however large the conv
    weights grow; an all-zero feature map stays zero.
    """
    x = slice_input
    for w, b in params.layers:
        x = engine.conv2d(x, w, b, stride=ENCODER_STRIDE)
        x = engine.leaky_rectifier(x, LEAKY_SLOPE)
    return engine.rms_normalize(x, axes=(-3, -2, -1))


def convlstm_step(params: ConvLstmParams, x_t, h_prev, c_prev):
    """One peephole ConvLSTM transition of (B, C, H, W) input and states.

    A length-1 run of the same recurrence as run_convlstm, started from
    the given states.
    """
    features = engine.reshape(x_t, (x_t.shape[0], 1, *x_t.shape[1:]))
    return engine.convlstm(features, params.w_x, params.w_h, params.w_c, params.b, h_prev, c_prev)


def run_convlstm(params: ConvLstmParams, features):
    """Fold a (B, T, C, H, W) feature sequence into its (B, C*H*W) final
    cell state, the shape descriptor."""
    _, c = engine.convlstm(features, params.w_x, params.w_h, params.w_c, params.b)
    return engine.reshape(c, (c.shape[0], -1))


# ---------------------------------------------------------------------------
# checkpoint serialization


def save_records(records):
    """Serialize an ordered {name: float array} mapping: per record the
    name length, UTF-8 name, rank and shape as little-endian u32s, then
    the values as little-endian float64, which a float32 array widens to
    exactly. Each array is widened straight into one output buffer of the
    file's size, so no widened copy of a record is ever held."""
    heads = []
    for name, array in records.items():
        nb = name.encode("utf-8")
        array = np.asarray(array)
        heads.append((struct.pack(f"<I{len(nb)}sI{array.ndim}I", len(nb), nb, array.ndim, *array.shape), array))
    size = len(CHECKPOINT_MAGIC) + sum(len(head) + 8 * array.size for head, array in heads)
    out = io.BytesIO()
    out.seek(size - 1)
    out.write(b"\0")  # sizes the buffer once
    with out.getbuffer() as buf:
        pos = len(CHECKPOINT_MAGIC)
        buf[:pos] = CHECKPOINT_MAGIC
        for head, array in heads:
            buf[pos : pos + len(head)] = head
            pos += len(head)
            np.frombuffer(buf, "<f8", array.size, pos)[...] = array.reshape(-1)
            pos += 8 * array.size
    return out.getvalue()


def load_records(data):
    """Inverse of save_records as read-only float64 views of `data`; a
    truncated record or a non-UTF-8 name is a NetworkError, but a cut
    between two records is not."""
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise NetworkError("bad checkpoint magic")
    view = memoryview(data).toreadonly()
    pos = len(CHECKPOINT_MAGIC)

    def take(nbytes, what):
        nonlocal pos
        if nbytes > len(view) - pos:
            raise NetworkError(f"checkpoint truncated in {what} at byte {pos}")
        pos += nbytes
        return view[pos - nbytes : pos]

    records = {}
    while pos < len(view):
        (nlen,) = struct.unpack("<I", take(4, "a record name length"))
        try:
            name = str(take(nlen, "a record name"), "utf-8")
        except UnicodeDecodeError as e:
            raise NetworkError(f"record name before byte {pos} is not UTF-8") from e
        (ndim,) = struct.unpack("<I", take(4, f"the rank of {name}"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"the shape of {name}"))
        payload = take(8 * math.prod(shape), f"the values of {name}")
        try:
            records[name] = np.frombuffer(payload, dtype="<f8").reshape(shape)
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
    """Inverse of save_descriptors; any malformed table, or one that lists a
    shape id twice, is a NetworkError."""
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
    return ids, np.array(vecs)
