"""Minimal reverse-mode autodiff engine on float numpy arrays.

Everything is sized for small volumetric-slice networks. The ops are
batched 2D convolution with a ceil-mode "same" padding rule, the leaky
rectifier, per-group RMS normalization, reshape, mean over an axis,
fully-connected layers, a peephole ConvLSTM recurrence over small state
maps and softmax cross-entropy; with them come Adam and a
finite-difference gradient checker.

A graph is consumed by its backward: the sweep drops each interior
node's closure, parents and gradient as soon as that node has passed its
gradient on, so the arrays a closure saved are freed while the sweep
walks on. Leaves keep their `.grad`; a second `backward()` through a
consumed graph is an EngineError.

Every op computes in its inputs' dtype: float32 inputs give float32
values, gradients and scratch buffers, float64 inputs float64 ones (the
model trains in float32; the gradient checker and the loop oracles run
in float64). Inputs of mixed dtypes compute in the wider one.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np


class EngineError(ValueError):
    """Shape or argument mismatch in an engine primitive."""


class NonFiniteGradient(ArithmeticError):
    """An optimizer step saw NaN/inf gradient cells; the step was aborted."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float array plus an accumulated gradient and a backward closure.

    A float array keeps its dtype; any other data becomes float64."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data.reshape(()))

    def accumulate(self, g):
        """Add `g` to the gradient. The first `g` is kept, not copied, so a
        closure hands each parent a float array of its own: one it built,
        or a view of one that only the consumed graph held."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def backward(self):
        """Reverse-mode sweep from this (scalar) tensor through the graph,
        consuming it (see the module docstring)."""
        if self.data.size != 1:
            raise EngineError("backward() requires a scalar output")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()  # children before parents; the list lets go of each
            if node._backward is None:
                continue  # a leaf
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents, node.grad = _consumed, (), None


def _consumed(g):
    raise EngineError("backward() through a graph that an earlier backward() consumed")


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_grad(t):
    """True when a backward pass must deliver a gradient to `t`."""
    return t.requires_grad or bool(t._parents)


def _make(data, parents, backward):
    out = Tensor(data)
    if _grad_enabled and any(_needs_grad(p) for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
        out.requires_grad = any(p.requires_grad for p in parents)
    return out


# ---------------------------------------------------------------------------
# elementwise primitives


def _logistic(x):
    """Plain numpy sigmoid, split at 0 so that exp never overflows."""
    e = np.exp(np.minimum(x, -x))  # exp(-|x|), a NaN keeps its sign
    # the same bits as np.where(x >= 0, 1 / (1 + e), e / (1 + e)) without its
    # data-dependent branch: e <= 1, so the numerator is 1 where x >= 0 and e
    # elsewhere, a NaN included
    num = np.maximum(e, x >= 0)
    num /= 1.0 + e
    return num


def leaky_rectifier(a, slope=0.2):
    """max(a, slope*a): the same as a where a >= 0, else slope*a, for 0 < slope <= 1."""
    if not 0.0 < slope <= 1.0:
        raise EngineError(f"leaky_rectifier needs 0 < slope <= 1, got {slope}")
    a = _as_tensor(a)
    out = slope * a.data
    np.maximum(a.data, out, out=out)

    def backward(g):
        # the same bits as np.where(a >= 0, g, slope * g) without its
        # data-dependent branch: the factor is 1.0 or slope, in a's dtype
        # (a bool array and a Python float would promote to float64)
        d = np.maximum(a.data >= 0, slope, dtype=a.data.dtype)
        d *= g
        a.accumulate(d)

    return _make(out, (a,), backward)


def rms_normalize(a, axes):
    """a / sqrt(mean(a**2 over `axes`) + 1e-8): unit root-mean-square per group.

    Parameter-free and invariant to a positive rescaling of `a`; an
    all-zero group stays exactly zero.
    """
    a = _as_tensor(a)
    r = 1.0 / np.sqrt(np.mean(a.data * a.data, axis=axes, keepdims=True) + 1e-8)
    out = a.data * r

    def backward(g):
        a.accumulate(r * (g - out * np.mean(g * out, axis=axes, keepdims=True)))

    return _make(out, (a,), backward)


def reshape(a, shape):
    a = _as_tensor(a)

    def backward(g):
        a.accumulate(g.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def mean_axis(a, axis):
    a = _as_tensor(a)
    n = a.shape[axis]

    def backward(g):
        # a copy: the broadcast is a read-only view
        a.accumulate(np.broadcast_to(np.expand_dims(g, axis) / n, a.shape).copy())

    return _make(a.data.mean(axis=axis), (a,), backward)


# ---------------------------------------------------------------------------
# layers


# conv2d gathers and multiplies at most this many patch rows at a time in
# its forward and its input gradient, in blocks of whole images (at least
# one): one GEMM over all B*ho*wo rows raised the training benchmarks'
# peak memory by 20 MB
_CONV_ROW_BLOCK = 4096


def same_ceil_padding(size, kernel, stride):
    """(low, high) zero padding so the output length is ceil(size/stride)."""
    out = -(-size // stride)
    total = max(0, (out - 1) * stride + kernel - size)
    low = total // 2
    return low, total - low


def conv2d(x, kernels, bias=None, stride=2):
    """Batched 2D cross-correlation with ceil-mode "same" padding.

    x: (B, C_in, H, W); kernels: (C_out, C_in, kh, kw); bias: (C_out,) or
    None; any other rank is an EngineError. Output size is ceil(H/stride).

    The interface is NCHW; the work is channels-last. The input is read
    as its (B, H, W, C_in) transpose, a free view when x is the NCHW view
    of a channels-last buffer, as every conv2d output is. Patches are
    gathered as (B*ho*wo, kh*kw*C_in) rows, each tap a run of whole
    channels, and multiplied by the kernels in (kh, kw, C_in) order into
    a (B*ho*wo, C_out) buffer whose (B, C_out, ho, wo) view is the
    output. The rows are gathered and multiplied one block of whole
    images at a time, in one scratch buffer, with or without a graph.
    A graph keeps the padded input, not the rows. The backward reads
    the output gradient as the same rows, gathers every patch row once
    for the kernel gradient's single GEMM and drops them before it forms
    the input gradient. It forms that one block of whole images at a
    time, in one scratch buffer, and scatters each block into a
    channels-last buffer handed back as an NCHW view.
    """
    x = _as_tensor(x)
    kernels = _as_tensor(kernels)
    bias = None if bias is None else _as_tensor(bias)
    if x.ndim != 4 or kernels.ndim != 4:
        raise EngineError(f"conv2d expects (B, C, H, W) input and 4D kernels, got {x.shape} {kernels.shape}")
    B, ci, H, W = x.shape
    co, ci_k, kh, kw = kernels.shape
    if ci != ci_k:
        raise EngineError(f"conv2d channel mismatch: input {ci}, kernels {ci_k}")
    pl_h, ph_h = same_ceil_padding(H, kh, stride)
    pl_w, ph_w = same_ceil_padding(W, kw, stride)
    xp = np.pad(x.data.transpose(0, 2, 3, 1), ((0, 0), (pl_h, ph_h), (pl_w, ph_w), (0, 0)))
    Hp, Wp = xp.shape[1], xp.shape[2]
    ho = -(-H // stride)
    wo = -(-W // stride)
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)  # (B, ho, wo, kh, kw, ci)
    K = ci * kh * kw
    N = B * ho * wo
    wr = kernels.data.transpose(0, 2, 3, 1).reshape(co, K)  # (co, kh*kw*ci)
    parents = (x, kernels) if bias is None else (x, kernels, bias)
    dtype = np.result_type(*(p.data for p in parents))
    images = max(1, _CONV_ROW_BLOCK // (ho * wo))
    rows = np.empty((min(B, images) * ho * wo, K), dtype)
    out = np.empty((N, co), dtype)
    for b in range(0, B, images):
        n = min(images, B - b)
        r0, r1 = b * ho * wo, (b + n) * ho * wo
        block_rows = rows[: r1 - r0]
        np.copyto(block_rows.reshape(n, ho, wo, kh, kw, ci), win[b : b + n])
        block = out[r0:r1]
        np.matmul(block_rows, wr.T, out=block)
        if bias is not None:
            block += bias.data
    out = out.reshape(B, ho, wo, co).transpose(0, 3, 1, 2)

    def backward(g):
        gr = g.transpose(0, 2, 3, 1).reshape(N, co)  # a view when g is channels-last
        if _needs_grad(kernels):
            rows = np.empty((N, K), dtype)
            np.copyto(rows.reshape(B, ho, wo, kh, kw, ci), win)
            dw = (gr.T @ rows).reshape(co, kh, kw, ci)
            del rows
            kernels.accumulate(np.ascontiguousarray(dw.transpose(0, 3, 1, 2)))
        if bias is not None and _needs_grad(bias):
            bias.accumulate(gr.sum(axis=0))
        if _needs_grad(x):
            # col2im channels-last, one block of whole images at a time through
            # one scratch dcols: each tap slab is a run of whole channel rows
            dxp = np.zeros((B, Hp, Wp, ci), dtype)
            dcols = np.empty((min(B, images), ho, wo, kh, kw, ci), dtype)
            for b in range(0, B, images):
                n = min(images, B - b)
                r0, r1 = b * ho * wo, (b + n) * ho * wo
                np.matmul(gr[r0:r1], wr, out=dcols[:n].reshape(r1 - r0, K))
                dst = dxp[b : b + n]
                for i in range(kh):
                    for j in range(kw):
                        dst[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += (
                            dcols[:n, :, :, i, j]
                        )
            del gr, dcols
            dx = dxp[:, pl_h : Hp - ph_h or None, pl_w : Wp - ph_w or None].transpose(0, 3, 1, 2)
            x.accumulate(dx)

    return _make(out, parents, backward)


def fully_connected(x, weight, bias):
    """x @ weight.T + bias over a (B, F_in) batch; weight: (F_out, F_in),
    bias: (F_out,). Any other input rank is an EngineError."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise EngineError(f"fully_connected expects a (B, {weight.shape[1]}) input, got {x.shape}")
    out = x.data @ weight.data.T + bias.data

    def backward(g):
        if _needs_grad(weight):
            weight.accumulate(g.T @ x.data)
        if _needs_grad(bias):
            bias.accumulate(g.sum(axis=0))
        x.accumulate(g @ weight.data)

    return _make(out, (x, weight, bias), backward)


# _unroll and _fold walk the stacked kernels this many (gate, output
# channel) rows at a time: a block's taps and dense rows fit in cache
_UNROLL_BLOCK = 32


def _conv_taps(h, w, kh, kw):
    """(P, P) kernel tap linking input cell q (row) to output cell p (column).

    P = h*w cells in row-major order; the tap is u*kw + v of a stride-1
    "same" (kh, kw) kernel, or kh*kw where the kernel does not reach.
    """
    rows, cols = np.divmod(np.arange(h * w), w)
    u = rows[:, None] - rows[None, :] + same_ceil_padding(h, kh, 1)[0]
    v = cols[:, None] - cols[None, :] + same_ceil_padding(w, kw, 1)[0]
    inside = (u >= 0) & (u < kh) & (v >= 0) & (v < kw)
    return np.where(inside, u * kw + v, kh * kw)


def _unroll(kernels, taps):
    """G (O, C, kh, kw) kernels, stacked, as one dense (P*G*O, C*P) matrix.

    Rows are (p, gate, o) and columns (c, q): a channel-first input row
    times the matrix's transpose gives all G stride-1 "same" convs,
    channels-last. The rows are gathered _UNROLL_BLOCK kernel rows at a
    time, so the padded tap table of a block stays in cache.
    """
    g, o, c, kh, kw = kernels.shape
    p = len(taps)
    flat = kernels.reshape(g * o, c, kh * kw)
    dense = np.empty((p, g * o, c, p), kernels.dtype)
    table = np.zeros((min(_UNROLL_BLOCK, g * o), c, kh * kw + 1), kernels.dtype)  # the last tap stays zero
    for r in range(0, g * o, _UNROLL_BLOCK):
        n = min(_UNROLL_BLOCK, g * o - r)
        table[:n, :, :-1] = flat[r : r + n]
        for j in range(p):  # output cell j reads input cell q through tap taps[q, j]
            # every tap is in range; mode "raise" would copy through a buffer
            np.take(table[:n], taps[:, j], axis=2, out=dense[j, r : r + n], mode="clip")
    return dense.reshape(p * g * o, c * p)


def _fold(dense, taps, shape):
    """Adjoint of _unroll: the (G, O, C, kh, kw) kernel gradient of a dense one.

    Each tap sums its (q, p) cell pairs in row-major order, starting from
    zero, one block of _UNROLL_BLOCK kernel rows at a time.
    """
    g, o, c, kh, kw = shape
    p = len(taps)
    blocks = dense.reshape(p, g * o, c, p)
    pairs = [(q, j, taps[q, j]) for q in range(p) for j in range(p) if taps[q, j] < kh * kw]
    # C order, as the optimizer's moments are: mixed layouts slow Adam down
    grad = np.zeros((g * o, c, kh * kw), dense.dtype)
    for r in range(0, g * o, _UNROLL_BLOCK):
        block = grad[r : r + _UNROLL_BLOCK]
        for q, j, t in pairs:
            block[:, :, t] += blocks[j, r : r + _UNROLL_BLOCK, :, q]
    return grad.reshape(shape)


def convlstm(x, w_x, w_h, w_c, b, h0=None, c0=None):
    """Peephole ConvLSTM over a (B, T, C, H, W) sequence; returns the final (h, c).

    Parameters are stacked by gate in the order i, f, c, o: w_x and w_h
    are (4, C, C, kh, kw) stride-1 "same" input and recurrent kernels,
    w_c the (3, C, H, W) Hadamard peepholes of i, f and o, b the (4, C)
    biases. With * a conv, . a Hadamard product and [g] a gate's slice,
    each step computes
        i = sigmoid(w_x[i] * x + w_h[i] * h + w_c[0] . c + b[i])
        f = sigmoid(w_x[f] * x + w_h[f] * h + w_c[1] . c + b[f])
        c' = f . c + i . tanh(w_x[c] * x + w_h[c] * h + b[c])
        o = sigmoid(w_x[o] * x + w_h[o] * h + w_c[2] . c' + b[o])
        h' = o . tanh(c')
    from (B, C, H, W) start states h0 and c0; None starts from zeros.

    On a small state map of P = H*W cells each conv is a dense map, so
    the kernels are unrolled into two (4*C*P, C*P) matrices on every
    call and never stored. The input projection of all B*T steps is one
    GEMM, each step adds one recurrent GEMM and the gate arithmetic, and
    the backward forms each weight gradient with one GEMM over all steps.
    The two outputs share one forward; each runs the reverse walk for
    its own gradient, which sums correctly because the walk is linear.
    """
    x, w_x, w_h, w_c, b = (_as_tensor(t) for t in (x, w_x, w_h, w_c, b))
    h0, c0 = (None if s is None else _as_tensor(s) for s in (h0, c0))
    starts = [s for s in (h0, c0) if s is not None]
    if x.ndim != 5 or x.shape[1] < 1:
        raise EngineError("convlstm expects a (B, T, C, H, W) input with T >= 1")
    B, T, C, H, W = x.shape
    P = H * W
    if (w_x.ndim != 5 or w_x.shape[:3] != (4, C, C) or w_h.shape != w_x.shape
            or w_c.shape != (3, C, H, W) or b.shape != (4, C)):
        raise EngineError(f"convlstm parameters do not fit {C} channels on a {H}x{W} map")
    taps = _conv_taps(H, W, *w_x.shape[3:])
    parents = (x, w_x, w_h, w_c, b, *starts)
    dtype = np.result_type(*(p.data for p in parents))
    record = _grad_enabled and any(_needs_grad(p) for p in parents)

    def channels_last(s):  # (B, C, H, W) -> (B, P, C) view
        return s.reshape(B, C, P).transpose(0, 2, 1)

    def channels_first(s):  # (B, P, C) -> contiguous (B, C*P) rows
        return s.transpose(0, 2, 1).reshape(B, C * P)

    wx = _unroll(w_x.data, taps)
    wh = _unroll(w_h.data, taps)
    peep = w_c.data.reshape(3, C, P).transpose(0, 2, 1)
    xs = np.ascontiguousarray(x.data.transpose(1, 0, 2, 3, 4)).reshape(T * B, C * P)
    # time-major pre-activations; each step overwrites its own with the gates
    z = (xs @ wx.T).reshape(T, B, P, 4, C)
    z += b.data
    h = None if h0 is None else channels_last(h0.data)
    c = np.zeros((B, P, C), dtype) if c0 is None else channels_last(c0.data)
    if record:
        h_rows = np.zeros((T, B, C * P), dtype)
        cells = np.empty((T + 1, B, P, C), dtype)
        cells[0] = c
    for t in range(T):
        zt = z[t]
        if h is not None:
            h_row = channels_first(h)
            zt += (h_row @ wh.T).reshape(B, P, 4, C)
            if record:
                h_rows[t] = h_row
        i = _logistic(zt[:, :, 0] + peep[0] * c)
        f = _logistic(zt[:, :, 1] + peep[1] * c)
        g = np.tanh(zt[:, :, 2])
        c = f * c + i * g
        o = _logistic(zt[:, :, 3] + peep[2] * c)
        h = o * np.tanh(c)
        zt[:, :, 0], zt[:, :, 1], zt[:, :, 2], zt[:, :, 3] = i, f, g, o
        if record:
            cells[t + 1] = c

    def reverse(dh_out, dc_out):
        dh = np.zeros((B, P, C), dtype) if dh_out is None else channels_last(dh_out)
        dc = np.zeros((B, P, C), dtype) if dc_out is None else channels_last(dc_out)
        dz = np.empty_like(z)
        dpeep = np.zeros((3, P, C), dtype)
        # h0 gets no recurrent GEMM when it is absent or needs no gradient
        first = 0 if h0 is not None and _needs_grad(h0) else 1
        for t in reversed(range(T)):
            i, f, g, o = (z[t, :, :, k] for k in range(4))
            c_prev, c_t = cells[t], cells[t + 1]
            tc = np.tanh(c_t)
            dzo = dh * tc * o * (1.0 - o)
            dc = dc + dh * o * (1.0 - tc * tc) + dzo * peep[2]
            dzi = dc * g * i * (1.0 - i)
            dzf = dc * c_prev * f * (1.0 - f)
            dz[t, :, :, 0], dz[t, :, :, 1], dz[t, :, :, 3] = dzi, dzf, dzo
            dz[t, :, :, 2] = dc * i * (1.0 - g * g)
            dpeep[0] += (dzi * c_prev).sum(axis=0)
            dpeep[1] += (dzf * c_prev).sum(axis=0)
            dpeep[2] += (dzo * c_t).sum(axis=0)
            dc = dc * f + dzi * peep[0] + dzf * peep[1]
            if t >= first:
                dh = channels_last((dz[t].reshape(B, -1) @ wh).reshape(B, C, H, W))
        dz_rows = dz.reshape(T * B, -1)
        if _needs_grad(w_x):
            w_x.accumulate(_fold(dz_rows.T @ xs, taps, w_x.shape))
        if _needs_grad(w_h):
            s = 0 if h0 is not None else 1  # without h0 the first step has no h
            dense = dz[s:].reshape(-1, 4 * C * P).T @ h_rows[s:].reshape(-1, C * P)
            w_h.accumulate(_fold(dense, taps, w_h.shape))
        if _needs_grad(x):
            dx = (dz_rows @ wx).reshape(T, B, C, H, W)
            x.accumulate(dx.transpose(1, 0, 2, 3, 4))
        if _needs_grad(b):
            b.accumulate(dz.sum(axis=(0, 1, 2)))
        if _needs_grad(w_c):
            # C order, as the optimizer's moments are
            w_c.accumulate(np.ascontiguousarray(dpeep.transpose(0, 2, 1)).reshape(3, C, H, W))
        if h0 is not None and _needs_grad(h0):
            h0.accumulate(channels_first(dh).reshape(B, C, H, W))
        if c0 is not None and _needs_grad(c0):
            c0.accumulate(channels_first(dc).reshape(B, C, H, W))

    h_out = _make(channels_first(h).reshape(B, C, H, W), parents, lambda g: reverse(g, None))
    c_out = _make(channels_first(c).reshape(B, C, H, W), parents, lambda g: reverse(None, g))
    return h_out, c_out


def softmax(logits):
    """Plain numpy softmax over the last axis (no graph), in the logits' dtype."""
    z = np.asarray(logits)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits, targets):
    """Mean negative log-likelihood of (B,) integer targets under the
    softmax of (B, C) logits. Any other rank, a target that is not an
    integer and a target outside [0, C) are EngineErrors."""
    logits = _as_tensor(logits)
    t = np.asarray(targets)
    if logits.ndim != 2 or t.shape != logits.shape[:1] or t.dtype.kind not in "iu":
        raise EngineError("softmax_cross_entropy expects (B, C) logits and (B,) integer targets, "
                          f"got {logits.shape} and {t.dtype} {t.shape}")
    z = logits.data
    B, C = z.shape
    if C < 2:
        raise EngineError("softmax_cross_entropy requires at least 2 classes")
    if (t < 0).any() or (t >= C).any():
        raise EngineError("target index out of range")
    p = softmax(z)
    zs = z - z.max(axis=1, keepdims=True)
    logp = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
    loss = -logp[np.arange(B), t].mean()

    def backward(g):
        d = p.copy()
        d[np.arange(B), t] -= 1.0
        d *= float(g) / B
        logits.accumulate(d)

    return _make(loss, (logits,), backward)


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# adam_step updates this many cells of a parameter at a time: each block's
# four arrays and two scratch rows stay in cache between its operations
_ADAM_BLOCK = 2**15


@dataclass
class AdamState:
    """First/second moments and step count for one parameter list."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(
            m=[np.zeros_like(p.data) for p in params],
            v=[np.zeros_like(p.data) for p in params],
        )


def adam_step(params, grads, state, lr):
    """One bias-corrected Adam update, in place on `params`' data arrays.

    Parameters and moments must be C-contiguous. Raises EngineError if
    one is not, and NonFiniteGradient if any gradient cell is NaN or inf,
    both before touching any parameter.
    """
    if lr <= 0:
        raise EngineError("adam_step requires lr > 0")
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            continue
        if not all(a.flags.c_contiguous for a in (p.data, m, v)):
            raise EngineError("adam_step requires C-contiguous parameters and moments")
        if not np.isfinite(g).all():
            raise NonFiniteGradient("non-finite gradient cells; step aborted")
    state.t += 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    # p -= lr * (m / c1) / (sqrt(v / c2) + eps), in the same operation order
    # and so with the same bits, one cache-sized block of cells at a time
    # through two scratch buffers of the parameters' dtype
    scratch = np.empty((2, _ADAM_BLOCK), np.result_type(*{p.data.dtype for p in params}))
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            continue
        flat = [a.reshape(-1) for a in (p.data, g, m, v)]  # views; a strided g is copied
        for s in range(0, flat[0].size, _ADAM_BLOCK):
            pb, gb, mb, vb = (a[s : s + _ADAM_BLOCK] for a in flat)
            num, den = scratch[:, : pb.size]
            mb *= b1
            mb += np.multiply(gb, 1.0 - b1, out=num)
            vb *= b2
            np.multiply(gb, gb, out=den)
            vb += np.multiply(den, 1.0 - b2, out=den)
            np.divide(mb, c1, out=num)
            num *= lr
            np.divide(vb, c2, out=den)
            np.sqrt(den, out=den)
            den += eps
            num /= den
            pb -= num


class Adam:
    """Adam over a fixed parameter list; learning rate supplied per step.

    The moments start at zero unless `state`, an AdamState whose moments
    match the parameters, is given; it is adopted, not copied."""

    def __init__(self, params, base_lr, decay=1.0, state=None):
        self.params = list(params)
        self.base_lr = float(base_lr)
        self.decay = float(decay)
        self.state = AdamState.for_params(self.params) if state is None else state

    def lr_at_epoch(self, epoch):
        return self.base_lr * self.decay**epoch

    def step(self, epoch=0, lr=None):
        if lr is None:
            lr = self.lr_at_epoch(epoch)
        grads = [p.grad for p in self.params]
        adam_step(self.params, grads, self.state, lr)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float

    @property
    def passed(self):
        return self.max_rel_error < self.tolerance


def grad_check(fn, inputs, tolerance=1e-4, h=2e-4):
    """Compare reverse-mode gradients of `fn` with finite differences.

    fn takes a list of Tensors and returns a scalar Tensor. inputs is a
    list of numpy arrays, checked as float64; every coordinate of every
    input is probed with the 4-point central stencil
    (f(x-2h) - 8f(x-h) + 8f(x+h) - f(x+2h)) / 12h. Its truncation error is
    O(h^4), so h can be large enough that rounding in f stays far below a
    gradient of 1e-6, the smallest one judged by relative error.

    A kink of `fn`, such as the leaky rectifier's at 0, may lie within the
    2h the stencil reaches. A coordinate that misses the tolerance is
    therefore judged again. When its two one-sided differences,
    (-3f(x) + 4f(x+h) - f(x+2h)) / 2h and (3f(x) - 4f(x-h) + f(x-2h)) / 2h,
    disagree, a kink lies on one side. The side that does not reach it,
    the one whose three values bend less (the smaller second difference),
    holds the derivative, and the coordinate passes if the gradient
    matches that side. Where the sides agree, fn is smooth around x and
    only the stencil counts. All this is tried once more at h/10, and the
    smaller error is kept: a wrong gradient misses at every step.
    """
    tensors = [Tensor(np.array(x, dtype=np.float64), requires_grad=True) for x in inputs]
    out = fn(tensors)
    f0 = out.item()
    out.backward()
    analytic = [
        t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors
    ]

    def rel_error(a, b):
        diff = abs(a - b)
        den = max(abs(a), abs(b))
        return diff / den if den > 1e-6 else diff

    def error(flat, j, ana, step):
        orig = flat[j]
        f = {0: f0}
        for k in (-2, -1, 1, 2):
            flat[j] = orig + k * step
            with no_grad():
                f[k] = fn(tensors).item()
        flat[j] = orig
        rel = rel_error(ana, (f[-2] - 8.0 * f[-1] + 8.0 * f[1] - f[2]) / (12.0 * step))
        if rel >= tolerance:
            right = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * step)
            left = (3.0 * f[0] - 4.0 * f[-1] + f[-2]) / (2.0 * step)
            if rel_error(left, right) >= tolerance:  # a kink on one side
                bend_right = abs(f[2] - 2.0 * f[1] + f[0])
                bend_left = abs(f[-2] - 2.0 * f[-1] + f[0])
                rel = min(rel, rel_error(ana, left if bend_left < bend_right else right))
        return rel

    max_rel = 0.0
    for i, t in enumerate(tensors):
        flat = t.data.reshape(-1)
        for j in range(flat.size):
            ana = analytic[i].reshape(-1)[j]
            rel = error(flat, j, ana, h)
            if rel >= tolerance:
                rel = min(rel, error(flat, j, ana, h / 10))
            max_rel = max(max_rel, rel)
    return GradCheckReport(max_rel_error=max_rel, tolerance=tolerance)
