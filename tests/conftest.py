"""Shared oracles and downsized model builders for the test suite."""
import numpy as np
import pytest

from mdrnet import engine, network
from mdrnet.engine import Tensor
from mdrnet.network import ConvLstmParams


def naive_conv2d(x, w, b, stride):
    """Direct loop cross-correlation with the engine's ceil-mode padding."""
    B, ci, H, W = x.shape
    co, _, kh, kw = w.shape
    pl_h, ph_h = engine.same_ceil_padding(H, kh, stride)
    pl_w, ph_w = engine.same_ceil_padding(W, kw, stride)
    xp = np.pad(x, ((0, 0), (0, 0), (pl_h, ph_h), (pl_w, ph_w)))
    ho, wo = -(-H // stride), -(-W // stride)
    out = np.zeros((B, co, ho, wo))
    for bi in range(B):
        for c in range(co):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ic in range(ci):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[bi, ic, i * stride + u, j * stride + v] * w[c, ic, u, v]
                    out[bi, c, i, j] = acc + (b[c] if b is not None else 0.0)
    return out


def naive_conv2d_backward(x, w, g, stride):
    """Loop adjoint of `naive_conv2d`: (dx, dw, db) for the output gradient `g`."""
    B, ci, H, W = x.shape
    co, _, kh, kw = w.shape
    pl_h, ph_h = engine.same_ceil_padding(H, kh, stride)
    pl_w, ph_w = engine.same_ceil_padding(W, kw, stride)
    xp = np.pad(x, ((0, 0), (0, 0), (pl_h, ph_h), (pl_w, ph_w)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    _, _, ho, wo = g.shape
    for bi in range(B):
        for c in range(co):
            for i in range(ho):
                for j in range(wo):
                    for ic in range(ci):
                        for u in range(kh):
                            for v in range(kw):
                                r, s = i * stride + u, j * stride + v
                                dxp[bi, ic, r, s] += g[bi, c, i, j] * w[c, ic, u, v]
                                dw[c, ic, u, v] += g[bi, c, i, j] * xp[bi, ic, r, s]
    dx = dxp[:, :, pl_h : pl_h + H, pl_w : pl_w + W]
    return dx, dw, g.sum(axis=(0, 2, 3))


def _tap_pairs(h, w, kh, kw):
    """(q, p, u, v) for every input cell q, output cell p (both row-major on
    an h x w map) and tap (u, v) of a stride-1 "same" kernel linking them."""
    pl_h, pl_w = engine.same_ceil_padding(h, kh, 1)[0], engine.same_ceil_padding(w, kw, 1)[0]
    for q in range(h * w):
        for p in range(h * w):
            u = q // w - p // w + pl_h
            v = q % w - p % w + pl_w
            if 0 <= u < kh and 0 <= v < kw:
                yield q, p, u, v


def loop_unroll(kernels, h, w):
    """Per-tap loop of `engine._unroll`: (P*G*O, C*P) rows (p, gate, o), columns (c, q)."""
    g, o, c, kh, kw = kernels.shape
    P = h * w
    dense = np.zeros((P, g, o, c, P))
    for q, p, u, v in _tap_pairs(h, w, kh, kw):
        dense[p, :, :, :, q] = kernels[:, :, :, u, v]
    return dense.reshape(P * g * o, c * P)


def loop_fold(dense, h, w, shape):
    """Per-tap loop of `engine._fold`: each tap sums its (q, p) pairs in
    row-major order, starting from zero."""
    g, o, c, kh, kw = shape
    P = h * w
    blocks = dense.reshape(P, g, o, c, P)
    grad = np.zeros(shape)
    for q, p, u, v in _tap_pairs(h, w, kh, kw):
        grad[:, :, :, u, v] += blocks[p, :, :, :, q]
    return grad


def linear_readout(out, weight):
    """Fixed linear scalar readout of `out`: a (1, out.size) weight, zero bias."""
    return engine.fully_connected(engine.reshape(out, (1, -1)), weight, Tensor(np.zeros(1)))


def add(a, b):
    """Graph sum of two same-shape Tensors."""
    def backward(g):
        a.accumulate(g)
        b.accumulate(g.copy())  # each parent keeps the array it is handed

    return engine._make(a.data + b.data, (a, b), backward)


def make_tiny_lstm(rng, channels=4, spatial=2, kernel=3, scale=1.0):
    """Gate-stacked ConvLSTM parameters, drawn gate by gate (i, f, c, o):
    input kernel, recurrent kernel, then the peephole (none for c)."""
    w_x, w_h, w_c = [], [], []
    for gate in "ifco":
        w_x.append(scale * rng.normal(size=(channels, channels, kernel, kernel)))
        w_h.append(scale * rng.normal(size=(channels, channels, kernel, kernel)))
        if gate != "c":
            w_c.append(scale * rng.normal(size=(channels, spatial, spatial)))
    b = np.zeros((4, channels))
    b[1] = 1.0
    return ConvLstmParams(*(Tensor(a, requires_grad=True)
                            for a in (np.stack(w_x), np.stack(w_h), np.stack(w_c), b)))


def scalar_convlstm_step(p, x, h, c):
    """Scalar-loop reference for one ConvLSTM transition (single sample)."""

    def conv(inp, w):
        ch, H, W = inp.shape
        co, _, k, _ = w.shape
        pad = (k - 1) // 2
        out = np.zeros((co, H, W))
        for o in range(co):
            for i in range(H):
                for j in range(W):
                    s = 0.0
                    for ic in range(ch):
                        for u in range(k):
                            for v in range(k):
                                ii, jj = i + u - pad, j + v - pad
                                if 0 <= ii < H and 0 <= jj < W:
                                    s += inp[ic, ii, jj] * w[o, ic, u, v]
                    out[o, i, j] = s
        return out

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    w_x, w_h, w_c, b = p.w_x.data, p.w_h.data, p.w_c.data, p.b.data[:, :, None, None]
    i = sig(conv(x, w_x[0]) + conv(h, w_h[0]) + w_c[0] * c + b[0])
    f = sig(conv(x, w_x[1]) + conv(h, w_h[1]) + w_c[1] * c + b[1])
    cn = f * c + i * np.tanh(conv(x, w_x[2]) + conv(h, w_h[2]) + b[2])
    o = sig(conv(x, w_x[3]) + conv(h, w_h[3]) + w_c[2] * cn + b[3])
    return o * np.tanh(cn), cn


def make_tiny_encoder(rng, channels=(2, 4), scale=0.5):
    layers = []
    prev = 1
    for c in channels:
        w = Tensor(scale * rng.normal(size=(c, prev, 4, 4)), requires_grad=True)
        b = Tensor(scale * rng.normal(size=c), requires_grad=True)
        layers.append((w, b))
        prev = c
    return network.SliceEncoderParams(layers)


def gradient_suite_cases(rng):
    """(name, fn, inputs) of every check of the gradient gate, drawn from
    `rng` in a fixed order: each primitive, then a downsized encoder ->
    ConvLSTM -> two-layer head -> loss end to end."""
    cases = []
    # the pointwise primitive behind a fixed linear readout
    weight = Tensor(rng.normal(size=(1, 64)))
    # the same twelve draws as when five more ops shared this table, so
    # leaky_rectifier and every later check keep their inputs
    x = rng.uniform(-1, 1, size=(12, 8, 8))[4]
    x = np.where(np.abs(x) < 1e-3, 0.1, x)  # avoid the kink
    cases.append((
        "leaky_rectifier",
        lambda ts: linear_readout(engine.leaky_rectifier(ts[0], 0.2), weight),
        [x],
    ))

    for stride, hw in ((2, 6), (1, 4)):
        cases.append((
            f"conv2d_s{stride}",
            lambda ts, s=stride: engine.softmax_cross_entropy(
                engine.reshape(engine.conv2d(ts[0], ts[1], ts[2], stride=s), (1, -1)), np.array([3])
            ),
            [
                rng.uniform(-1, 1, size=(1, 2, hw, hw)),
                rng.uniform(-1, 1, size=(3, 2, 3, 3)),
                rng.uniform(-1, 1, size=3),
            ],
        ))

    cases.append((
        "fully_connected",
        lambda ts: engine.softmax_cross_entropy(
            engine.fully_connected(ts[0], ts[1], ts[2]), np.array([1])
        ),
        [rng.normal(size=(1, 6)), rng.normal(size=(4, 6)), rng.normal(size=4)],
    ))
    cases.append((
        "softmax_cross_entropy",
        lambda ts: engine.softmax_cross_entropy(ts[0], np.array([2])),
        [rng.normal(size=(1, 5))],
    ))
    cases.append((
        "mean_axis",
        lambda ts: engine.softmax_cross_entropy(engine.mean_axis(ts[0], axis=2), np.array([0])),
        [rng.normal(size=(1, 3, 7))],
    ))

    enc = make_tiny_encoder(rng, channels=(2, 4), scale=0.4)
    lstm = make_tiny_lstm(rng, channels=4, scale=0.4)
    w1, b1 = rng.normal(size=(5, 16)) * 0.4, np.zeros(5)
    w2, b2 = rng.normal(size=(3, 5)) * 0.4, np.zeros(3)
    mdr_in = rng.uniform(0, 1, (1, 3, 6, 6))
    lstm_names = [n.split(".")[-1] for n, _ in lstm.tensors()]
    lstm_arrays = [t.data for _, t in lstm.tensors()]

    def end_to_end(ts):
        it = iter(ts)
        layers = [(next(it), next(it)) for _ in enc.layers]
        lp = network.ConvLstmParams(
            **dict(zip(lstm_names, [next(it) for _ in lstm_arrays]))
        )
        wa, ba, wb, bb = next(it), next(it), next(it), next(it)
        x = next(it)
        b, t, hh, ww = x.shape
        feats = engine.reshape(x, (b * t, 1, hh, ww))
        for w, bias in layers:
            feats = engine.leaky_rectifier(engine.conv2d(feats, w, bias, stride=2), 0.2)
        feats = engine.rms_normalize(feats, axes=(-3, -2, -1))
        _, ch, fh, fw = feats.shape
        z = network.run_convlstm(lp, engine.reshape(feats, (b, t, ch, fh, fw)))
        h = engine.leaky_rectifier(engine.fully_connected(z, wa, ba), 0.2)
        return engine.softmax_cross_entropy(engine.fully_connected(h, wb, bb), np.array([1]))

    enc_arrays = [a for w, b in enc.layers for a in (w.data, b.data)]
    cases.append(("end_to_end", end_to_end, enc_arrays + lstm_arrays + [w1, b1, w2, b2, mdr_in]))
    return cases


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
