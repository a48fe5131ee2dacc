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


def linear_readout(out, weight):
    """Fixed linear scalar readout of `out`: a (1, out.size) weight, zero bias."""
    return engine.fully_connected(engine.reshape(out, (1, -1)), weight, Tensor(np.zeros(1)))


def add(a, b):
    """Graph sum of two same-shape Tensors."""
    def backward(g):
        a.accumulate(g)
        b.accumulate(g)

    return engine._make(a.data + b.data, (a, b), backward)


def make_tiny_lstm(rng, channels=4, spatial=2, kernel=3, scale=1.0):
    def kern():
        return Tensor(scale * rng.normal(size=(channels, channels, kernel, kernel)),
                      requires_grad=True)

    def peep():
        return Tensor(scale * rng.normal(size=(channels, spatial, spatial)),
                      requires_grad=True)

    def bias(v=0.0):
        return Tensor(np.full(channels, v, dtype=np.float64), requires_grad=True)

    return ConvLstmParams(
        w_xi=kern(), w_hi=kern(), w_ci=peep(), b_i=bias(),
        w_xf=kern(), w_hf=kern(), w_cf=peep(), b_f=bias(1.0),
        w_xc=kern(), w_hc=kern(), b_c=bias(),
        w_xo=kern(), w_ho=kern(), w_co=peep(), b_o=bias(),
    )


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

    d = lambda t: t.data
    bi = d(p.b_i)[:, None, None]
    bf = d(p.b_f)[:, None, None]
    bc = d(p.b_c)[:, None, None]
    bo = d(p.b_o)[:, None, None]
    i = sig(conv(x, d(p.w_xi)) + conv(h, d(p.w_hi)) + d(p.w_ci) * c + bi)
    f = sig(conv(x, d(p.w_xf)) + conv(h, d(p.w_hf)) + d(p.w_cf) * c + bf)
    cn = f * c + i * np.tanh(conv(x, d(p.w_xc)) + conv(h, d(p.w_hc)) + bc)
    o = sig(conv(x, d(p.w_xo)) + conv(h, d(p.w_ho)) + d(p.w_co) * cn + bo)
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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
