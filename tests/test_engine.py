import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdrnet import engine, network, training
from mdrnet.engine import (
    Adam,
    AdamState,
    EngineError,
    NonFiniteGradient,
    Tensor,
    adam_step,
    grad_check,
)

from conftest import (
    add,
    gradient_suite_cases,
    linear_readout,
    loop_fold,
    loop_unroll,
    naive_conv2d,
    naive_conv2d_backward,
    scalar_convlstm_step,
)


SPECIAL_VALUES = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0, 36.7, -36.7, 709.0, -709.0,
    746.0, -746.0, 1e308, -1e308, np.finfo(float).tiny, -np.finfo(float).tiny, 5e-324, -5e-324,
])


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestPointwise:
    def test_leaky_rectifier_slope(self):
        out = engine.leaky_rectifier(Tensor([-1.0, 0.0, 2.0]), 0.2)
        assert np.allclose(out.data, [-0.2, 0.0, 2.0])

    @pytest.mark.parametrize("slope", [0.2, 0.5, 1.0, 1e-300])
    def test_leaky_rectifier_matches_masked_select_bit_for_bit(self, rng, slope):
        x = np.concatenate([SPECIAL_VALUES, rng.normal(scale=10, size=1000)])
        with np.errstate(all="ignore"):
            want = np.where(x >= 0, x, slope * x)
            assert same_bits(engine.leaky_rectifier(Tensor(x), slope).data, want)

    @pytest.mark.parametrize("slope", [0.2, 0.5, 1.0, 1e-300])
    def test_leaky_rectifier_backward_matches_masked_select_bit_for_bit(self, rng, slope):
        """Every input sign, zero, infinity and NaN against every upstream one."""
        a = np.concatenate([np.repeat(SPECIAL_VALUES, len(SPECIAL_VALUES)), rng.normal(size=1000)])
        g = np.concatenate([np.tile(SPECIAL_VALUES, len(SPECIAL_VALUES)), rng.normal(size=1000)])
        x = Tensor(a, requires_grad=True)
        with np.errstate(all="ignore"):
            engine.leaky_rectifier(x, slope)._backward(g)
            assert same_bits(x.grad, np.where(a >= 0, g, slope * g))

    @pytest.mark.parametrize("slope", [0.0, -0.2, 1.5, np.nan])
    def test_leaky_rectifier_slope_out_of_range(self, slope):
        # max(a, slope*a) is the masked select only for 0 < slope <= 1
        # (at slope 0, +inf would give nan)
        with pytest.raises(EngineError):
            engine.leaky_rectifier(Tensor([1.0]), slope)

    def test_logistic_matches_boolean_mask_split_bit_for_bit(self, rng):
        def masked_logistic(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        x = np.concatenate([SPECIAL_VALUES, rng.normal(scale=20, size=1000)]).reshape(4, 5, -1)
        with np.errstate(all="ignore"):
            assert same_bits(engine._logistic(x), masked_logistic(x))

    def test_logistic_matches_where_select_bit_for_bit(self, rng):
        """The branch-free numerator against the two-quotient select it replaced."""
        edges = np.array([1e-300, -1e-300, 745.0, -745.0, 744.5, -744.5])
        x = np.concatenate([SPECIAL_VALUES, edges, rng.normal(scale=20, size=2002)])
        with np.errstate(all="ignore"):
            e = np.exp(np.minimum(x, -x))
            want = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
            assert same_bits(engine._logistic(x), want)
            assert same_bits(engine._logistic(x.reshape(2, 2, -1)), want.reshape(2, 2, -1))

    def test_pointwise_gradients_match_finite_differences(self, rng):
        weight = Tensor(rng.normal(size=(1, 100)))
        x = rng.uniform(-1, 1, size=(10, 10))
        x = np.where(np.abs(x) < 1e-3, 0.1, x)  # keep leaky inputs away from the kink
        report = grad_check(
            lambda t: linear_readout(engine.leaky_rectifier(t[0], 0.2), weight), [x], tolerance=1e-6
        )
        assert report.passed, report


class TestConv2d:
    def test_zero_input_zero_output(self, rng):
        w = Tensor(rng.normal(size=(32, 1, 4, 4)))
        out = engine.conv2d(Tensor(np.zeros((1, 1, 30, 30))), w, Tensor(np.zeros(32)))
        assert out.shape == (1, 32, 15, 15)
        assert not out.data.any()

    def test_identity_tap_shifts_delta(self):
        # kernel with a single 1 at tap (1, 1); stride-2 sampling of the
        # padded image picks out the delta where the tap lands on it
        img = np.zeros((1, 1, 8, 8))
        img[0, 0, 4, 4] = 1.0
        w = np.zeros((1, 1, 4, 4))
        w[0, 0, 1, 1] = 1.0
        got = engine.conv2d(Tensor(img), Tensor(w), None, stride=2).data
        assert np.array_equal(got, naive_conv2d(img, w, None, 2))
        assert got.sum() == 1.0

    def test_matches_naive_oracle(self, rng):
        x = rng.normal(size=(2, 3, 9, 7))
        w = rng.normal(size=(5, 3, 4, 4))
        b = rng.normal(size=5)
        got = engine.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2).data
        assert np.allclose(got, naive_conv2d(x, w, b, 2), atol=1e-12)

    def test_stride1_matches_naive_oracle(self, rng):
        x = rng.normal(size=(2, 4, 2, 2))
        w = rng.normal(size=(4, 4, 3, 3))
        got = engine.conv2d(Tensor(x), Tensor(w), None, stride=1).data
        assert np.allclose(got, naive_conv2d(x, w, None, 1), atol=1e-12)

    def test_encoder_shape_chain(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 30, 30)))
        sizes = [30]
        prev = 1
        for c in (32, 64, 128, 256):
            w = Tensor(rng.normal(size=(c, prev, 4, 4)) * 0.1)
            x = engine.conv2d(x, w, None, stride=2)
            sizes.append(x.shape[2])
            prev = c
        assert sizes == [30, 15, 8, 4, 2]
        assert x.shape == (1, 256, 2, 2)

    def test_output_shape_is_ceil(self, rng):
        for h in range(4, 20):
            for w_sz in range(4, 12):
                x = Tensor(np.zeros((1, 1, h, w_sz)))
                k = Tensor(np.zeros((2, 1, 4, 4)))
                out = engine.conv2d(x, k, None, stride=2)
                assert out.shape == (1, 2, -(-h // 2), -(-w_sz // 2))

    def test_channel_mismatch(self):
        with pytest.raises(EngineError):
            engine.conv2d(Tensor(np.zeros((1, 3, 8, 8))), Tensor(np.zeros((2, 4, 4, 4))), None)

    def test_gradients(self, rng):
        x = rng.uniform(-1, 1, size=(1, 2, 6, 6))
        w = rng.uniform(-1, 1, size=(3, 2, 4, 4))
        b = rng.uniform(-1, 1, size=3)

        def f(ts):
            out = engine.conv2d(ts[0], ts[1], ts[2], stride=2)
            return engine.softmax_cross_entropy(engine.reshape(out, (1, -1)), np.array([5]))

        assert grad_check(f, [x, w, b], tolerance=1e-4).passed

    @pytest.mark.parametrize("x_shape, w_shape, stride", [
        ((2, 3, 9, 7), (5, 3, 4, 4), 2),  # asymmetric ceil padding on both axes
        ((2, 3, 5, 6), (4, 3, 3, 3), 1),
        ((40, 2, 30, 30), (3, 2, 4, 4), 2),  # 225 rows per image: three image blocks
    ])
    def test_gradients_match_loop_adjoint(self, rng, x_shape, w_shape, stride):
        x, w, b = (Tensor(rng.normal(size=s), requires_grad=True)
                   for s in (x_shape, w_shape, w_shape[:1]))
        out = engine.conv2d(x, w, b, stride=stride)
        g = rng.normal(size=out.shape)
        linear_readout(out, Tensor(g.reshape(1, -1))).backward()
        dx, dw, db = naive_conv2d_backward(x.data, w.data, g, stride)
        assert x.grad.shape == x_shape
        assert np.allclose(x.grad, dx, rtol=0, atol=1e-12)
        assert np.allclose(w.grad, dw, rtol=0, atol=1e-12)
        assert np.allclose(b.grad, db, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("x_shape, w_shape, stride", [
        ((2, 3, 9, 7), (5, 3, 4, 4), 2),
        ((2, 4, 5, 6), (3, 4, 3, 3), 1),
    ])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_channels_last_input_matches_nchw(self, rng, x_shape, w_shape, stride, with_bias):
        """A C-contiguous input and the NCHW view of a channels-last buffer
        holding the same values give the same bits, forward and backward."""
        x = rng.normal(size=x_shape)
        w = rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0]) if with_bias else None
        ho, wo = -(-x_shape[2] // stride), -(-x_shape[3] // stride)
        g = rng.normal(size=(x_shape[0], w_shape[0], ho, wo))
        results = []
        for xd in (x, np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)):
            ts = [Tensor(a, requires_grad=True) for a in (xd, w, b) if a is not None]
            out = engine.conv2d(*ts[:2], ts[2] if with_bias else None, stride=stride)
            linear_readout(out, Tensor(g.reshape(1, -1))).backward()
            results.append([out.data] + [t.grad for t in ts])
        for a, c in zip(*results):
            assert np.array_equal(a, c)
        dx, dw, db = naive_conv2d_backward(x, w, g, stride)
        for got, want in zip(results[0][1:], (dx, dw, db)):
            assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert results[0][2].flags.c_contiguous  # the kernel gradient, as Adam's moments are

    def test_encoder_outputs_stay_channels_last(self, rng, monkeypatch):
        """Every encoder conv returns the NCHW view of a channels-last buffer,
        so the next conv reads its input without a copy."""
        outputs = []
        conv2d = engine.conv2d

        def recording_conv2d(*args, **kwargs):
            outputs.append(conv2d(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(engine, "conv2d", recording_conv2d)
        network.encode_slice(training.build_model("cnn_only", 2).encoder, rng.uniform(size=(3, 1, 30, 30)))
        shapes = [o.shape[1:] for o in outputs]
        assert shapes == [(32, 15, 15), (64, 8, 8), (128, 4, 4), (256, 2, 2)]
        for out in outputs:
            assert out.data.transpose(0, 2, 3, 1).flags.c_contiguous

    @pytest.mark.parametrize("x_shape, w_shape, stride", [
        ((40, 2, 30, 30), (3, 2, 4, 4), 2),  # 225 rows per image: blocks of 18, 18 and 4 images
        ((10, 2, 30, 30), (3, 2, 3, 3), 1),  # 900 rows per image: four images per block
    ])
    def test_same_bits_with_and_without_a_graph(self, rng, x_shape, w_shape, stride):
        """Recording keeps the padded input for the backward; with or without
        a graph the row blocks share one scratch buffer. The output bits agree."""
        x, w, b = (rng.normal(size=s) for s in (x_shape, w_shape, w_shape[:1]))
        recorded = engine.conv2d(Tensor(x, requires_grad=True), Tensor(w), Tensor(b), stride=stride)
        assert recorded._backward is not None
        with engine.no_grad():
            streamed = engine.conv2d(Tensor(x, requires_grad=True), Tensor(w), Tensor(b), stride=stride)
        assert streamed._backward is None
        assert same_bits(recorded.data, streamed.data)
        assert np.allclose(streamed.data, naive_conv2d(x, w, b, stride), rtol=0, atol=1e-12)

    def test_forward_only_encoder_never_holds_a_whole_patch_matrix(self, rng):
        """576 slices, one 64-shape extract batch: enc1's full patch matrix
        alone would be 36,864 x 512 float64 (151 MB)."""
        params = training.build_model("cnn_only", 2).encoder
        x = rng.uniform(size=(576, 1, 30, 30))
        tracemalloc.start()
        try:
            with engine.no_grad():
                network.encode_slice(params, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 150e6, f"traced peak {peak / 1e6:.0f} MB"

    def test_recorded_encoder_holds_padded_inputs_not_patch_rows(self, rng):
        """288 slices, one B=32, k=3 training batch: enc1's patch rows alone
        would be 18,432 x 512 float64 (75 MB), its padded input 24 MB."""
        params = training.build_model("cnn_only", 2).encoder
        x = rng.uniform(size=(288, 1, 30, 30))
        tracemalloc.start()
        try:
            out = network.encode_slice(params, x)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out._backward is not None
        assert held < 150e6, f"traced {held / 1e6:.0f} MB"

    def test_encoder_backward_never_holds_a_whole_input_gradient_matrix(self, rng):
        """288 slices, one B=32, k=3 training batch: enc1's whole input
        gradient matrix alone would be 18,432 x 512 float64 (75 MB)."""
        params = training.build_model("cnn_only", 2).encoder
        out = network.encode_slice(params, rng.uniform(size=(288, 1, 30, 30)))
        loss = linear_readout(out, Tensor(rng.normal(size=(1, out.size))))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 120e6, f"traced peak {(peak - start) / 1e6:.0f} MB"

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_drawn_shapes_match_loop_oracles(self, data):
        """Forward, dx, dw and db against the loop oracles, on drawn batch,
        channel, map (H != W), kernel and stride sizes."""
        b, ci, co = (data.draw(st.integers(1, n)) for n in (3, 4, 4))
        h = data.draw(st.integers(1, 9))
        w = data.draw(st.integers(1, 9).filter(lambda v: v != h))
        kh, kw = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        stride = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x, k, bias = (Tensor(rng.normal(size=s), requires_grad=True)
                      for s in ((b, ci, h, w), (co, ci, kh, kw), (co,)))
        out = engine.conv2d(x, k, bias, stride=stride)
        assert np.allclose(out.data, naive_conv2d(x.data, k.data, bias.data, stride), rtol=0, atol=1e-12)
        g = rng.normal(size=out.shape)
        linear_readout(out, Tensor(g.reshape(1, -1))).backward()
        for got, want in zip((x.grad, k.grad, bias.grad), naive_conv2d_backward(x.data, k.data, g, stride)):
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_input_without_gradient_gets_none(self, rng):
        x = Tensor(rng.uniform(-1, 1, size=(2, 1, 6, 6)))
        w = Tensor(rng.uniform(-1, 1, size=(3, 1, 4, 4)), requires_grad=True)
        out = engine.conv2d(x, w, None, stride=2)
        engine.softmax_cross_entropy(engine.reshape(out, (2, -1)), np.array([0, 4])).backward()
        assert x.grad is None
        assert w.grad is not None and w.grad.any()


class TestGraphLifetime:
    def test_backward_consumes_interior_nodes_and_leaves_keep_grads(self, rng):
        x = Tensor(rng.normal(size=(2, 1, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 1, 4, 4)), requires_grad=True)
        conv = engine.conv2d(x, w, None)
        act = engine.leaky_rectifier(conv, 0.2)
        loss = engine.softmax_cross_entropy(engine.reshape(act, (2, -1)), np.array([0, 4]))
        loss.backward()
        for node in (conv, act, loss):
            assert node._parents == ()
            assert node.grad is None
            assert node._backward.__closure__ is None  # no saved array is left
        assert x.grad.shape == x.shape and w.grad.shape == w.shape

    def test_second_backward_raises(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        loss = engine.softmax_cross_entropy(engine.leaky_rectifier(x, 0.2), np.array([0, 2]))
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(EngineError, match="consumed"):
            loss.backward()
        assert same_bits(x.grad, first)

    @pytest.mark.parametrize("mean_first", [False, True])
    def test_tensor_read_by_two_ops_gets_the_summed_gradient(self, rng, mean_first):
        """A reshape view and a mean_axis copy both reach one input, the
        sweep handing over either one first."""
        wa, wb = Tensor(rng.normal(size=(3, 12))), Tensor(rng.normal(size=(3, 4)))
        bias = Tensor(np.zeros(3))

        def f(ts):
            a = engine.fully_connected(engine.reshape(ts[0], (2, 12)), wa, bias)
            b = engine.fully_connected(engine.mean_axis(ts[0], axis=1), wb, bias)
            return engine.softmax_cross_entropy(add(b, a) if mean_first else add(a, b), np.array([1, 2]))

        report = grad_check(f, [rng.normal(size=(2, 3, 4))], tolerance=1e-6)
        assert report.passed, report


def _other_call_forms():
    """Every rank but the batched one, and targets that are not integers."""
    kernels = np.ones((2, 1, 3, 3))
    for shape in [(), (3,), (3, 3), (1, 3, 3), (1, 1, 1, 3, 3)]:
        yield pytest.param(engine.conv2d, (np.ones(shape), kernels), id=f"conv2d-{shape}")
    for shape in [(), (3,), (1, 1, 3)]:
        yield pytest.param(engine.fully_connected, (np.ones(shape), np.ones((2, 3)), np.zeros(2)),
                           id=f"fully_connected-{shape}")
    for shape, targets in [((), 0), ((3,), 0), ((3,), [0]), ((1, 1, 3), [0]), ((2, 3), 0),
                           ((2, 3), [[0, 1]]), ((2, 3), [0.9, 1.7]), ((2, 3), [0.0, 1.0])]:
        yield pytest.param(engine.softmax_cross_entropy, (np.zeros(shape), np.array(targets)),
                           id=f"softmax_cross_entropy-{shape}-{targets}")


@pytest.mark.parametrize("op, args", _other_call_forms())
def test_only_the_batched_form_is_accepted(op, args):
    """conv2d takes (B, C, H, W), fully_connected (B, F) and
    softmax_cross_entropy (B, C) logits with (B,) integer targets."""
    with pytest.raises(EngineError):
        op(*args)


class TestUnrollFold:
    """The ConvLSTM's dense gate matrices against per-tap loops, on 36
    kernel rows: one full block of 32 and a tail of 4."""

    MAPS = [(1, 1), (2, 2), (2, 3), (3, 3), (4, 4)]  # from 3 cells across, a 3x3 kernel misses some pairs

    @pytest.mark.parametrize("h, w", MAPS)
    @pytest.mark.parametrize("k", [3, 1])
    def test_unroll_matches_per_tap_loop(self, rng, h, w, k):
        kernels = rng.normal(size=(4, 9, 2, k, k))
        kernels[1, 2, 1, k - 1, 0] = -0.0
        got = engine._unroll(kernels, engine._conv_taps(h, w, k, k))
        assert same_bits(got, loop_unroll(kernels, h, w))

    @pytest.mark.parametrize("h, w", MAPS)
    @pytest.mark.parametrize("k", [3, 1])
    def test_fold_matches_per_tap_loop(self, rng, h, w, k):
        shape = (4, 9, 2, k, k)
        dense = rng.normal(size=(h * w * 36, 2 * h * w))
        dense[0, 0] = -0.0  # a tap's sum starts from +0.0, so this adds to +0.0
        got = engine._fold(dense, engine._conv_taps(h, w, k, k), shape)
        assert same_bits(got, loop_fold(dense, h, w, shape))
        assert got.flags.c_contiguous  # as Adam's moments are

    @pytest.mark.parametrize("h, w", MAPS)
    @pytest.mark.parametrize("k", [3, 1])
    def test_fold_is_the_adjoint_of_unroll(self, rng, h, w, k):
        kernels = rng.normal(size=(4, 9, 2, k, k))
        dense = rng.normal(size=(h * w * 36, 2 * h * w))
        taps = engine._conv_taps(h, w, k, k)
        lhs = np.vdot(engine._fold(dense, taps, kernels.shape), kernels)
        rhs = np.vdot(dense, engine._unroll(kernels, taps))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestConvLstm:
    """`engine.convlstm` on drawn sizes: batch 1-2, maps 1x1 to 3x3 (H and W
    drawn apart; a 3-cell side has pairs the 3x3 kernel does not reach),
    T 1-4, each with and without `h0` and `c0`."""

    @staticmethod
    def draw_case(data, max_channels):
        """(x, [w_x, w_h, w_c, b], h0, c0) arrays; an absent start is None."""
        b, c = data.draw(st.integers(1, 2)), data.draw(st.integers(1, max_channels))
        t, h, w = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        with_h0, with_c0 = data.draw(st.booleans()), data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # at scale 0.5 few gates saturate, so every term moves the outputs
        params = [0.5 * rng.normal(size=s) for s in ((4, c, c, 3, 3), (4, c, c, 3, 3), (3, c, h, w), (4, c))]
        x = rng.normal(size=(b, t, c, h, w))
        h0, c0 = (rng.normal(size=(b, c, h, w)) if given else None for given in (with_h0, with_c0))
        return x, params, h0, c0

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_drawn_sequences_match_scalar_reference(self, data):
        """Both final states against a loop of `conftest.scalar_convlstm_step`,
        which starts an absent state from zeros; with a graph, the forward
        gives the same bits as without."""
        x, params, h0, c0 = self.draw_case(data, max_channels=3)
        with engine.no_grad():
            h, c = engine.convlstm(x, *params, h0, c0)
        graph_inputs = [None if a is None else Tensor(a, requires_grad=True) for a in (x, *params, h0, c0)]
        h_graph, c_graph = engine.convlstm(*graph_inputs)
        assert h_graph._backward is not None and h._backward is None
        assert same_bits(h_graph.data, h.data) and same_bits(c_graph.data, c.data)
        p = [Tensor(a) for a in params]
        for i, seq in enumerate(x):
            h_ref = np.zeros(seq.shape[1:]) if h0 is None else h0[i]
            c_ref = np.zeros(seq.shape[1:]) if c0 is None else c0[i]
            for x_t in seq:
                h_ref, c_ref = scalar_convlstm_step(p, x_t, h_ref, c_ref)
            denom = max(np.abs(h_ref).max(), np.abs(c_ref).max(), 1.0)
            assert np.abs(h.data[i] - h_ref).max() / denom < 1e-10
            assert np.abs(c.data[i] - c_ref).max() / denom < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_drawn_sequences_pass_grad_check(self, data):
        """Every input's gradient, `h0` and `c0` included, against finite
        differences at the suite's 1e-4; both outputs reach the loss."""
        x, params, h0, c0 = self.draw_case(data, max_channels=2)
        starts = [s is not None for s in (h0, c0)]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        readouts = [Tensor(rng.normal(size=(1, x[:, 0].size))) for _ in range(2)]

        def f(ts):
            given = iter(ts[5:])
            outs = engine.convlstm(*ts[:5], *(next(given) if s else None for s in starts))
            return add(*(linear_readout(out, r) for out, r in zip(outs, readouts)))

        report = grad_check(f, [x, *params, *(s for s in (h0, c0) if s is not None)], tolerance=1e-4)
        assert report.passed, report


class TestRmsNormalize:
    def test_unit_rms_per_group(self, rng):
        x = rng.normal(size=(3, 4, 2, 2)) * np.array([0.1, 1.0, 1e4])[:, None, None, None]
        out = engine.rms_normalize(Tensor(x), axes=(-3, -2, -1)).data
        assert np.allclose(np.sqrt((out**2).mean(axis=(1, 2, 3))), 1.0, atol=1e-6)
        assert np.allclose(out, x / np.sqrt((x**2).mean(axis=(1, 2, 3), keepdims=True)))

    def test_positive_rescaling_invariant(self, rng):
        x = rng.normal(size=(2, 8))
        a = engine.rms_normalize(Tensor(x), axes=-1).data
        b = engine.rms_normalize(Tensor(37.0 * x), axes=-1).data
        assert np.allclose(a, b, atol=1e-12)

    def test_zero_group_stays_zero(self):
        out = engine.rms_normalize(Tensor(np.zeros((2, 3, 2, 2))), axes=(-3, -2, -1))
        assert not out.data.any()

    def test_gradients(self, rng):
        x = rng.normal(size=(2, 3, 2, 2))
        weight = Tensor(rng.normal(size=(1, x.size)))

        def f(ts):
            return linear_readout(engine.rms_normalize(ts[0], axes=(-3, -2, -1)), weight)

        assert grad_check(f, [x], tolerance=1e-4).passed


class TestFullyConnected:
    def test_identity_weight(self, rng):
        x = rng.normal(size=(2, 5))
        out = engine.fully_connected(Tensor(x), Tensor(np.eye(5)), Tensor(np.zeros(5)))
        assert np.allclose(out.data, x)

    def test_zero_weight_gives_bias(self, rng):
        b = rng.normal(size=4)
        out = engine.fully_connected(Tensor(np.ones((2, 6))), Tensor(np.zeros((4, 6))), Tensor(b))
        assert out.shape == (2, 4)
        assert np.allclose(out.data, b)

    def test_matches_matvec_oracle(self, rng):
        x, w, b = rng.normal(size=(2, 7)), rng.normal(size=(3, 7)), rng.normal(size=3)
        expected = np.array(
            [[sum(w[i, j] * x[r, j] for j in range(7)) + b[i] for i in range(3)] for r in range(2)]
        )
        out = engine.fully_connected(Tensor(x), Tensor(w), Tensor(b))
        assert np.allclose(out.data, expected)

    def test_input_without_gradient_gets_none(self, rng):
        x = Tensor(rng.normal(size=(2, 5)))
        w, b = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((3, 5), (3,)))
        engine.softmax_cross_entropy(engine.fully_connected(x, w, b), np.array([0, 2])).backward()
        assert x.grad is None
        assert w.grad.shape == w.shape and b.grad.shape == b.shape

    def test_width_mismatch(self):
        with pytest.raises(EngineError):
            engine.fully_connected(Tensor(np.zeros((1, 5))), Tensor(np.zeros((3, 6))), Tensor(np.zeros(3)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss_is_ln_c(self):
        for c in (2, 5, 41):
            loss = engine.softmax_cross_entropy(Tensor(np.zeros((1, c))), np.array([0]))
            assert loss.item() == pytest.approx(np.log(c))

    def test_gradient_at_uniform_logits(self):
        logits = Tensor(np.zeros((1, 4)), requires_grad=True)
        engine.softmax_cross_entropy(logits, np.array([2])).backward()
        expected = np.full((1, 4), 0.25)
        expected[0, 2] -= 1.0
        assert np.allclose(logits.grad, expected)

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.normal(size=(1, 6))
        report = grad_check(
            lambda ts: engine.softmax_cross_entropy(ts[0], np.array([4])), [logits], tolerance=1e-6
        )
        assert report.passed, report

    def test_softmax_sums_to_one(self, rng):
        p = engine.softmax(rng.normal(size=(8, 5)) * 50)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_loss_nonnegative_and_stable(self):
        loss = engine.softmax_cross_entropy(Tensor([[1e4, -1e4]]), np.array([0]))
        assert 0.0 <= loss.item() < 1e-6

    def test_target_out_of_range(self):
        with pytest.raises(EngineError):
            engine.softmax_cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))


class TestAdam:
    def test_first_step_is_signed_lr(self, rng):
        lr = 0.01
        g = rng.normal(size=(4, 4))
        g[np.abs(g) < 0.1] = 0.5
        p = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        before = p.data.copy()
        state = AdamState.for_params([p])
        adam_step([p], [g], state, lr)
        update = p.data - before
        assert np.abs(update + lr * np.sign(g)).max() < lr * 1e-6

    def test_zero_gradient_keeps_params(self):
        p = Tensor(np.ones(3), requires_grad=True)
        state = AdamState.for_params([p])
        adam_step([p], [np.zeros(3)], state, 0.1)
        assert np.array_equal(p.data, np.ones(3))
        assert state.t == 1

    def test_quadratic_descent(self):
        # scalar reference: three steps on f(w) = w^2 from w = 1
        p = Tensor(np.array(1.0), requires_grad=True)
        state = AdamState.for_params([p])
        values = [float(p.data)]
        for _ in range(3):
            adam_step([p], [2.0 * p.data], state, 0.1)
            values.append(float(p.data))
        assert values[0] > values[1] > values[2] > values[3] >= 0.0

    def test_non_finite_gradient_aborts(self):
        p = Tensor(np.ones(2), requires_grad=True)
        state = AdamState.for_params([p])
        with pytest.raises(NonFiniteGradient):
            adam_step([p], [np.array([1.0, np.nan])], state, 0.1)
        assert np.array_equal(p.data, np.ones(2))
        assert state.t == 0  # aborted before any state mutation

    def test_strided_parameter_aborts(self):
        """The update runs on flat views, which a strided parameter has not."""
        p = Tensor(np.ones((3, 2)).T, requires_grad=True)
        state = AdamState.for_params([p])
        with pytest.raises(EngineError, match="C-contiguous"):
            adam_step([p], [np.ones((2, 3))], state, 0.1)
        assert np.array_equal(p.data, np.ones((2, 3)))
        assert state.t == 0

    def test_step_is_pure_in_inputs(self, rng):
        g = rng.normal(size=(3,))
        results = []
        for _ in range(2):
            p = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
            state = AdamState.for_params([p])
            adam_step([p], [g], state, 0.05)
            adam_step([p], [g * 0.5], state, 0.05)
            results.append(p.data.copy())
        assert np.array_equal(results[0], results[1])

    def test_in_place_update_matches_expression(self, rng):
        """Five steps give the bits of the plain-expression update, in the
        parameters' dtype, float64 or float32."""
        b1, b2, eps = engine.ADAM_BETA1, engine.ADAM_BETA2, engine.ADAM_EPS
        shapes = [(3, 4), (5,), (2**15 + 5,)]  # the last: one full block and a tail
        for dtype in (np.float64, np.float32):
            steps = [[(rng.normal(size=s) * 10.0 ** rng.integers(-6, 3, size=s)).astype(dtype) for s in shapes]
                     for _ in range(5)]
            # parameters start at zero so that no update's low bits are rounded away
            params = [Tensor(np.zeros(s, dtype), requires_grad=True) for s in shapes]
            ref = [p.data.copy() for p in params]
            m = [np.zeros(s, dtype) for s in shapes]
            v = [np.zeros(s, dtype) for s in shapes]
            state = AdamState.for_params(params)
            for t, grads in enumerate(steps, 1):
                adam_step(params, grads, state, 0.01)
                c1, c2 = 1.0 - b1**t, 1.0 - b2**t
                for k, g in enumerate(grads):
                    m[k] = m[k] * b1 + (1.0 - b1) * g
                    v[k] = v[k] * b2 + (1.0 - b2) * (g * g)
                    ref[k] = ref[k] - 0.01 * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)
            for p, want, mk, vk, sm, sv in zip(params, ref, m, v, state.m, state.v):
                assert p.data.dtype == sm.dtype == sv.dtype == dtype
                assert np.array_equal(p.data, want)
                assert np.array_equal(sm, mk) and np.array_equal(sv, vk)

    def test_epoch_decay_exact(self):
        opt = Adam([Tensor(np.zeros(1), requires_grad=True)], 0.01, decay=0.995)
        for e in (0, 1, 7, 60):
            assert opt.lr_at_epoch(e) == 0.01 * 0.995**e


# (op, input shapes, the op applied to a list of Tensors) for every engine
# op with a backward; softmax_cross_entropy reads out each one's output
_OPS = [
    ("leaky_rectifier", [(2, 3, 4)], lambda t: engine.leaky_rectifier(t[0], 0.2)),
    ("rms_normalize", [(2, 3, 4)], lambda t: engine.rms_normalize(t[0], axes=(-2, -1))),
    ("reshape", [(2, 3, 4)], lambda t: engine.reshape(t[0], (2, 12))),
    ("mean_axis", [(2, 3, 4)], lambda t: engine.mean_axis(t[0], axis=1)),
    ("conv2d", [(2, 2, 6, 6), (3, 2, 4, 4), (3,)], lambda t: engine.conv2d(*t, stride=2)),
    ("fully_connected", [(2, 5), (3, 5), (3,)], lambda t: engine.fully_connected(*t)),
    ("convlstm", [(2, 3, 4, 2, 2), (4, 4, 4, 3, 3), (4, 4, 4, 3, 3), (3, 4, 2, 2), (4, 4),
                  (2, 4, 2, 2), (2, 4, 2, 2)], lambda t: add(*engine.convlstm(*t))),
]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name, shapes, op", _OPS, ids=[name for name, _, _ in _OPS])
def test_op_values_and_gradients_keep_the_input_dtype(rng, name, shapes, op, dtype):
    """Float64 inputs stay float64 through every op and its backward (the
    leaky rectifier's included), as float32 ones stay float32."""
    inputs = [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in shapes]
    out = op(inputs)
    loss = engine.softmax_cross_entropy(engine.reshape(out, (2, -1)), np.array([0, 1]))
    loss.backward()
    assert out.data.dtype == loss.data.dtype == dtype
    assert [t.grad.dtype for t in inputs] == [dtype] * len(inputs)
    assert engine.softmax(out.data.reshape(2, -1)).dtype == dtype


class TestGradCheck:
    def test_linear_function_exact(self, rng):
        w = rng.normal(size=(3, 5))

        def f(ts):
            return engine.softmax_cross_entropy(
                engine.fully_connected(ts[0], Tensor(w), Tensor(np.zeros(3))), np.array([1])
            )

        report = grad_check(f, [rng.normal(size=(1, 5))])
        assert report.max_rel_error < 1e-7

    def test_small_gradient_beside_a_large_value(self):
        """d/dx (1e-6 x + 100) at x = 0.3: the backward is exact, so only the
        numerical estimate's round-off on values near 100 can fail it."""

        def f(ts):
            return engine.fully_connected(engine.reshape(ts[0], (1, 1)), Tensor([[1e-6]]), Tensor([100.0]))

        report = grad_check(f, [np.array(0.3)])
        assert report.passed, report

    def test_kink_beside_the_point(self):
        """Leaky rectifier inputs a few 1e-6 from the kink: every step
        reaches across it on one side, the other side holds the slope."""
        weight = Tensor(np.array([[1.0, -2.0, 0.5, 3.0]]))
        x = np.array([1e-6, -3e-6, 0.5, -0.5])

        def f(ts):
            return linear_readout(engine.leaky_rectifier(ts[0], 0.2), weight)

        assert grad_check(f, [x]).passed

        def misplaced_kink(ts):  # the slope switches at 1e-5 in the backward
            a = ts[0]

            def backward(g):
                a.accumulate(np.where(a.data >= 1e-5, g, 0.2 * g))

            out = engine._make(np.maximum(a.data, 0.2 * a.data), (a,), backward)
            return linear_readout(out, weight)

        assert not grad_check(misplaced_kink, [x]).passed

    @staticmethod
    def _shifted_end_to_end(shift):
        """The gate's end-to-end check, drawn from its seed-31 stream after
        `shift` leading normal draws."""
        rng = np.random.default_rng(31)
        rng.normal(size=shift)
        name, fn, inputs = gradient_suite_cases(rng)[-1]
        assert name == "end_to_end"
        return fn, inputs

    def test_end_to_end_across_a_kink(self):
        """34 draws later, an inner leaky-rectifier input of the end-to-end
        check lies so near its kink that every step tried reaches across."""
        fn, inputs = self._shifted_end_to_end(34)
        report = grad_check(fn, inputs, tolerance=1e-4)
        assert report.passed, report

    @pytest.mark.parametrize("shift", [0, 34])
    def test_end_to_end_without_peephole_gradient_fails(self, shift, monkeypatch):
        """A backward that drops the peephole gradient still fails, the
        kink next door or not."""
        convlstm = engine.convlstm

        def no_peephole_gradient(x, w_x, w_h, w_c, b, *starts):
            return convlstm(x, w_x, w_h, Tensor(w_c.data), b, *starts)

        monkeypatch.setattr(engine, "convlstm", no_peephole_gradient)
        fn, inputs = self._shifted_end_to_end(shift)
        assert not grad_check(fn, inputs, tolerance=1e-4).passed
