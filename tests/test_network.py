import struct

import numpy as np
import pytest

from mdrnet import engine, network
from mdrnet.engine import Tensor, grad_check
from mdrnet.network import (
    DESCRIPTOR_DIM,
    NetworkError,
    encode_slice,
    load_descriptors,
    load_records,
    save_descriptors,
    save_records,
)
from mdrnet.training import Trainer, TrainConfig, build_model

from conftest import add, make_tiny_encoder, make_tiny_lstm, scalar_convlstm_step, seal


def zero_params(tensors):
    for t in tensors:
        t.data = np.zeros_like(t.data)


def descriptor(model, mdr):
    """Shape descriptor of one (3k, H, W) slice stack."""
    return model.latent(np.asarray(mdr)[None]).data[0]


class TestEncodeSlice:
    def test_zero_slice_zero_biases_gives_zero(self):
        model = build_model("full", 4, seed=0)
        with engine.no_grad():
            out = encode_slice(model.encoder, Tensor(np.zeros((1, 1, 30, 30))))
        assert out.shape == (1, 256, 2, 2)
        assert not out.data.any()

    def test_output_shape(self, rng):
        model = build_model("full", 4, seed=1)
        with engine.no_grad():
            out = encode_slice(model.encoder, Tensor(rng.uniform(0, 1, (1, 1, 30, 30))))
        assert out.shape == (1, 256, 2, 2)

    def test_different_slices_differ(self, rng):
        model = build_model("full", 4, seed=2)
        for _ in range(3):
            a = rng.uniform(0, 1, (1, 1, 30, 30))
            b = rng.uniform(0, 1, (1, 1, 30, 30))
            with engine.no_grad():
                fa = encode_slice(model.encoder, Tensor(a)).data
                fb = encode_slice(model.encoder, Tensor(b)).data
            assert not np.array_equal(fa, fb)

    def test_wrong_shape_rejected(self):
        model = build_model("full", 4, seed=0)
        with pytest.raises(engine.EngineError):
            encode_slice(model.encoder, Tensor(np.zeros((1, 2, 30, 30))))


class TestConvLstmStep:
    """One transition: `engine.convlstm` over a length-1 sequence from given states."""

    def test_zero_everything_gives_half_gates(self, rng):
        p = make_tiny_lstm(rng)
        zero_params(p)
        x = rng.normal(size=(1, 4, 2, 2))
        zeros = np.zeros((1, 4, 2, 2))
        with engine.no_grad():
            h, c = engine.convlstm(x[:, None], *p, zeros, zeros)
        assert not c.data.any()
        assert not h.data.any()

    def test_zero_weights_closed_form(self, rng):
        p = make_tiny_lstm(rng)
        zero_params(p)
        c_prev = rng.normal(size=(1, 4, 2, 2))
        x = rng.normal(size=(1, 4, 2, 2))
        with engine.no_grad():
            h, c = engine.convlstm(x[:, None], *p, np.zeros((1, 4, 2, 2)), c_prev)
        assert np.array_equal(c.data, 0.5 * c_prev)
        assert np.array_equal(h.data, 0.5 * np.tanh(0.5 * c_prev))

    def test_matches_scalar_reference(self, rng):
        for _ in range(10):
            p = make_tiny_lstm(rng)
            x = rng.normal(size=(4, 2, 2))
            h0 = rng.normal(size=(4, 2, 2))
            c0 = rng.normal(size=(4, 2, 2))
            with engine.no_grad():
                h, c = engine.convlstm(x[None, None], *p, h0[None], c0[None])
            h_ref, c_ref = scalar_convlstm_step(p, x, h0, c0)
            denom = max(np.abs(h_ref).max(), np.abs(c_ref).max(), 1.0)
            assert np.abs(h.data[0] - h_ref).max() / denom < 1e-10
            assert np.abs(c.data[0] - c_ref).max() / denom < 1e-10

    def test_gate_ranges_and_state_bounds(self, rng):
        p = make_tiny_lstm(rng, scale=3.0)
        x = rng.normal(size=(1, 4, 2, 2)) * 5
        h = Tensor(np.zeros((1, 4, 2, 2)))
        c = Tensor(np.zeros((1, 4, 2, 2)))
        with engine.no_grad():
            for _ in range(20):
                c_prev = c.data.copy()
                h, c = engine.convlstm(x[:, None], *p, h, c)
                assert (np.abs(c.data) <= np.abs(c_prev) + 1.0 + 1e-12).all()
                # strict in exact arithmetic; sigmoid/tanh saturate to 1.0 in float
                assert (np.abs(h.data) <= 1.0).all()


class TestRunConvLstm:
    def test_sequence_matches_scalar_reference(self, rng):
        # the 3x3 map has kernel taps that fall outside it
        for spatial in (2, 3):
            p = make_tiny_lstm(rng, spatial=spatial)
            feats = rng.normal(size=(2, 4, 4, spatial, spatial))
            with engine.no_grad():
                got = network.run_convlstm(Tensor(feats), *p).data
            for b in range(2):
                h = c = np.zeros((4, spatial, spatial))
                for t in range(4):
                    h, c = scalar_convlstm_step(p, feats[b, t], h, c)
                ref = c.reshape(-1)
                denom = max(np.abs(ref).max(), 1.0)
                assert np.abs(got[b] - ref).max() / denom < 1e-10, spatial


def _lstm_loss(rng, width):
    """Fixed two-layer readout of a (B, width) latent into a cross-entropy."""
    wa, wb = Tensor(rng.normal(size=(3, width)) * 0.5), Tensor(rng.normal(size=(3, width)) * 0.5)
    bias = Tensor(np.zeros(3))

    def loss(first, second=None):
        logits = engine.fully_connected(first, wa, bias)
        if second is not None:
            logits = add(logits, engine.fully_connected(second, wb, bias))
        return engine.softmax_cross_entropy(logits, np.array([1, 2]))

    return loss


class TestConvLstmGradients:
    """Finite-difference checks of the recurrence, at the suite's 1e-4."""

    @staticmethod
    def _check(rng, spatial):
        arrays = [t.data for t in make_tiny_lstm(rng, spatial=spatial, scale=0.4)]
        loss = _lstm_loss(rng, 4 * spatial * spatial)

        def f(ts):
            return loss(network.run_convlstm(ts[-1], *ts[:-1]))

        feats = rng.normal(size=(2, 3, 4, spatial, spatial))
        report = grad_check(f, arrays + [feats], tolerance=1e-4)
        assert report.passed, report

    def test_three_by_three_state_map(self, rng):
        self._check(rng, spatial=3)

    def test_step_from_nonzero_states(self, rng):
        arrays = [t.data for t in make_tiny_lstm(rng, scale=0.4)]
        loss = _lstm_loss(rng, 16)

        def f(ts):
            x, h0, c0 = ts[-3:]
            h, c = engine.convlstm(x, *ts[:-3], h0, c0)
            # both outputs reach the loss, so both backward walks run
            return loss(engine.reshape(h, (2, -1)), engine.reshape(c, (2, -1)))

        x, h0, c0 = (rng.normal(size=(2, 4, 2, 2)) for _ in range(3))
        report = grad_check(f, arrays + [x[:, None], h0, c0], tolerance=1e-4)
        assert report.passed, report


class TestGenerateDescriptor:
    def test_zero_input_zero_params_gives_zero(self):
        model = build_model("full", 4, seed=0)
        zero_params(t for _, t in model.gen_tensors())
        desc = descriptor(model, np.zeros((9, 30, 30)))
        assert desc.shape == (DESCRIPTOR_DIM,)
        assert not desc.any()

    def test_deterministic(self, rng):
        model = build_model("full", 4, seed=5)
        mdr = rng.uniform(0, 1, (9, 30, 30))
        d1 = descriptor(model, mdr)
        d2 = descriptor(model, mdr)
        assert np.array_equal(d1, d2)

    def test_slice_order_matters(self, rng):
        model = build_model("full", 4, seed=6)
        mdr = rng.uniform(0, 1, (9, 30, 30))
        d1 = descriptor(model, mdr)
        d2 = descriptor(model, mdr[::-1].copy())
        assert not np.array_equal(d1, d2)

    def test_wrong_shape_rejected(self):
        model = build_model("full", 4, seed=0)
        with pytest.raises(NetworkError):
            descriptor(model, np.zeros((9, 30)))


class TestDiscriminate:
    def test_zero_params_uniform_softmax(self):
        model = build_model("full", 4, seed=0)
        for _, t in model.head_tensors():
            t.data = np.zeros_like(t.data)
        with engine.no_grad():
            logits = model.head_logits(np.zeros((1, DESCRIPTOR_DIM)))
        assert logits.shape == (1, 5)
        assert np.allclose(engine.softmax(logits.data), 0.2)

    def test_output_width_is_n_plus_one(self):
        for n in (2, 4, 10):
            model = build_model("full", n, seed=1)
            assert model.head[-1][0].shape[0] == n + 1

    def test_matches_matvec_chain(self, rng):
        model = build_model("full", 4, seed=3)
        x = rng.normal(size=(2, DESCRIPTOR_DIM))
        expected = x
        for i, (w, b) in enumerate(model.head):
            expected = expected @ w.data.T + b.data
            if i < len(model.head) - 1:
                expected = np.where(expected >= 0, expected, 0.2 * expected)
        with engine.no_grad():
            got = model.head_logits(x).data
        assert np.allclose(got, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        model = build_model("full", 4, seed=0)
        for shape in [(1, 100), (DESCRIPTOR_DIM,), (1, 1, DESCRIPTOR_DIM)]:
            with pytest.raises(NetworkError):
                model.head_logits(np.zeros(shape))


class TestInitParams:
    def test_deterministic(self):
        t1s = build_model("full", 4, seed=11).named_tensors()
        t2s = build_model("full", 4, seed=11).named_tensors()
        for (n1, t1), (n2, t2) in zip(t1s.items(), t2s.items()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)

    def test_forget_bias_ones_other_biases_zero(self):
        model = build_model("full", 4, seed=0)
        i, f, c, o = model.params["gen.lstm.b"].data
        assert np.array_equal(f, np.ones(256))
        for gate_bias in (i, c, o):
            assert not gate_bias.any()
        for _, b in model.encoder:
            assert not b.data.any()
        for _, b in model.head:
            assert not b.data.any()

    def test_weight_sample_means_near_zero(self):
        model = build_model("full", 4, seed=21)
        for name, t in model.named_tensors().items():
            if name.endswith(".b"):
                continue
            # gate-stacked LSTM tensors are checked one gate slice at a time
            slices = t.data if name.startswith("gen.lstm.") else [t.data]
            for w in slices:
                fan_in = w.shape[1] * (w.shape[2] * w.shape[3] if w.ndim == 4 else 1)
                s = np.sqrt(1.0 / fan_in)
                if w.ndim == 3:  # peephole tensors use channel fan-in
                    s = np.sqrt(1.0 / w.shape[0])
                bound = 3.0 * s / np.sqrt(w.size)
                assert abs(w.mean()) < bound, name
                assert np.abs(w).max() <= s


class TestEndToEndGradient:
    def test_downsized_discriminate_of_descriptor(self, rng):
        enc = make_tiny_encoder(rng, channels=(2, 4), scale=0.4)
        lstm = make_tiny_lstm(rng, channels=4, scale=0.4)
        w1 = rng.normal(size=(5, 16)) * 0.4
        b1 = np.zeros(5)
        w2 = rng.normal(size=(3, 5)) * 0.4
        b2 = np.zeros(3)
        mdr = rng.uniform(0, 1, (1, 3, 6, 6))

        enc_arrays = [a for w, b in enc for a in (w.data, b.data)]
        lstm_arrays = [t.data for t in lstm]

        def f(ts):
            it = iter(ts)
            layers = [(next(it), next(it)) for _ in enc]
            lp = [next(it) for _ in lstm_arrays]
            wa, ba, wb, bb = next(it), next(it), next(it), next(it)
            x = next(it)
            b, t, hh, ww = x.shape
            feats = engine.reshape(x, (b * t, 1, hh, ww))
            for w, bias in layers:
                feats = engine.leaky_rectifier(engine.conv2d(feats, w, bias, stride=2), 0.2)
            feats = engine.rms_normalize(feats, axes=(-3, -2, -1))
            _, ch, fh, fw = feats.shape
            feats = engine.reshape(feats, (b, t, ch, fh, fw))
            z = network.run_convlstm(feats, *lp)
            h = engine.leaky_rectifier(engine.fully_connected(z, wa, ba), 0.2)
            logits = engine.fully_connected(h, wb, bb)
            return engine.softmax_cross_entropy(logits, np.array([1]))

        inputs = enc_arrays + lstm_arrays + [w1, b1, w2, b2, mdr]
        report = grad_check(f, inputs, tolerance=1e-4)
        assert report.passed, report


COUNTS = (3, 4, 3, 2, 10, 11, 0xDEADBEEF)


class TestCheckpointRecords:
    def test_round_trip(self, rng):
        arrays = [rng.normal(size=(3, 4)).astype(np.float32), np.float32(7.0), np.zeros((2, 0), np.float32)]
        counts, values = load_records(save_records(COUNTS, arrays))
        assert counts == COUNTS and all(type(c) is int for c in counts)
        assert values.dtype == np.float32 and not values.flags.writeable
        assert np.array_equal(values, np.concatenate([np.ravel(a) for a in arrays]))

    def test_byte_layout(self):
        # scalar, empty, non-contiguous and integer arrays, back to back with no names or shapes
        t = np.arange(6.0).reshape(2, 3).T
        arrays = [np.float64(2.5), np.zeros((2, 0)), t, np.arange(2)]
        values = [2.5, 0.0, 3.0, 1.0, 4.0, 2.0, 5.0, 0.0, 1.0]
        expected = network.CHECKPOINT_MAGIC + struct.pack("<7I", *COUNTS) + struct.pack("<9f", *values)
        assert save_records(COUNTS, arrays) == seal(expected)
        assert network.CHECKPOINT_COUNTS == 7

    def test_magic_enforced(self):
        with pytest.raises(NetworkError):
            load_records(b"NOTMAGIC" + bytes(40))

    def test_previous_format_refused(self, rng):
        # MDRNET1 weights were trained without the encoder's feature
        # normalization and would give different descriptors; MDRNET2
        # records are float64, with no checksum; MDRNET3 records are named
        data = save_records(COUNTS, [rng.normal(size=(2, 2))])
        for magic in (b"MDRNET1", b"MDRNET2", b"MDRNET3"):
            with pytest.raises(NetworkError, match="magic"):
                load_records(magic + data[len(network.CHECKPOINT_MAGIC):])

    def test_every_truncation_is_typed(self, rng):
        data = save_records(COUNTS, [rng.normal(size=(3, 4)), np.float64(7.0), rng.normal(size=5)])
        for cut in range(len(data)):
            with pytest.raises(NetworkError):
                load_records(data[:cut])

    def test_flipped_byte_rejected(self):
        data = Trainer(TrainConfig(mode="cnn_only", seed=7), 4).save()
        rng = np.random.default_rng(0)
        positions = [0, len(data) - 1, *rng.choice(len(data), 200, replace=False).tolist()]
        for pos, bit in zip(positions, rng.integers(0, 8, len(positions)).tolist()):
            bad = bytearray(data)
            bad[pos] ^= 1 << bit
            with pytest.raises(NetworkError):
                load_records(bad)

    def test_partial_value_rejected(self):
        data = save_records(COUNTS, [np.zeros(2)])
        for extra in (b"\x00", b"\x00" * 3):
            with pytest.raises(NetworkError, match="whole float32 values"):
                load_records(seal(data[:-4] + extra))


class TestDescriptorFiles:
    def test_round_trip(self, rng):
        for ids in (["a_0001", "b_0002"], []):  # an empty table keeps its (0, 1024) shape
            vecs = rng.normal(size=(len(ids), DESCRIPTOR_DIM))
            got_ids, got_vecs = load_descriptors(save_descriptors(ids, vecs))
            assert got_ids == ids
            assert got_vecs.shape == vecs.shape
            assert np.array_equal(got_vecs, vecs)  # 17 significant digits is exact

    def test_values_written_as_fstring_17g(self, rng):
        vecs = rng.normal(size=(2, DESCRIPTOR_DIM)) * 1e3
        vecs[0, :6] = [-0.0, 5e-324, 1e22, np.inf, 1 / 3, 123456789012345678.0]
        lines = save_descriptors(["a", "b"], vecs).decode().splitlines()
        for line, vec in zip(lines[1:], vecs):
            assert line.split("\t")[1] == " ".join(f"{v:.17g}" for v in vec)

    def test_header(self):
        data = save_descriptors(["x"], np.zeros((1, DESCRIPTOR_DIM)))
        assert data.decode().splitlines()[0] == f"DDSD n=1 dim={DESCRIPTOR_DIM}"

    def test_dimension_enforced(self):
        with pytest.raises(NetworkError):
            save_descriptors(["x"], np.zeros((1, 100)))

    def test_header_dimension_enforced(self):
        # a self-consistent table of 3-value vectors is not a descriptor file
        rows = [f"s{i}\t0 1 {i}" for i in range(8)]
        data = "\n".join(["DDSD n=8 dim=3", *rows]).encode()
        with pytest.raises(NetworkError):
            load_descriptors(data)

    def test_malformed_files_rejected(self):
        row = "x\t" + " ".join(["0"] * DESCRIPTOR_DIM)
        for text in (
            "",
            "DDSD",
            "DDSD foo",
            "DDSD n=1",
            "DDSD n=1 dim=x",
            f"DDSD n=x dim={DESCRIPTOR_DIM}\n{row}",
            f"DDSD n=1 dim={DESCRIPTOR_DIM}\nx",
            f"DDSD n=1 dim={DESCRIPTOR_DIM}\n{row[:-1]}y",
            f"DDSD n=2 dim={DESCRIPTOR_DIM}\n{row}",
            f"DDSD n=2 dim={DESCRIPTOR_DIM}\n{row}\n{row}",  # one shape id twice
        ):
            with pytest.raises(NetworkError):
                load_descriptors(text.encode())
        with pytest.raises(NetworkError):
            load_descriptors(b"DDSD n=0 dim=1024\n\xff")
