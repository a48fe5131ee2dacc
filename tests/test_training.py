import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from mdrnet import engine, network, training, voxel
from mdrnet.network import NetworkError
from mdrnet.training import (
    ConfigError,
    TrainConfig,
    Trainer,
    build_model,
    format_config,
    metrics_csv,
    parse_config,
    prepare_inputs,
)

N_CLASSES = 4


def small_batch(n=4, k=3, seed=0):
    shapes = []
    for i in range(n):
        cname = voxel.SYNTHETIC_CLASSES[i % N_CLASSES]
        grid = voxel.generate_synthetic(cname, seed + i)
        shapes.append(voxel.LabeledShape(grid, i % N_CLASSES + 1, cname, f"s{i}"))
    return prepare_inputs(shapes, k)


def zero_head(model):
    for w, b in model.head:
        w.data = np.zeros_like(w.data)
        b.data = np.zeros_like(b.data)


def snapshot(tensors):
    return [t.data.copy() for _, t in tensors]


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.mode == "full" and cfg.batch_size == 32
        assert cfg.lr_gen == 0.01 and cfg.lr_dis == 0.001
        assert cfg.decay == 0.995 and cfg.k == 3

    def test_parse_round_trip(self):
        cfg = TrainConfig(mode="cnn_adv", epochs=5, seed=11, decay=0.9)
        assert parse_config(format_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("mode = full\nmomentum = 0.9\n")
        for removed in ("g_updates_dis = true", "descriptor_readout = cell"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(removed + "\n")

    def test_bad_values_rejected(self):
        for text in (
            "lr_gen = -1",
            "lr_dis = 0",
            "mode = gan",
            "batch_size = 0",
            "epochs = nope",
            "decay = 1.5",
            "lr_gen = nan",
            "lr_dis = inf",
            "mode = cnn_only\nepochs = 3\ndecay = 1e-200",  # lr_dis * decay**2 underflows to 0.0
        ):
            with pytest.raises(ConfigError):
                parse_config(text)

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match="line 3: key 'mode'"):
            parse_config("mode = cnn_only\nepochs = 2\nmode = full\n")

    def test_comments_and_blanks_ok(self):
        cfg = parse_config("# comment\n\nmode = cnn_only\n")
        assert cfg.mode == "cnn_only"


class TestBuildModel:
    def test_full_discriminator_width(self):
        m = build_model("full", N_CLASSES, seed=1)
        assert m.head[-1][0].shape[0] == N_CLASSES + 1
        assert m.uses_lstm

    def test_cnn_only_has_no_recurrent_params(self):
        m = build_model("cnn_only", N_CLASSES, seed=1)
        assert not m.uses_lstm
        assert all("lstm" not in name for name, _ in m.gen_tensors())
        assert m.head[-1][0].shape[0] == N_CLASSES

    def test_cnn_only_zero_params_uniform_softmax(self):
        m = build_model("cnn_only", N_CLASSES, seed=1)
        zero_head(m)
        from mdrnet import engine

        with engine.no_grad():
            logits = m.head_logits(m.latent(np.zeros((2, 9, 30, 30))))
        assert np.allclose(engine.softmax(logits.data), 1.0 / N_CLASSES)

    def test_cnn_adv_pools_without_lstm(self):
        m = build_model("cnn_adv", N_CLASSES, seed=1)
        assert not m.uses_lstm
        assert m.head[-1][0].shape[0] == N_CLASSES + 1

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            build_model("vae", N_CLASSES)

    @pytest.mark.parametrize("mode", training.MODES)
    def test_param_shapes_list_the_drawn_model(self, mode):
        drawn = build_model(mode, N_CLASSES, seed=1).named_tensors()
        shapes = training.param_shapes(mode, N_CLASSES)
        assert list(shapes.items()) == [(name, t.shape) for name, t in drawn.items()]

    @pytest.mark.parametrize("mode", training.MODES)
    def test_given_params_are_adopted_in_named_order(self, mode):
        drawn = build_model(mode, N_CLASSES, seed=1).named_tensors()
        params = {name: t.data.copy() for name, t in drawn.items()}
        adopted = build_model(mode, N_CLASSES, params=params)
        assert list(adopted.named_tensors()) == list(drawn)
        for name, t in adopted.named_tensors().items():
            assert t.data is params[name] and t.requires_grad

    @pytest.mark.parametrize("mode", training.MODES)
    @pytest.mark.parametrize("n_classes", [0, 1])
    def test_fewer_than_two_classes_rejected(self, mode, n_classes):
        with pytest.raises(ConfigError, match="at least 2 classes"):
            build_model(mode, n_classes)


class TestGridShapes:
    @staticmethod
    def cube(n):
        arr = np.zeros((n, n, n), dtype=np.uint8)
        arr[2 : n - 2, 3 : n - 3, 4 : n - 4] = 1
        return voxel.LabeledShape(voxel.VoxelGrid.from_array(arr), 1, "c", f"c{n}")

    def test_mixed_cube_sizes_rejected(self):
        with pytest.raises(voxel.DatasetError):
            prepare_inputs([self.cube(30), self.cube(24)], 3)

    def test_no_shapes_rejected(self):
        with pytest.raises(voxel.DatasetError):
            prepare_inputs([], 3)

    @pytest.mark.parametrize("mode", ["cnn_only", "full"])
    def test_encoder_output_must_be_2x2(self, mode):
        model = build_model(mode, N_CLASSES, seed=1)
        with engine.no_grad():
            assert model.latent(prepare_inputs([self.cube(24)], 3)[0]).shape == (1, 1024)
            for n in (36, 60):
                with pytest.raises(NetworkError):
                    model.latent(prepare_inputs([self.cube(n)], 3)[0])


@pytest.fixture(scope="module")
def batch():
    return small_batch()


class TestSteps:

    def test_d_step_initial_loss_is_ln_n_plus_one(self, batch):
        x, y, _ = batch
        tr = Trainer(TrainConfig(mode="full", seed=3), N_CLASSES)
        zero_head(tr.model)
        loss = tr.d_step(x)
        assert loss == pytest.approx(np.log(N_CLASSES + 1))

    def test_d_step_decreases_adversarial_loss(self, batch):
        x, y, _ = batch
        tr = Trainer(TrainConfig(mode="full", seed=3), N_CLASSES)
        first = tr.d_step(x)
        second = tr.d_step(x)
        assert second < first

    def test_d_step_freezes_generator(self, batch):
        x, y, _ = batch
        tr = Trainer(TrainConfig(mode="full", seed=4), N_CLASSES)
        before = snapshot(tr.model.gen_tensors())
        tr.d_step(x)
        after = snapshot(tr.model.gen_tensors())
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_g_step_initial_loss_and_decrease(self, batch):
        x, y, _ = batch
        tr = Trainer(TrainConfig(mode="full", seed=5), N_CLASSES)
        zero_head(tr.model)
        first, _ = tr.g_step(x, y)
        assert first == pytest.approx(np.log(N_CLASSES + 1))
        second, _ = tr.g_step(x, y)
        assert second < first

    def test_g_step_with_zero_lr_keeps_generator(self, batch):
        x, y, _ = batch
        tr = Trainer(TrainConfig(mode="full", seed=6), N_CLASSES)
        before = snapshot(tr.model.gen_tensors())
        tr.g_step(x, y, lr_gen=0.0)
        after = snapshot(tr.model.gen_tensors())
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_empty_batch_rejected(self, batch):
        x, y, _ = batch
        tr = Trainer(TrainConfig(mode="full", seed=6), N_CLASSES)
        with pytest.raises(training.TrainingError):
            tr.g_step(x[:0], y[:0])

    def test_g_step_leaves_each_parameter_its_own_writable_grad(self, batch):
        x, y, _ = batch
        tr = Trainer(TrainConfig(mode="full", seed=6), N_CLASSES)
        tr.d_step(x)
        tr.g_step(x, y)
        grads = [t.grad for t in tr.model.named_tensors().values()]
        for i, g in enumerate(grads):
            assert isinstance(g, np.ndarray) and g.dtype == np.float32 and g.flags.writeable
            assert not any(np.may_share_memory(g, other) for other in grads[i + 1 :])

    def test_full_step_keeps_parameters_grads_and_moments_float32(self, batch):
        x, y, _ = batch
        tr = Trainer(TrainConfig(mode="full", seed=6), N_CLASSES)
        tr.d_step(x)
        tr.g_step(x, y)
        for opt in (tr.opt_gen, tr.opt_head):
            for p, m, v in zip(opt.params, opt.state.m, opt.state.v):
                for a in (p.data, p.grad, m, v):
                    assert a.dtype == np.float32 and a.flags.c_contiguous

    def test_recorded_latent_holds_no_patch_rows(self):
        """One B=32, k=3 `full` batch: 288 slices per encoder conv, whose
        patch rows alone would be 140 MB."""
        model = build_model("full", N_CLASSES, seed=2)
        x = np.random.default_rng(2).uniform(size=(32, 9, 30, 30))
        tracemalloc.start()
        try:
            z = model.latent(x)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert z._backward is not None
        assert held < 250e6, f"traced {held / 1e6:.0f} MB"


class TestTrainEpoch:
    def test_epoch_counter_and_metrics(self):
        x, y, _ = small_batch(6)
        tr = Trainer(TrainConfig(mode="cnn_only", batch_size=3, seed=1), N_CLASSES)
        m = tr.train_epoch(x, y)
        assert tr.epoch == 1
        assert len(tr.metrics) == 1
        assert m.epoch == 0 and np.isfinite(m.g_loss)
        assert m.d_loss == 0.0  # supervised mode logs no adversarial loss

    def test_deterministic_over_reruns(self):
        x, y, _ = small_batch(6)
        states = []
        for _ in range(2):
            tr = Trainer(TrainConfig(mode="full", batch_size=3, seed=9, epochs=1), N_CLASSES)
            tr.train_epoch(x, y)
            states.append(tr.save())
        assert states[0] == states[1]

    def test_decayed_rate_exact(self):
        tr = Trainer(TrainConfig(mode="full", seed=1), N_CLASSES)
        for e in (0, 3, 60):
            assert tr.opt_gen.lr_at_epoch(e) == 0.01 * 0.995**e
            assert tr.opt_head.lr_at_epoch(e) == 0.001 * 0.995**e


class FreshForwardTrainer(Trainer):
    """Reference: g_step gets a copy of the batch, so it runs its own
    generator forward instead of the d_step's."""

    def g_step(self, x_batch, y_batch, lr_gen=None):
        return super().g_step(x_batch.copy(), y_batch, lr_gen)


class TestSharedForward:
    @pytest.mark.parametrize("mode", ["cnn_adv", "full"])
    def test_epochs_match_fresh_forward_reference(self, mode):
        x, y, _ = small_batch(7)
        cfg = TrainConfig(mode=mode, batch_size=3, seed=8)
        shared, fresh = Trainer(cfg, N_CLASSES), FreshForwardTrainer(cfg, N_CLASSES)
        for _ in range(2):
            assert shared.train_epoch(x, y) == fresh.train_epoch(x, y)
        got, want = shared.to_records(), fresh.to_records()
        assert list(got) == list(want)
        for name in want:  # every parameter, Adam moment and step count
            assert np.array_equal(got[name], want[name]), name

    def test_one_latent_per_adversarial_batch(self, monkeypatch):
        calls = []
        latent = training.Model.latent

        def counted(model, batch):
            calls.append(len(batch))
            return latent(model, batch)

        monkeypatch.setattr(training.Model, "latent", counted)
        x, y, _ = small_batch(5)
        tr = Trainer(TrainConfig(mode="cnn_adv", batch_size=3, seed=1), N_CLASSES)
        tr.train_epoch(x, y)
        assert calls == [3, 2]
        assert tr._latent is None

        xb, yb = x[:3], y[:3]
        for g_input, expected in ((xb, [3]), (xb.copy(), [3, 3])):  # a new array is a new forward
            calls.clear()
            tr.d_step(xb)
            tr.g_step(g_input, yb)
            assert calls == expected
            assert tr._latent is None

    @pytest.mark.parametrize("then", [
        lambda tr, x, y: tr.train_epoch(x, y),
        lambda tr, x, y: tr.extract(x),
        lambda tr, x, y: tr.save(),
    ], ids=["train_epoch", "extract", "save"])
    def test_pending_latent_dropped(self, then):
        x, y, _ = small_batch(3)
        tr = Trainer(TrainConfig(mode="cnn_adv", batch_size=3, seed=1), N_CLASSES)
        tr.d_step(x)
        assert tr._latent is not None
        then(tr, x, y)
        assert tr._latent is None


class TestCheckpoint:
    def test_save_restore_round_trip(self):
        x, y, _ = small_batch(4)
        tr = Trainer(TrainConfig(mode="full", batch_size=4, seed=2), N_CLASSES)
        tr.train_epoch(x, y)
        data = tr.save()
        tr2 = Trainer.restore(data)
        assert tr2.epoch == 1
        assert tr2.model.mode == "full" and tr2.model.n_classes == N_CLASSES
        assert tr2.save() == data

    def test_restore_resumes_identically(self):
        x, y, _ = small_batch(4)
        cfg = TrainConfig(mode="cnn_rnn", batch_size=4, seed=2)
        tr = Trainer(cfg, N_CLASSES)
        tr.train_epoch(x, y)
        resumed = Trainer.restore(tr.save(), cfg)
        tr.train_epoch(x, y)
        resumed.train_epoch(x, y)
        assert resumed.save() == tr.save()

    def test_config_must_match_checkpoint(self):
        data = Trainer(TrainConfig(mode="full", k=3, seed=7), N_CLASSES).save()
        for config, record in ((TrainConfig(mode="cnn_adv"), "/meta/mode_id"),
                               (TrainConfig(mode="full", k=5), "/meta/k")):
            with pytest.raises(NetworkError, match=record):
                Trainer.restore(data, config)

    def test_extract_reproducible(self):
        x, y, _ = small_batch(4)
        tr = Trainer(TrainConfig(mode="full", seed=2), N_CLASSES)
        v1 = tr.extract(x)
        v2 = tr.extract(x)
        assert np.array_equal(v1, v2)
        assert v1.shape == (4, 1024)

    def test_extract_returns_float64_that_round_trips_a_descriptor_file(self):
        x, _, ids = small_batch(4)
        vecs = Trainer(TrainConfig(mode="full", seed=2), N_CLASSES).extract(x)
        assert vecs.dtype == np.float64
        assert np.array_equal(vecs.astype(np.float32), vecs)  # widened from the float32 forward
        back_ids, back = network.load_descriptors(network.save_descriptors(ids, vecs))
        assert back_ids == ids and back.dtype == np.float64 and back.tobytes() == vecs.tobytes()

    @pytest.mark.parametrize("mode", ["cnn_only", "full"])
    def test_float64_records_restore_to_their_float32_rounding(self, mode):
        """Records that float32 cannot hold, as a float64 model saves them."""
        records = network.load_records(Trainer(TrainConfig(mode=mode, seed=7), N_CLASSES).save())
        rng = np.random.default_rng(3)
        for name, value in records.items():
            if value.ndim:
                records[name] = rng.uniform(0.0, 1.0, value.shape)
        restored = Trainer.restore(network.save_records(records))
        for opt in (restored.opt_gen, restored.opt_head):
            for p, m, v in zip(opt.params, opt.state.m, opt.state.v):
                name = next(n for n, t in restored.model.named_tensors().items() if t is p)
                for a, stored in ((p.data, name), (m, f"/opt/{name}.m"), (v, f"/opt/{name}.v")):
                    assert a.dtype == np.float32
                    assert not np.array_equal(a, records[stored])
                    assert np.array_equal(a, records[stored].astype(np.float32))

    # The epoch-0 checkpoint pins every initialiser and its RNG draw order:
    # float64 draws rounded to the float32 parameters, saved widened to f8.
    # Init makes no BLAS call, so the digests hold for a given NumPy build.
    @pytest.mark.parametrize("mode, digest", [
        ("cnn_only", "b39da8bc9311fab668a0d67641e5fe94c05a13e1a03ca24b00f4d72e710e28a5"),
        ("cnn_rnn", "b452fd265acad1e6068022b992e4f81314636241107ab63d1bc579a9db7004d4"),
        ("cnn_adv", "c2a6b6bd9b6ab1eb30cff31225cd51fc8e8afa2e94e30342b1fc44a1ce031550"),
        ("full", "1e7db73e3e9bbd012a9e8663133645c61686644856de21cca8ff29fedfd36f2e"),
    ])
    def test_initial_checkpoint_digest(self, mode, digest):
        data = Trainer(TrainConfig(mode=mode, seed=7), N_CLASSES).save()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("name, value", [
        ("/meta/mode_id", 9),
        ("/meta/mode_id", -1),
        ("/meta/mode_id", 0.5),
        ("/meta/readout_id", 5),
        ("/meta/n_classes", 4.5),
        ("/meta/n_classes", 0),
        ("/meta/k", 0),
        ("/meta/k", [3.0, 3.0]),
        ("/meta/epoch", -3),
        ("/meta/epoch", np.nan),
        ("/meta/k", None),
        ("/opt/gen.t", None),
        ("/opt/head.t", -1),
        ("/opt/gen.enc0.w.m", None),
        ("/opt/head.fc0.b.v", np.zeros(3)),
        ("gen.enc0.b", np.zeros(3)),
        ("/meta/readout_id", 1),
        ("gen.extra", np.zeros(3)),
        ("gen.lstm.w_x", "full"),  # with its Adam moments, from a model of that mode
    ])
    def test_bad_record_rejected(self, name, value):
        records = network.load_records(Trainer(TrainConfig(mode="cnn_only", seed=7), N_CLASSES).save())
        assert (name in records) == (name not in ("gen.extra", "gen.lstm.w_x"))
        if value is None:
            del records[name]
        elif isinstance(value, str):
            other = Trainer(TrainConfig(mode=value, seed=7), N_CLASSES).to_records()
            for added in (name, f"/opt/{name}.m", f"/opt/{name}.v"):
                records[added] = other[added]
        else:
            records[name] = np.asarray(value, dtype=np.float64)
        with pytest.raises(NetworkError, match=re.escape(name)):
            Trainer.restore(network.save_records(records))

    def test_restored_trainer_does_not_alias_its_input(self):
        x, y, _ = small_batch(4)
        tr = Trainer(TrainConfig(mode="cnn_only", batch_size=4, seed=2), N_CLASSES)
        tr.train_epoch(x, y)
        data = tr.save()
        buf = bytearray(data)
        restored = Trainer.restore(buf)
        buf[:] = bytes(len(buf))
        assert restored.save() == data

    def test_restore_fills_the_built_model_in_place(self, monkeypatch):
        x, y, _ = small_batch(4)
        tr = Trainer(TrainConfig(mode="cnn_rnn", batch_size=4, seed=2), N_CLASSES)
        tr.train_epoch(x, y)
        built, build = [], training.build_model

        def recording(*args, **kwargs):
            model = build(*args, **kwargs)
            built.append({name: t.data for name, t in model.named_tensors().items()})
            return model

        monkeypatch.setattr(training, "build_model", recording)
        restored = Trainer.restore(tr.save())
        assert len(built) == 1
        trained = tr.model.named_tensors()
        for name, t in restored.model.named_tensors().items():
            assert t.data is built[0][name]
            assert np.array_equal(t.data, trained[name].data)


    @pytest.mark.parametrize("mode", training.MODES)
    def test_restore_draws_nothing_and_zero_fills_no_moment(self, mode, monkeypatch):
        x, y, _ = small_batch(4)
        tr = Trainer(TrainConfig(mode=mode, batch_size=4, seed=2), N_CLASSES)
        tr.train_epoch(x, y)
        data = tr.save()

        def refuse(*args, **kwargs):
            raise AssertionError("restore drew or zero-filled an array it overwrites")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(engine.AdamState, "for_params", refuse)
        restored = Trainer.restore(data)
        assert restored.save() == data
        for opt in (restored.opt_gen, restored.opt_head):
            for p, m, v in zip(opt.params, opt.state.m, opt.state.v):
                for a in (p.data, m, v):
                    assert a.flags.writeable and a.flags.c_contiguous and a.flags.owndata

    def test_n_classes_checked_before_model_is_built(self, monkeypatch):
        records = network.load_records(Trainer(TrainConfig(mode="cnn_only", seed=7), N_CLASSES).save())
        records["/meta/n_classes"] = np.float64(200_000)

        def refuse(*args, **kwargs):
            raise AssertionError("build_model ran before n_classes was checked")

        monkeypatch.setattr(training, "build_model", refuse)
        with pytest.raises(NetworkError, match="head.fc1.w"):
            Trainer.restore(network.save_records(records))


class TestMetricsCsv:
    def test_format(self):
        rows = [training.EpochMetrics(0, 1.5, 2.5, 0.25)]
        text = metrics_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "epoch,g_loss,d_loss,train_acc"
        assert lines[1].startswith("0,1.5,2.5,0.25")
