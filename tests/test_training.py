import hashlib
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

from conftest import checkpoint_parts, edited_checkpoint

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

    @pytest.mark.parametrize("mode, step, cause", [
        ("full", "d_step", "batch"), ("full", "g_step", "batch"),
        ("cnn_rnn", "g_step", "logits"), ("full", "g_step", "logits"), ("full", "d_step", "logits"),
    ], ids=["d_step", "g_step", "cnn_rnn-g_step-logits", "full-g_step-logits", "full-d_step-logits"])
    def test_non_finite_batch_raises_and_moves_nothing(self, batch, mode, step, cause):
        """One NaN cell gives that shape's latent, the loss and the
        gradients NaN; a last bias at -3e38 with one entry at 3e38 gives
        float32 logits whose loss overflows while every gradient stays
        finite. Either step is a TrainingError, and every parameter, Adam
        moment and step count stays as it was."""
        x, y, _ = batch
        tr = Trainer(TrainConfig(mode=mode, seed=6), N_CLASSES)
        if tr.model.adversarial:
            tr.d_step(x)
        tr.g_step(x, y)  # moments and step counts away from their start
        opts = (tr.opt_gen, tr.opt_head)
        bad = x.copy()
        if cause == "batch":
            bad[1, 4, 15, 15] = np.nan
        else:
            bias = tr.model.head[-1][1].data
            bias[:] = -3e38
            bias[0] = 3e38

        def state():
            arrays = [t.data for t in tr.model.params.values()]
            arrays += [a for opt in opts for a in (*opt.state.m, *opt.state.v)]
            return [a.copy() for a in arrays], [opt.state.t for opt in opts]

        before = state()
        with np.errstate(over="ignore"), pytest.raises(training.TrainingError, match="non-finite loss"):
            getattr(tr, step)(bad, y)
        after = state()
        assert after[1] == before[1] == ([1, 2] if tr.model.adversarial else [1, 1])
        assert all(np.array_equal(a, b) for a, b in zip(after[0], before[0]))
        assert tr._latent is None

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
        assert shared.save() == fresh.save()  # every parameter, Adam moment and step count

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

    def test_train_epoch_holds_no_gradient_after(self):
        x, y, _ = small_batch(3)
        tr = Trainer(TrainConfig(mode="full", batch_size=2, seed=1), N_CLASSES)
        tr.train_epoch(x, y)
        assert all(t.grad is None for t in tr.model.named_tensors().values())


def restored_arrays(restored):
    """{name: array} of every array a restore returns, named as
    `checkpoint_parts` names them: a model's parameters, and a trainer's
    Adam moments besides."""
    if not isinstance(restored, Trainer):
        return {name: t.data for name, t in restored.params.items()}
    arrays = restored_arrays(restored.model)
    names = list(arrays)  # the generator's, then the head's, as the two optimizers hold them
    for key in ("m", "v"):
        held = getattr(restored.opt_gen.state, key) + getattr(restored.opt_head.state, key)
        arrays.update({f"/opt/{name}.{key}": a for name, a in zip(names, held)})
    return arrays


class RestoreChecks:
    """The checks of the one checkpoint reader, run by each class below
    through its entry point `restore`, which keeps `parts_held` of the
    file's three parts: parameters, first moments, second moments."""

    def assert_restores(self, data, restored):
        """Each array of `restored` is an owned, writable, C-contiguous
        float32 copy of its part of the `Trainer.save` bytes `data`."""
        _, parts = checkpoint_parts(data)
        arrays = restored_arrays(restored)
        assert len(arrays) == self.parts_held * len(parts) // 3
        for name, a in arrays.items():
            assert np.array_equal(a.ravel(), parts[name]), name
            assert a.dtype == np.float32 and a.flags.writeable and a.flags.c_contiguous and a.flags.owndata
        if isinstance(restored, Trainer):
            assert restored.save() == data

    # Each fault a format-3 record could hold, by the name format 3 gave it,
    # where the fault can still be written: a count out of range, a header
    # cut short, a wrong layout id, and values missing, misshapen or extra,
    # which leave too few or too many values. Each is refused before the
    # model is built.
    @pytest.mark.parametrize("name, value", [
        ("/meta/mode_id", 9),
        ("/meta/mode_id", 4),
        ("/meta/mode_id", 2**32 - 1),
        ("/meta/n_classes", 0),
        ("/meta/n_classes", 1),
        ("/meta/n_classes", 2**32 - 1),  # the layout of that many classes differs
        ("/meta/k", 0),
        ("/meta/layout_id", 0),
        ("/meta/k", None),
        ("/opt/gen.t", None),
        ("/opt/head.t", None),
        ("/opt/gen.enc0.w.m", None),
        ("gen.enc0.w", None),
        ("gen.lstm.w_x", "full"),  # with its Adam moments, from a model of that mode
        ("/opt/head.fc0.b.v", np.zeros(3)),
        ("gen.enc0.b", np.zeros(3)),
        ("/meta/layout_id", None),
        ("gen.extra", np.zeros(1)),  # one value too many
        ("gen.enc0.b", np.zeros(31)),  # one value too few
    ])
    def test_bad_record_rejected(self, name, value, monkeypatch):
        data = Trainer(TrainConfig(mode="cnn_only", seed=7), N_CLASSES).save()
        if isinstance(value, str):
            _, other = checkpoint_parts(Trainer(TrainConfig(mode=value, seed=7), N_CLASSES).save())
            for added in (name, f"/opt/{name}.m", f"/opt/{name}.v"):
                data = edited_checkpoint(data, added, other[added])
        else:
            data = edited_checkpoint(data, name, value)

        def refuse(*args, **kwargs):
            raise AssertionError("build_model ran before the checkpoint was checked")

        monkeypatch.setattr(training, "build_model", refuse)
        with pytest.raises(NetworkError, match="out of range|layout id|values, not"):
            self.restore(data)

    def test_restore_does_not_alias_its_input(self):
        x, y, _ = small_batch(4)
        tr = Trainer(TrainConfig(mode="cnn_only", batch_size=4, seed=2), N_CLASSES)
        tr.train_epoch(x, y)
        data = tr.save()
        buf = bytearray(data)
        restored = self.restore(buf)
        buf[:] = b"\xff" * len(buf)  # every float32 of the file a NaN
        self.assert_restores(data, restored)

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
        restored = self.restore(tr.save())
        assert len(built) == 1
        trained = tr.model.named_tensors()
        for name, t in getattr(restored, "model", restored).named_tensors().items():
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
        self.assert_restores(data, self.restore(data))

    def test_n_classes_checked_before_model_is_built(self, monkeypatch):
        data = edited_checkpoint(Trainer(TrainConfig(mode="cnn_only", seed=7), N_CLASSES).save(),
                                 "/meta/n_classes", 200_000)

        def refuse(*args, **kwargs):
            raise AssertionError("build_model ran before n_classes was checked")

        monkeypatch.setattr(training, "build_model", refuse)
        with pytest.raises(NetworkError, match="layout id .* for cnn_only with 200000 classes"):
            self.restore(data)

    def test_unexpected_record_refused_before_model_is_built(self, monkeypatch):
        data = edited_checkpoint(Trainer(TrainConfig(mode="cnn_only", seed=7), N_CLASSES).save(),
                                 "gen.extra", np.zeros(3, np.float32))

        def refuse(*args, **kwargs):
            raise AssertionError("build_model ran before the unexpected values were refused")

        monkeypatch.setattr(training, "build_model", refuse)
        n_values = 3 * sum(int(np.prod(s)) for s in training.param_shapes("cnn_only", N_CLASSES).values())
        with pytest.raises(NetworkError, match=f"checkpoint holds {n_values + 3} values, not {n_values}"):
            self.restore(data)


class TestCheckpoint(RestoreChecks):
    restore, parts_held = staticmethod(Trainer.restore), 3

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
        """In every mode. A byte round trip shows only what the file holds;
        a resumed epoch also shows what restore takes from the config it is given."""
        x, y, _ = small_batch(4)
        for mode in training.MODES:
            cfg = TrainConfig(mode=mode, batch_size=4, seed=2)
            tr = Trainer(cfg, N_CLASSES)
            tr.train_epoch(x, y)
            resumed = Trainer.restore(tr.save(), cfg)
            tr.train_epoch(x, y)
            resumed.train_epoch(x, y)
            assert resumed.save() == tr.save(), mode

    def test_config_must_match_checkpoint(self):
        data = Trainer(TrainConfig(mode="full", k=3, seed=7), N_CLASSES).save()
        for config, message in ((TrainConfig(mode="cnn_adv"), "checkpoint mode is 'full' but the config has 'cnn_adv'"),
                                (TrainConfig(mode="full", k=5), "checkpoint k is 3 but the config has 5")):
            with pytest.raises(NetworkError, match=message):
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

    # The epoch-0 checkpoint pins every initialiser and its RNG draw order:
    # float64 draws rounded to the float32 parameters, saved as f4 in
    # format 4 (MDRNET4), whose bytes differ from format 3's only in the
    # header: the same values, in the same order, without record names.
    # Init makes no BLAS call, so the digests hold for a given NumPy build.
    @pytest.mark.parametrize("mode, digest", [
        ("cnn_only", "5483054d5e6ed4a18f6fb15d1f4e2904025ed27b11e0ecbdfdcc6edd64414e02"),
        ("cnn_rnn", "a08d75421dfe014271d33c10fbb2929a7a26f874c63a0e41fa437d0bc835b198"),
        ("cnn_adv", "a22ca45d728b7fe47d0aada20fa94a00f849ab77f728eb00d828c227e30e9be4"),
        ("full", "5d2fbf05e4a16c33df44d30dc8726fea4f87d9e062da7fc4df3816cc14fdd9fe"),
    ])
    def test_initial_checkpoint_digest(self, mode, digest):
        data = Trainer(TrainConfig(mode=mode, seed=7), N_CLASSES).save()
        assert hashlib.sha256(data).hexdigest() == digest


class TestRestoreModel(RestoreChecks):
    restore, parts_held = staticmethod(training.restore_model), 1

    def test_copies_only_the_parameters(self):
        """The parameters are a third of a checkpoint; the moments, two
        thirds, are neither copied nor held."""
        data = Trainer(TrainConfig(mode="full", seed=7), N_CLASSES).save()
        tracemalloc.start()
        try:
            model = training.restore_model(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.mode == "full" and model.n_classes == N_CLASSES
        assert peak < 0.4 * len(data), f"traced {peak / 1e6:.1f} MB of a {len(data) / 1e6:.1f} MB checkpoint"


class TestMetricsCsv:
    def test_format(self):
        rows = [training.EpochMetrics(0, 1.5, 2.5, 0.25)]
        text = metrics_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "epoch,g_loss,d_loss,train_acc"
        assert lines[1].startswith("0,1.5,2.5,0.25")
