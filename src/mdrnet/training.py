"""Competing-objective training loop and its four ablation modes.

Modes:
  cnn_only  shared slice encoder, mean-pooled slice features, 2-layer
            N-way softmax head, plain cross-entropy.
  cnn_rnn   encoder + ConvLSTM descriptor, single FC N-way head, plain
            cross-entropy.
  cnn_adv   mean-pooled slice features into the (N+1)-way discriminator,
            trained adversarially.
  full      encoder + ConvLSTM + (N+1)-way discriminator, adversarial.

In the adversarial modes each batch takes one discriminator step (push
every descriptor toward the extra "ambiguous" class N+1, generator
frozen) followed by one generator step (push toward the true label;
gradients also update the discriminator so it learns the real classes).
The discriminator step moves only the head, so its generator forward,
recorded with its graph, also serves the generator step of the batch.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields

import numpy as np

from . import engine, network
from .engine import Adam, AdamState, Tensor
from .mdr import compute_mdr, normalize_mdr
from .network import (
    DESCRIPTOR_DIM,
    ENCODER_CHANNELS,
    ENCODER_KERNEL,
    LSTM_CHANNELS,
    LSTM_KERNEL,
    LSTM_SPATIAL,
    PARAM_DTYPE,
    ConvLstmParams,
    NetworkError,
    SliceEncoderParams,
)
from .voxel import DatasetError

MODES = ("cnn_only", "cnn_rnn", "cnn_adv", "full")
ADVERSARIAL_MODES = ("cnn_adv", "full")
LSTM_MODES = ("cnn_rnn", "full")


class ConfigError(ValueError):
    """Bad key, value, or type in a training configuration."""


class TrainingError(RuntimeError):
    """Numerical failure (non-finite loss or gradient) during training."""


@dataclass
class TrainConfig:
    mode: str = "full"
    k: int = 3
    batch_size: int = 32
    lr_gen: float = 0.01
    lr_dis: float = 0.001
    decay: float = 0.995
    epochs: int = 60
    seed: int = 7

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not all(math.isfinite(lr) and lr > 0 for lr in (self.lr_gen, self.lr_dis)):
            raise ConfigError("learning rates must be finite and positive")
        if not 0 < self.decay <= 1:
            raise ConfigError("decay must be in (0, 1]")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.epochs and min(self.lr_gen, self.lr_dis) * self.decay ** (self.epochs - 1) == 0.0:
            raise ConfigError(f"decay {self.decay} takes a learning rate to 0.0 by epoch {self.epochs - 1}")
        if self.k < 1:
            raise ConfigError("k must be positive")


_CONFIG_TYPES = {f.name: f.type for f in fields(TrainConfig)}


def parse_config(text) -> TrainConfig:
    """Parse `key = value` lines (str, or UTF-8 bytes); unknown keys are an error."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ConfigError(f"config is not UTF-8: {e}") from e
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: key {key!r} is set on an earlier line")
        kind = _CONFIG_TYPES[key]
        try:
            if kind == "int":
                values[key] = int(val)
            elif kind == "float":
                values[key] = float(val)
            else:
                values[key] = val
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from e
    return TrainConfig(**values)


def format_config(config: TrainConfig) -> str:
    return "".join(f"{f.name} = {getattr(config, f.name)}\n" for f in fields(TrainConfig))


# ---------------------------------------------------------------------------
# model assembly

_MODE_IDS = {m: i for i, m in enumerate(MODES)}


@dataclass
class Model:
    """The one assembled model: `build_model` initialises it, `latent` and
    `head_logits` run it."""

    mode: str
    n_classes: int
    k: int
    encoder: SliceEncoderParams
    lstm: object  # ConvLstmParams or None
    head: list  # list of (weight, bias) FC layers

    @property
    def uses_lstm(self):
        return self.lstm is not None

    @property
    def adversarial(self):
        return self.mode in ADVERSARIAL_MODES

    def gen_tensors(self):
        out = self.encoder.tensors()
        if self.lstm is not None:
            out += self.lstm.tensors()
        return out

    def head_tensors(self):
        return [
            (f"{_head_prefix(self.mode)}.fc{i}.{tag}", t)
            for i, (w, b) in enumerate(self.head)
            for tag, t in (("w", w), ("b", b))
        ]

    def named_tensors(self):
        return dict(self.gen_tensors() + self.head_tensors())

    def latent(self, batch):
        """(B, 3k, 30, 30) normalized slice stacks -> (B, 1024) Tensor,
        computed in the parameters' dtype."""
        batch = np.asarray(batch, dtype=PARAM_DTYPE)
        if batch.ndim != 4 or batch.shape[1] % 3:
            raise NetworkError(f"expected (B, 3k, H, W) slice stacks, got {batch.shape}")
        b, t, hh, ww = batch.shape
        feats = network.encode_slice(self.encoder, batch.reshape(b * t, 1, hh, ww))
        _, ch, fh, fw = feats.shape
        if (ch, fh, fw) != (LSTM_CHANNELS, LSTM_SPATIAL, LSTM_SPATIAL):
            raise NetworkError(
                f"{hh}x{ww} slices encode to {ch}x{fh}x{fw}, not "
                f"{LSTM_CHANNELS}x{LSTM_SPATIAL}x{LSTM_SPATIAL}"
            )
        feats = engine.reshape(feats, (b, t, ch, fh, fw))
        if self.uses_lstm:
            return network.run_convlstm(self.lstm, feats)
        flat = engine.reshape(feats, (b, t, ch * fh * fw))
        return engine.mean_axis(flat, axis=1)

    def head_logits(self, latent):
        """(B, 1024) latents, an array or Tensor -> (B, N+1) logits in
        adversarial modes (the extra class marks a descriptor as too
        ambiguous to label), (B, N) otherwise."""
        x = latent
        fan_in = self.head[0][0].shape[1]
        if x.ndim != 2 or x.shape[1] != fan_in:
            raise NetworkError(f"expected (B, {fan_in}) latents, got {x.shape}")
        last = len(self.head) - 1
        for i, (w, b) in enumerate(self.head):
            x = engine.fully_connected(x, w, b)
            if i < last:
                x = engine.leaky_rectifier(x, network.LEAKY_SLOPE)
        return x


def _head_prefix(mode):
    return "dis" if mode in ADVERSARIAL_MODES else "head"


def _head_sizes(mode, n_classes):
    """Layer widths of the FC head, from the descriptor to the logits."""
    if mode in ADVERSARIAL_MODES:  # the (N+1)-way discriminator
        return (DESCRIPTOR_DIM, 128, 64, n_classes + 1)
    if mode == "cnn_only":
        return (DESCRIPTOR_DIM, 128, n_classes)
    return (DESCRIPTOR_DIM, n_classes)  # cnn_rnn: single FC softmax over the descriptor


def param_shapes(mode, n_classes):
    """{name: shape} of every parameter of a `build_model` model, in
    `Model.named_tensors` order; computed, nothing allocated."""
    shapes, fan_in = {}, 1  # one density channel per slice
    for i, c in enumerate(ENCODER_CHANNELS):
        shapes[f"gen.enc{i}.w"] = (c, fan_in, ENCODER_KERNEL, ENCODER_KERNEL)
        shapes[f"gen.enc{i}.b"] = (c,)
        fan_in = c
    if mode in LSTM_MODES:
        c, kk, side = LSTM_CHANNELS, LSTM_KERNEL, LSTM_SPATIAL
        shapes.update({"gen.lstm.w_x": (4, c, c, kk, kk), "gen.lstm.w_h": (4, c, c, kk, kk),
                       "gen.lstm.w_c": (3, c, side, side), "gen.lstm.b": (4, c)})
    sizes = _head_sizes(mode, n_classes)
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        shapes[f"{_head_prefix(mode)}.fc{i}.w"] = (fan_out, fan_in)
        shapes[f"{_head_prefix(mode)}.fc{i}.b"] = (fan_out,)
    return shapes


def build_model(mode, n_classes, k=3, seed=0, params=None) -> Model:
    """The model of a mode, its parameters drawn from `seed`; or, given
    `params` ({name: array} of every name `param_shapes` lists, each of its
    shape), those arrays adopted as the parameters, uncopied and undrawn."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if n_classes < 2:
        raise ConfigError(f"classification and retrieval need at least 2 classes, got {n_classes}")
    if params is None:
        rng = np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, 0x3DA])
        encoder = network.init_encoder(rng)
        lstm = network.init_convlstm(rng) if mode in LSTM_MODES else None
        head = network.init_mlp(rng, _head_sizes(mode, n_classes))
        return Model(mode, n_classes, k, encoder, lstm, head)
    t = {name: Tensor(params[name], requires_grad=True) for name in param_shapes(mode, n_classes)}

    def layers(prefix, n):
        return [(t[f"{prefix}{i}.w"], t[f"{prefix}{i}.b"]) for i in range(n)]

    encoder = SliceEncoderParams(layers("gen.enc", len(ENCODER_CHANNELS)))
    lstm = None
    if mode in LSTM_MODES:
        lstm = ConvLstmParams(*(t[f"gen.lstm.{n}"] for n in ("w_x", "w_h", "w_c", "b")))
    head = layers(f"{_head_prefix(mode)}.fc", len(_head_sizes(mode, n_classes)) - 1)
    return Model(mode, n_classes, k, encoder, lstm, head)


# ---------------------------------------------------------------------------
# dataset preparation


def prepare_inputs(shapes, k):
    """Normalized slice stacks for a list of LabeledShapes: (n, 3k, D, D)."""
    if not shapes:
        raise DatasetError("no shapes to prepare")
    stacks = [normalize_mdr(compute_mdr(s.grid, k)) for s in shapes]
    if any(st.shape != stacks[0].shape for st in stacks):
        raise DatasetError(f"shapes of different grid sizes: {sorted({st.shape for st in stacks})}")
    labels = np.array([s.label - 1 for s in shapes], dtype=np.int64)  # 0-based
    ids = [s.shape_id for s in shapes]
    return np.stack(stacks), labels, ids


# ---------------------------------------------------------------------------
# trainer


@dataclass
class EpochMetrics:
    epoch: int
    g_loss: float
    d_loss: float
    train_acc: float


class Trainer:
    """Owns model parameters and optimizer state for one training run."""

    def __init__(self, config: TrainConfig, n_classes):
        self._start(config, build_model(config.mode, n_classes, config.k, config.seed))

    def _start(self, config, model, gen_state=None, head_state=None):
        """Train `model` from epoch 0; Adam's moments start at zero unless given."""
        self.config = config
        self.model = model
        self.opt_gen = Adam([t for _, t in model.gen_tensors()], config.lr_gen, config.decay, gen_state)
        self.opt_head = Adam([t for _, t in model.head_tensors()], config.lr_dis, config.decay, head_state)
        self.epoch = 0
        self.metrics = []
        self._latent = None  # (x_batch, latent) of the last d_step, for its g_step

    # -- single steps ------------------------------------------------------

    def _check_finite(self, loss):
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at epoch {self.epoch}")
        return loss

    def d_step(self, x_batch, y_batch=None):
        """Push the frozen generator's descriptors toward the extra class.

        The generator forward keeps its graph, and `g_step` on the same
        batch array reuses it: this step moves only the head, so a second
        forward would give the same bits."""
        if len(x_batch) == 0:
            raise TrainingError("empty batch")
        self._latent = None
        z = self.model.latent(x_batch)
        logits = self.model.head_logits(z.data)  # the bare array: the loss reaches only the head
        targets = np.full(len(x_batch), self.model.n_classes, dtype=np.int64)
        loss = engine.softmax_cross_entropy(logits, targets)
        self.opt_head.zero_grad()
        loss.backward()
        try:
            self.opt_head.step(self.epoch)
        except engine.NonFiniteGradient as e:
            raise TrainingError(str(e)) from e
        self._latent = (x_batch, z)
        return self._check_finite(loss.item())

    def g_step(self, x_batch, y_batch, lr_gen=None):
        """One step toward the true labels, through the whole generator.

        Reuses the latent of the preceding `d_step` when given the very
        same batch array; any other array gets its own forward."""
        if len(x_batch) == 0:
            raise TrainingError("empty batch")
        cached, self._latent = self._latent, None
        if cached is not None and cached[0] is x_batch:
            z = cached[1]
        else:
            z = self.model.latent(x_batch)
        logits = self.model.head_logits(z)
        loss = engine.softmax_cross_entropy(logits, y_batch)
        preds = logits.data[:, : self.model.n_classes].argmax(axis=1)
        correct = int((preds == y_batch).sum())
        self.opt_gen.zero_grad()
        self.opt_head.zero_grad()
        loss.backward()
        eff_gen = self.opt_gen.lr_at_epoch(self.epoch) if lr_gen is None else lr_gen
        try:
            if eff_gen > 0:
                self.opt_gen.step(lr=eff_gen)
            self.opt_head.step(self.epoch)
        except engine.NonFiniteGradient as e:
            raise TrainingError(str(e)) from e
        return self._check_finite(loss.item()), correct

    # -- epochs ------------------------------------------------------------

    def train_epoch(self, train_x, train_y):
        """Shuffled pass over the train split; appends one metrics row."""
        if len(train_x) == 0:
            raise TrainingError("empty training set")
        rng = np.random.default_rng(
            [self.config.seed & 0xFFFFFFFFFFFFFFFF, 0x5EED, self.epoch]
        )
        order = rng.permutation(len(train_x))
        bs = self.config.batch_size
        g_sum = d_sum = 0.0
        correct = 0
        for start in range(0, len(order), bs):
            idx = order[start : start + bs]
            xb, yb = train_x[idx], train_y[idx]
            if self.model.adversarial:
                d_sum += self.d_step(xb) * len(idx)
            g_loss, c = self.g_step(xb, yb)
            g_sum += g_loss * len(idx)
            correct += c
        n = len(order)
        self.metrics.append(
            EpochMetrics(self.epoch, g_sum / n, d_sum / n if self.model.adversarial else 0.0, correct / n)
        )
        self.epoch += 1
        return self.metrics[-1]

    # -- inference ---------------------------------------------------------

    def extract(self, x):
        """Forward-only latents for (n, 3k, D, D) inputs, in batches of 64:
        (n, 1024) float64, each value widened exactly from the float32
        forward, so descriptor files and retrieval stay float64."""
        self._latent = None
        out = np.empty((len(x), DESCRIPTOR_DIM))
        with engine.no_grad():
            for start in range(0, len(x), 64):
                out[start : start + 64] = self.model.latent(x[start : start + 64]).data
        return out

    # -- checkpointing -----------------------------------------------------

    def to_records(self):
        records = {
            "/meta/mode_id": np.float64(_MODE_IDS[self.model.mode]),
            "/meta/n_classes": np.float64(self.model.n_classes),
            "/meta/k": np.float64(self.model.k),
            "/meta/readout_id": np.float64(0),  # the cell state; kept for the record layout
            "/meta/epoch": np.float64(self.epoch),
        }
        for name, t in self.model.named_tensors().items():
            records[name] = t.data
        for group, opt, tensors in (("gen", self.opt_gen, self.model.gen_tensors()),
                                    ("head", self.opt_head, self.model.head_tensors())):
            records[f"/opt/{group}.t"] = np.float64(opt.state.t)
            for (pname, _), m, v in zip(tensors, opt.state.m, opt.state.v):
                records[f"/opt/{pname}.m"] = m
                records[f"/opt/{pname}.v"] = v
        return records

    def save(self):
        self._latent = None
        return network.save_records(self.to_records())

    @classmethod
    def restore(cls, data, config: TrainConfig | None = None):
        """Rebuild a trainer from `save` bytes.

        A missing or misshapen record, an out-of-range count, or a config
        differing in mode or k is a NetworkError raised before any array
        is allocated; a record that `to_records` does not write is one
        too. Each parameter and Adam moment is one copy of its record,
        rounded to PARAM_DTYPE, which `build_model` and `Adam` adopt:
        nothing is drawn from the RNG or zero-filled only to be
        overwritten. A record this version saved rounds back exactly."""
        records = network.load_records(data)

        def record(name, shape):
            if name not in records:
                raise NetworkError(f"checkpoint missing record {name}")
            if records[name].shape != shape:
                raise NetworkError(f"checkpoint record {name} has shape {records[name].shape}, not {shape}")
            return records[name]

        def count(name, low, high=math.inf):
            value = float(record(name, ()))
            if not (value.is_integer() and low <= value <= high):
                raise NetworkError(f"checkpoint record {name} = {value} is not an integer in [{low}, {high}]")
            return int(value)

        mode = MODES[count("/meta/mode_id", 0, len(MODES) - 1)]
        n_classes = count("/meta/n_classes", 1)
        k = count("/meta/k", 1)
        count("/meta/readout_id", 0, 0)  # 1 marked a hidden-state descriptor, no longer built
        if config is None:
            config = TrainConfig(mode=mode, k=k)
        for name, saved, given in (("/meta/mode_id", mode, config.mode), ("/meta/k", k, config.k)):
            if saved != given:
                raise NetworkError(f"checkpoint record {name} gives {saved!r} but the config has {given!r}")
        shapes = param_shapes(config.mode, n_classes)
        # each parameter with its moments, in `named_tensors` order: the head's
        # last weight, which bounds n_classes, comes before the bias sized by
        # it, and every check before the first copy
        for name, shape in shapes.items():
            for stored in (name, f"/opt/{name}.m", f"/opt/{name}.v"):
                record(stored, shape)
        epoch = count("/meta/epoch", 0)
        t_gen, t_head = count("/opt/gen.t", 0), count("/opt/head.t", 0)

        def copy(name):
            return np.array(records[name], dtype=PARAM_DTYPE)

        def moments(tensors, t):
            names = [f"/opt/{name}" for name, _ in tensors]
            return AdamState([copy(f"{n}.m") for n in names], [copy(f"{n}.v") for n in names], t)

        model = build_model(config.mode, n_classes, config.k, params={n: copy(n) for n in shapes})
        trainer = cls.__new__(cls)
        trainer._start(config, model, moments(model.gen_tensors(), t_gen),
                       moments(model.head_tensors(), t_head))
        trainer.epoch = epoch
        layout = trainer.to_records()
        for name in records:
            if name not in layout:
                raise NetworkError(f"checkpoint has unexpected record {name}")
        return trainer


def metrics_csv(metrics) -> str:
    buf = io.StringIO()
    buf.write("epoch,g_loss,d_loss,train_acc\n")
    for m in metrics:
        buf.write(f"{m.epoch},{m.g_loss:.17g},{m.d_loss:.17g},{m.train_acc:.17g}\n")
    return buf.getvalue()
