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

import math
import zlib
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
    NetworkError,
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

@dataclass
class Model:
    """The one assembled model: `params` maps each parameter's name to its
    Tensor in `param_shapes` order, and the layer lists below read it.
    `build_model` draws or adopts it, `latent` and `head_logits` run it."""

    mode: str
    n_classes: int
    k: int
    params: dict

    @property
    def uses_lstm(self):
        return self.mode in LSTM_MODES

    @property
    def adversarial(self):
        return self.mode in ADVERSARIAL_MODES

    def _layers(self, prefix):
        """(weight, bias) pairs of the layers `{prefix}0`, `{prefix}1`, ..."""
        return [(w, self.params[name[:-1] + "b"]) for name, w in self.params.items()
                if name.startswith(prefix) and name.endswith(".w")]

    @property
    def encoder(self):
        return self._layers("gen.enc")

    @property
    def lstm(self):
        """The gate-stacked (w_x, w_h, w_c, b) of the ConvLSTM, or None."""
        return tuple(t for name, t in self.params.items() if name.startswith("gen.lstm.")) or None

    @property
    def head(self):
        return self._layers(f"{_head_prefix(self.mode)}.fc")

    def gen_tensors(self):
        return [(name, t) for name, t in self.params.items() if name.startswith("gen.")]

    def head_tensors(self):
        return [(name, t) for name, t in self.params.items() if not name.startswith("gen.")]

    def named_tensors(self):
        return dict(self.params)

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
            return network.run_convlstm(feats, *self.lstm)
        flat = engine.reshape(feats, (b, t, ch * fh * fw))
        return engine.mean_axis(flat, axis=1)

    def extract(self, x):
        """Forward-only latents for (n, 3k, D, D) inputs, in batches of 64:
        (n, 1024) float64, each value widened exactly from the float32
        forward, so descriptor files and retrieval stay float64."""
        out = np.empty((len(x), DESCRIPTOR_DIM))
        with engine.no_grad():
            for start in range(0, len(x), 64):
                out[start : start + 64] = self.latent(x[start : start + 64]).data
        return out

    def head_logits(self, latent):
        """(B, 1024) latents, an array or Tensor -> (B, N+1) logits in
        adversarial modes (the extra class marks a descriptor as too
        ambiguous to label), (B, N) otherwise."""
        x = latent
        head = self.head
        fan_in = head[0][0].shape[1]
        if x.ndim != 2 or x.shape[1] != fan_in:
            raise NetworkError(f"expected (B, {fan_in}) latents, got {x.shape}")
        last = len(head) - 1
        for i, (w, b) in enumerate(head):
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
    `Model.params` order: the one table of parameter names and shapes.
    The ConvLSTM's tensors are stacked by gate as `engine.convlstm` reads them."""
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


def _layout_id(shapes):
    """CRC32 of a `param_shapes` table's names and shapes, in order: a
    checkpoint stores it, so a file of another layout is refused, not misread."""
    return zlib.crc32(repr(shapes).encode())


def _draw_params(mode, n_classes, seed):
    """{name: array} of a fresh model, in `param_shapes` order. Each weight
    is a float64 draw, uniform in +-sqrt(1/fan-in), rounded to PARAM_DTYPE,
    in table order; the ConvLSTM's go gate by gate (i, f, c, o): input
    kernel, recurrent kernel, then the peephole, which c lacks. This order
    fixes each seed's values. Biases start at zero, the forget gate's at 1
    so that early recurrence keeps its state."""
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, 0x3DA])

    def uniform(shape, fan_in):
        s = np.sqrt(1.0 / fan_in)
        return rng.uniform(-s, s, size=shape).astype(PARAM_DTYPE)

    shapes = param_shapes(mode, n_classes)
    params = {}
    for name, shape in shapes.items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape, PARAM_DTYPE)
        elif not name.startswith("gen.lstm."):
            params[name] = uniform(shape, math.prod(shape[1:]))
        elif name == "gen.lstm.w_x":  # w_h and w_c are drawn with it
            kern, peep = shape[1:], shapes["gen.lstm.w_c"][1:]
            w_x, w_h, w_c = [], [], []
            for gate in "ifco":
                w_x.append(uniform(kern, math.prod(kern[1:])))
                w_h.append(uniform(kern, math.prod(kern[1:])))
                if gate != "c":
                    w_c.append(uniform(peep, peep[0]))
            params.update({"gen.lstm.w_x": np.stack(w_x), "gen.lstm.w_h": np.stack(w_h),
                           "gen.lstm.w_c": np.stack(w_c)})
    if "gen.lstm.b" in params:
        params["gen.lstm.b"][1] = 1.0
    return params


def build_model(mode, n_classes, k=3, seed=0, params=None) -> Model:
    """The model of a mode, its parameters drawn from `seed`; or, given
    `params` ({name: array} of every name `param_shapes` lists, each of its
    shape), those arrays adopted as the parameters, uncopied and undrawn."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if n_classes < 2:
        raise ConfigError(f"classification and retrieval need at least 2 classes, got {n_classes}")
    if params is None:
        params = _draw_params(mode, n_classes, seed)
    tensors = {name: Tensor(params[name], requires_grad=True) for name in param_shapes(mode, n_classes)}
    return Model(mode, n_classes, k, tensors)


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

    def _descend(self, loss, *steps):
        """Zero each (optimizer, lr) of `steps`, backward the `loss` Tensor, step
        each optimizer whose lr > 0; a non-finite loss (before any of this) or
        gradient (before that step) is a TrainingError. Returns the loss as a float."""
        value = loss.item()
        if not np.isfinite(value):
            raise TrainingError(f"non-finite loss at epoch {self.epoch}")
        for opt, _ in steps:
            opt.zero_grad()
        loss.backward()
        try:
            for opt, lr in steps:
                if lr > 0:
                    opt.step(lr)
        except engine.NonFiniteGradient as e:
            raise TrainingError(str(e)) from e
        return value

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
        loss = self._descend(engine.softmax_cross_entropy(logits, targets),
                             (self.opt_head, self.opt_head.lr_at_epoch(self.epoch)))
        self._latent = (x_batch, z)
        return loss

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
        preds = logits.data[:, : self.model.n_classes].argmax(axis=1)
        correct = int((preds == y_batch).sum())
        eff_gen = self.opt_gen.lr_at_epoch(self.epoch) if lr_gen is None else lr_gen
        return self._descend(engine.softmax_cross_entropy(logits, y_batch), (self.opt_gen, eff_gen),
                             (self.opt_head, self.opt_head.lr_at_epoch(self.epoch))), correct

    # -- epochs ------------------------------------------------------------

    def train_epoch(self, train_x, train_y):
        """Shuffled pass over the train split; appends one metrics row and holds no gradient after."""
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
        self.opt_gen.zero_grad()  # held, they keep the step's freed arrays resident
        self.opt_head.zero_grad()
        self.metrics.append(
            EpochMetrics(self.epoch, g_sum / n, d_sum / n if self.model.adversarial else 0.0, correct / n)
        )
        self.epoch += 1
        return self.metrics[-1]

    # -- inference ---------------------------------------------------------

    def extract(self, x):
        """`Model.extract`, after dropping the latent a `d_step` left pending."""
        self._latent = None
        return self.model.extract(x)

    # -- checkpointing -----------------------------------------------------

    def save(self):
        """Checkpoint bytes (`network.save_records`): the counts, then every
        parameter in `param_shapes` order, every first moment in that order,
        every second moment in that order."""
        self._latent = None
        model, gen, head = self.model, self.opt_gen.state, self.opt_head.state
        counts = (MODES.index(model.mode), model.n_classes, model.k, self.epoch, gen.t, head.t,
                  _layout_id(param_shapes(model.mode, model.n_classes)))
        arrays = [t.data for t in model.params.values()] + gen.m + head.m + gen.v + head.v
        return network.save_records(counts, arrays)

    @classmethod
    def restore(cls, data, config: TrainConfig | None = None):
        """Rebuild a trainer from `save` bytes, checked by `_read_checkpoint`;
        Adam adopts an owned copy of each moment and zero-fills none."""
        config, model, epoch, t_gen, t_head, moments = _read_checkpoint(data, config)
        m, v = [next(moments) for _ in model.params], list(moments)
        g = len(model.gen_tensors())
        trainer = cls.__new__(cls)
        trainer._start(config, model, AdamState(m[:g], v[:g], t_gen), AdamState(m[g:], v[g:], t_head))
        trainer.epoch = epoch
        return trainer


def _read_checkpoint(data, config=None):
    """The one reader of `Trainer.save` bytes: (config, model, epoch, the
    two Adam step counts, an iterator of owned copies of the moments).

    A count out of range, a config differing in mode or k, a layout id
    other than that of this program's `param_shapes` table, or a value
    count other than three times the table's size is a NetworkError
    raised before any array is allocated. Each parameter is then one
    owned copy of its float32 values, which `build_model` adopts: nothing
    is drawn from the RNG. Each moment is copied only when it is iterated."""
    (mode_id, n_classes, k, epoch, t_gen, t_head, layout), values = network.load_records(data)
    if mode_id >= len(MODES) or n_classes < 2 or k < 1:
        raise NetworkError(f"checkpoint counts out of range: mode id {mode_id}, {n_classes} classes, k {k}")
    if config is None:
        config = TrainConfig(mode=MODES[mode_id], k=k)
    for name, saved, given in (("mode", MODES[mode_id], config.mode), ("k", k, config.k)):
        if saved != given:
            raise NetworkError(f"checkpoint {name} is {saved!r} but the config has {given!r}")
    shapes = param_shapes(config.mode, n_classes)
    if layout != _layout_id(shapes):
        raise NetworkError(f"checkpoint layout id {layout:08x} is not this program's for {config.mode} "
                           f"with {n_classes} classes")
    stored = [*shapes.values()] * 3  # parameters, first moments, second moments
    sizes = [math.prod(shape) for shape in stored]
    if len(values) != sum(sizes):
        raise NetworkError(f"checkpoint holds {len(values)} values, not {sum(sizes)}")
    parts = np.split(values, np.cumsum(sizes)[:-1])
    arrays = (np.array(part.reshape(shape), PARAM_DTYPE) for part, shape in zip(parts, stored))
    model = build_model(config.mode, n_classes, config.k, params={name: next(arrays) for name in shapes})
    return config, model, epoch, t_gen, t_head, arrays


def restore_model(data) -> Model:
    """The model of `Trainer.save` bytes, for inference: checked as
    `Trainer.restore` checks them, its parameters owned copies; no Adam
    state is built and no moment is copied."""
    return _read_checkpoint(data)[1]


def metrics_csv(metrics) -> str:
    """One header of `EpochMetrics`' field names, then one row per epoch."""
    names = [f.name for f in fields(EpochMetrics)]
    rows = [",".join(names)] + [",".join(format(getattr(m, n), ".17g") for n in names) for m in metrics]
    return "".join(row + "\n" for row in rows)
