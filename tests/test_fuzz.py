"""Property tests of the file readers: on any input, arbitrary or
structured but wrong, each reader returns a well-formed value or raises
its own module's typed error, never anything else. The one exception is
a manifest naming a missing file or a directory: that is an OSError,
the CLI's I/O exit code."""
import posixpath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdrnet import network
from mdrnet.network import DESCRIPTOR_DIM, NetworkError, load_descriptors
from mdrnet.training import (LSTM_MODES, MODES, ConfigError, TrainConfig, Trainer, _layout_id, param_shapes,
                             parse_config, restore_model)
from mdrnet.voxel import (BinvoxError, DatasetError, VoxelGrid, generate_synthetic, load_binvox,
                          load_dataset, save_binvox)

from conftest import seal

FUZZ = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# binvox


def binvox_stream(dims, extra_lines, pairs):
    header = "#binvox 1\ndim {} {} {}\n".format(*dims) + "".join(f"{line}\n" for line in extra_lines)
    return (header + "data\n").encode() + bytes(b for pair in pairs for b in pair)


@st.composite
def binvox_like(draw):
    dims = draw(st.tuples(*[st.integers(-2, 5)] * 3))
    extra = draw(st.lists(st.sampled_from(["translate 0 0 0", "scale 1", "", "dim 2 2", "bogus"]), max_size=2))
    pairs = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 255)), max_size=6))
    return binvox_stream(dims, extra, pairs)


def check_binvox(data):
    try:
        grid = load_binvox(data)
    except BinvoxError:
        return
    assert isinstance(grid, VoxelGrid) and min(grid.dims) > 0


@FUZZ
@given(st.binary(max_size=120))
@example(b"#binvox 1\ndim 2 2 2\ndata\n\x01\x08")
def test_load_binvox_arbitrary_bytes(data):
    check_binvox(data)


@FUZZ
@given(binvox_like())
@example(b"#binvox 1\ndim 0 30 30\ndata\n")
@example(b"#binvox 1\ndim -1 -2 1\ndata\n\x00\x02")
def test_load_binvox_structured(data):
    check_binvox(data)


# ---------------------------------------------------------------------------
# checkpoints: `network.load_records` as `Trainer.restore` and `restore_model` read it


@st.composite
def checkpoint_like(draw):
    """Sealed files of drawn counts: mode ids and class counts in range and
    out of it, this program's layout id or a drawn one, and a value count
    off the table's size by at most one, or a few values."""
    mode_id = draw(st.integers(0, len(MODES) + 1))
    n_classes, k = draw(st.sampled_from([0, 1, 2, 4, 2**32 - 1])), draw(st.sampled_from([0, 1, 3, 2**32 - 1]))
    counts = [mode_id, n_classes, k, *(draw(st.integers(0, 2**32 - 1)) for _ in range(3))]
    shapes = param_shapes(MODES[mode_id], n_classes) if mode_id < len(MODES) else None
    counts.append(_layout_id(shapes) if shapes and draw(st.booleans()) else draw(st.integers(0, 2**32 - 1)))
    # a table without the ConvLSTM and few classes is small enough to fill
    if shapes and n_classes <= 4 and MODES[mode_id] not in LSTM_MODES and draw(st.booleans()):
        n_values = 3 * sum(int(np.prod(s)) for s in shapes.values()) + draw(st.sampled_from([-1, 0, 0, 1]))
    else:
        n_values = draw(st.integers(0, 8))
    return network.save_records(counts, [np.zeros(n_values, np.float32)])


def check_restore(data):
    """Both entry points of the checkpoint reader accept or refuse `data`
    alike, with the same error; an accepted file saves back unchanged and
    gives both the same parameters."""
    restored = []
    for restore in (Trainer.restore, restore_model):
        try:
            restored.append(restore(data))
        except (NetworkError, ConfigError) as e:
            restored.append(e)
    trainer, model = restored
    if isinstance(trainer, Exception) or isinstance(model, Exception):
        assert (type(trainer), str(trainer)) == (type(model), str(model))
        return
    assert trainer.save() == bytes(data)
    params = trainer.model.named_tensors()
    assert list(model.params) == list(params)
    assert all(np.array_equal(t.data, params[name].data) for name, t in model.params.items())


@FUZZ
@given(st.binary(max_size=80))
def test_load_records_arbitrary_bytes(data):
    check_restore(network.CHECKPOINT_MAGIC + data)
    check_restore(seal(network.CHECKPOINT_MAGIC + data))


@FUZZ
@given(checkpoint_like())
@example(Trainer(TrainConfig(mode="cnn_only", seed=7), 4).save())  # one file both entry points accept
def test_load_records_structured(data):
    check_restore(data)


# ---------------------------------------------------------------------------
# descriptor tables

TOKENS = ["0", "1.5", "-2e-3", "nan", "inf", "1e999", "x", "0x1", "1,5", "٣"]


@st.composite
def descriptors_like(draw):
    n = draw(st.sampled_from(["0", "1", "2", "-1", "x", "9" * 30]))
    dim = draw(st.sampled_from([str(DESCRIPTOR_DIM), "3", ""]))
    rows = []
    for _ in range(draw(st.integers(0, 2))):
        values = [draw(st.sampled_from(TOKENS[:3]))] * draw(st.sampled_from([DESCRIPTOR_DIM, DESCRIPTOR_DIM - 1, 3]))
        if values and draw(st.booleans()):
            values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(TOKENS))
        rows.append(draw(st.text(max_size=3)) + draw(st.sampled_from(["\t", " ", ""])) + " ".join(values))
    return "\n".join([f"DDSD n={n} dim={dim}", *rows]).encode("utf-8")


def check_descriptors(data):
    try:
        ids, vecs = load_descriptors(data)
    except NetworkError:
        return
    assert vecs.shape == (len(ids), DESCRIPTOR_DIM) and np.isfinite(vecs).all()


@FUZZ
@given(st.binary(max_size=120))
def test_load_descriptors_arbitrary_bytes(data):
    check_descriptors(data)


@FUZZ
@given(descriptors_like())
@example(("DDSD n=" + "9" * 5000 + f" dim={DESCRIPTOR_DIM}").encode())
@example(f"DDSD n=1 dim={DESCRIPTOR_DIM}\nx\t{' '.join(['nan'] * DESCRIPTOR_DIM)}".encode())
@example(f"DDSD n=1 dim={DESCRIPTOR_DIM}\nx\t{' '.join(['1e999'] * DESCRIPTOR_DIM)}".encode())
def test_load_descriptors_structured(data):
    check_descriptors(data)


# ---------------------------------------------------------------------------
# training configs

CONFIG_KEYS = ["mode", "k", "batch_size", "lr_gen", "lr_dis", "decay", "epochs", "seed",
               "g_updates_dis", "descriptor_readout", "momentum"]
CONFIG_VALUES = ["full", "cnn_only", "hidden", "true", "maybe", "0", "3", "-1", "1e999",
                 "0.5", "nan", "inf", "-inf", "", "1_0", "9" * 5000]


def check_config(text):
    try:
        config = parse_config(text)
    except ConfigError:
        return
    assert isinstance(config, TrainConfig)
    assert 0 < config.lr_gen < np.inf and 0 < config.lr_dis < np.inf and 0 < config.decay <= 1


@FUZZ
@given(st.one_of(st.text(max_size=80), st.binary(max_size=80)))
def test_parse_config_arbitrary_input(text):
    check_config(text)


@FUZZ
@given(st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), st.sampled_from(["=", " = ", ":"]),
                          st.sampled_from(CONFIG_VALUES)), max_size=4))
@example([("lr_gen", " = ", "nan")])
@example([("lr_dis", " = ", "inf")])
def test_parse_config_structured(lines):
    check_config("\n".join(k + sep + v for k, sep, v in lines))


# ---------------------------------------------------------------------------
# dataset manifests

MANIFEST_PATHS = ["ok.binvox", "sub/ok.binvox", "bad.binvox", "missing.binvox", "sub", "", ".",
                  "s\0.binvox", "x" * 300,
                  # other spellings of the files above; {root} is the manifest's directory
                  "./ok.binvox", "sub//ok.binvox", "sub/./ok", "ok", "sub/../ok.binvox", "../ok.binvox",
                  "sub/../../ok.binvox", "/ok.binvox", "{root}/ok.binvox"]
MANIFEST_FIELDS = ["c", "d", "", "train", "test", "val"]


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifests")
    (root / "sub").mkdir()
    for path in ("ok.binvox", "sub/ok.binvox", "sub/ok"):
        (root / path).write_bytes(save_binvox(generate_synthetic("sphere", 0)))
    (root / "bad.binvox").write_bytes(b"#binvox 1\ndim 0 30 30\ndata\n")
    return root


def check_dataset(root, data):
    (root / "manifest.tsv").write_bytes(data)
    try:
        dataset = load_dataset(root / "manifest.tsv")
    except (DatasetError, BinvoxError, OSError):
        return
    assert dataset.shapes and all(isinstance(s.grid, VoxelGrid) for s in dataset.shapes)
    assert set(dataset.split.values()) <= {"train", "test"}
    ids = [s.shape_id for s in dataset.shapes]
    assert len(set(ids)) == len(ids)
    assert all(posixpath.normpath(i) == i for i in ids)


@FUZZ
@given(st.binary(max_size=120))
@example(b"s\x00.binvox\tc\ttest\n")
def test_load_dataset_arbitrary_bytes(manifest_dir, data):
    check_dataset(manifest_dir, data)


@FUZZ
@given(st.lists(st.tuples(st.sampled_from(MANIFEST_PATHS),
                          st.lists(st.sampled_from(MANIFEST_FIELDS), max_size=3),
                          st.sampled_from(["\t", " "])), max_size=3))
@example([("ok.binvox", ["c", "train"], "\t"), ("sub/ok.binvox", ["d", "test"], "\t")])
@example([("ok.binvox", ["c", "train"], "\t"), ("s\0.binvox", ["c", "test"], "\t")])
@example([("ok.binvox", ["c", "train"], "\t"), ("./ok.binvox", ["c", "test"], "\t")])
@example([("sub/ok", ["c", "train"], "\t"), ("sub//ok.binvox", ["c", "test"], "\t")])
@example([("{root}/ok.binvox", ["c", "train"], "\t")])
def test_load_dataset_structured(manifest_dir, lines):
    text = "\n".join(sep.join([path.format(root=manifest_dir), *fields]) for path, fields, sep in lines)
    check_dataset(manifest_dir, text.encode("utf-8"))
