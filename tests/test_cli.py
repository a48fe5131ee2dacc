import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from mdrnet import cli, voxel
from mdrnet.cli import main

from conftest import edited_checkpoint


def read_tree(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


TINY_CONFIG = """\
mode = cnn_only
k = 3
batch_size = 4
lr_gen = 0.01
lr_dis = 0.001
decay = 0.995
epochs = 1
seed = 7
"""


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    # 8 per class -> 2 test shapes per class, so retrieval queries have
    # at least one relevant gallery item
    rc = main(["dataset-synth", "--per-class", "8", "--seed", "3", "--out", str(out)])
    assert rc == 0
    return out


class TestDatasetSynth:
    def test_file_and_split_counts(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["dataset-synth", "--per-class", "8", "--seed", "1", "--out", str(out)]) == 0
        files = list(out.glob("*.binvox"))
        assert len(files) == 32
        manifest = (out / "manifest.tsv").read_text().splitlines()
        parts = [line.split("\t")[2] for line in manifest]
        assert parts.count("train") == 24 and parts.count("test") == 8

    def test_50_per_class_split_arithmetic(self, tmp_path):
        out = tmp_path / "ds50"
        assert main(["dataset-synth", "--per-class", "50", "--seed", "1", "--out", str(out)]) == 0
        manifest = (out / "manifest.tsv").read_text().splitlines()
        assert len(manifest) == 200
        parts = [line.split("\t")[2] for line in manifest]
        assert parts.count("train") == 152 and parts.count("test") == 48

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["dataset-synth", "--per-class", "3", "--seed", "9", "--out", str(out)]) == 0
        assert read_tree(a) == read_tree(b)

    def test_per_class_one_rejected(self, tmp_path):
        rc = main(["dataset-synth", "--per-class", "1", "--seed", "0", "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_USAGE

    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["dataset-synth", "--per-class", "2", "--seed", "1", "--out", str(out)]) == 0
        assert len(list(out.iterdir())) == 9 and not list(out.glob("*.tmp"))

    def test_unknown_class_rejected(self, tmp_path):
        rc = main([
            "dataset-synth", "--classes", "sphere,torus", "--per-class", "2",
            "--seed", "0", "--out", str(tmp_path / "x"),
        ])
        assert rc == cli.EXIT_USAGE


class TestMdrExport:
    def test_k3_writes_nine_images(self, dataset_dir, tmp_path):
        shape = next(dataset_dir.glob("*.binvox"))
        out = tmp_path / "mdr"
        rc = main(["mdr-export", "--in", str(shape), "--k", "3", "--out", str(out), "--images"])
        assert rc == 0
        assert len(list(out.glob("*.pgm"))) == 9
        assert len(list(out.glob("*.mdr"))) == 1

    def test_k5_end_slices_black_for_centered_small_shape(self, tmp_path):
        from mdrnet.voxel import VoxelGrid, save_binvox

        arr = np.zeros((30, 30, 30), dtype=np.uint8)
        arr[12:18, 12:18, 9:21] = 1  # z extent 12 < 18, centered
        path = tmp_path / "shape.binvox"
        path.write_bytes(save_binvox(VoxelGrid.from_array(arr)))
        out = tmp_path / "mdr5"
        assert main(["mdr-export", "--in", str(path), "--k", "5", "--out", str(out), "--images"]) == 0
        header = len(b"P5\n30 30\n255\n")
        assert (out / "shape_z0.pgm").read_bytes()[header:] == bytes(900)
        assert (out / "shape_z4.pgm").read_bytes()[header:] == bytes(900)

    def test_non_divisor_k_rejected(self, dataset_dir, tmp_path, capsys):
        shape = next(dataset_dir.glob("*.binvox"))
        rc = main(["mdr-export", "--in", str(shape), "--k", "7", "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_USAGE
        assert "divisor" in capsys.readouterr().err


@pytest.fixture(scope="module")
def run_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = out / "config.txt"
    cfg.write_text(TINY_CONFIG)
    rc = main(["train", "--config", str(cfg), "--data", str(dataset_dir), "--out", str(out)])
    assert rc == 0
    return out


class TestTrainExtractEval:

    def test_outputs_exist(self, run_dir):
        assert (run_dir / "checkpoint.mdrnet").exists()
        metrics = (run_dir / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,g_loss,d_loss,train_acc"
        assert len(metrics) == 2
        manifest = json.loads((run_dir / "run_manifest.json").read_text())
        assert set(manifest["platform"]) == {
            "python", "numpy", "blas", "blas_version",
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "cpus",
        }
        assert manifest["platform"]["numpy"] == np.__version__
        assert manifest["platform"]["cpus"] >= 1
        for var in cli.BLAS_THREAD_VARS:  # null when unset
            assert manifest["platform"][var] == os.environ.get(var)

    def test_identical_invocations_identical_checkpoints(self, dataset_dir, tmp_path):
        sums = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            out.mkdir()
            cfg = out / "config.txt"
            cfg.write_text(TINY_CONFIG)
            assert main(["train", "--config", str(cfg), "--data", str(dataset_dir), "--out", str(out)]) == 0
            sums.append((out / "checkpoint.mdrnet").read_bytes())
        assert sums[0] == sums[1]

    def test_zero_epochs_writes_the_untrained_run(self, dataset_dir, tmp_path, capsys):
        from mdrnet import training

        out = tmp_path / "zero"
        out.mkdir()
        cfg = out / "config.txt"
        cfg.write_text(TINY_CONFIG.replace("epochs = 1", "epochs = 0"))
        assert main(["train", "--config", str(cfg), "--data", str(dataset_dir), "--out", str(out)]) == 0
        config = training.parse_config(cfg.read_bytes())
        assert (out / "checkpoint.mdrnet").read_bytes() == training.Trainer(config, 4).save()
        assert (out / "metrics.csv").read_text() == "epoch,g_loss,d_loss,train_acc\n"
        assert capsys.readouterr().out == "final train accuracy: nan\n"

    def test_bad_config_exit_code(self, dataset_dir, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("lr_gen = -1\n")
        rc = main(["train", "--config", str(cfg), "--data", str(dataset_dir), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_USAGE

    def test_extract_and_eval(self, dataset_dir, run_dir, tmp_path):
        desc = tmp_path / "test.ddsd"
        rc = main([
            "extract", "--checkpoint", str(run_dir / "checkpoint.mdrnet"),
            "--data", str(dataset_dir), "--out", str(desc),
        ])
        assert rc == 0
        first = desc.read_text().splitlines()[0]
        assert first == "DDSD n=8 dim=1024"

        out = tmp_path / "eval"
        rc = main([
            "eval", "--checkpoint", str(run_dir / "checkpoint.mdrnet"),
            "--data", str(dataset_dir), "--out", str(out),
        ])
        assert rc == 0
        summary = dict(
            line.split(" = ") for line in (out / "summary.txt").read_text().splitlines()
        )
        assert np.isfinite(float(summary["accuracy"]))
        assert np.isfinite(float(summary["map"]))
        assert "excluded_queries" in summary
        assert (out / "macro_pr.csv").exists()

    def test_extract_deterministic(self, dataset_dir, run_dir, tmp_path):
        outs = []
        for name in ("d1", "d2"):
            p = tmp_path / name
            assert main([
                "extract", "--checkpoint", str(run_dir / "checkpoint.mdrnet"),
                "--data", str(dataset_dir), "--out", str(p),
            ]) == 0
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]

    def test_inference_builds_no_trainer_or_adam_state(self, dataset_dir, run_dir, tmp_path, monkeypatch):
        """With a trainer's restore and every Adam type refused, `extract`
        and `eval --checkpoint` still write the bytes of an unrefused run."""
        from mdrnet import engine, training

        def run(out):
            out.mkdir()
            given = ["--checkpoint", str(run_dir / "checkpoint.mdrnet"), "--data", str(dataset_dir)]
            assert main(["extract", *given, "--split", "all", "--out", str(out / "all.ddsd")]) == 0
            assert main(["eval", *given, "--out", str(out / "eval")]) == 0
            return read_tree(out)

        plain = run(tmp_path / "plain")

        def refuse(*args, **kwargs):
            raise AssertionError("inference built a trainer or its Adam state")

        for owner, name in ((training.Trainer, "restore"), (engine, "Adam"), (engine, "AdamState"),
                            (training, "Adam"), (training, "AdamState")):
            monkeypatch.setattr(owner, name, refuse)
        assert run(tmp_path / "refused") == plain

    def test_eval_descriptor_file_collapsed_classes(self, dataset_dir, tmp_path):
        # hand-built descriptors: one point per class -> mAP = 1
        from mdrnet import network, voxel

        ds = voxel.load_dataset(dataset_dir / "manifest.tsv")
        test_shapes = ds.subset("test")
        vecs = np.zeros((len(test_shapes), network.DESCRIPTOR_DIM))
        for i, s in enumerate(test_shapes):
            vecs[i, s.label] = 100.0
        path = tmp_path / "c.ddsd"
        path.write_bytes(network.save_descriptors([s.shape_id for s in test_shapes], vecs))
        out = tmp_path / "eval_c"
        rc = main(["eval", "--descriptors", str(path), "--data", str(dataset_dir), "--out", str(out)])
        assert rc == 0
        summary = dict(
            line.split(" = ") for line in (out / "summary.txt").read_text().splitlines()
        )
        assert float(summary["map"]) == 1.0

    def test_eval_mismatched_classes_rejected(self, run_dir, tmp_path):
        small = tmp_path / "two_class"
        assert main([
            "dataset-synth", "--classes", "sphere,box", "--per-class", "2",
            "--seed", "0", "--out", str(small),
        ]) == 0
        rc = main([
            "eval", "--checkpoint", str(run_dir / "checkpoint.mdrnet"),
            "--data", str(small), "--out", str(tmp_path / "o"),
        ])
        assert rc == cli.EXIT_USAGE

    def test_previous_checkpoint_format_usage_error(self, dataset_dir, run_dir, tmp_path):
        from mdrnet import network

        data = (run_dir / "checkpoint.mdrnet").read_bytes()
        old = tmp_path / "old.mdrnet"
        for magic in (b"MDRNET1", b"MDRNET2", b"MDRNET3"):
            old.write_bytes(magic + data[len(network.CHECKPOINT_MAGIC):])
            for cmd in ("extract", "eval"):
                rc = main([
                    cmd, "--checkpoint", str(old),
                    "--data", str(dataset_dir), "--out", str(tmp_path / cmd),
                ])
                assert rc == cli.EXIT_USAGE, (magic, cmd)

    def test_truncated_checkpoint_usage_error(self, dataset_dir, run_dir, tmp_path):
        from mdrnet import network

        data = (run_dir / "checkpoint.mdrnet").read_bytes()
        header = len(network.CHECKPOINT_MAGIC) + 4 * network.CHECKPOINT_COUNTS
        # inside the magic and the counts, after the counts, inside the
        # values, before and inside the checksum
        for cut in (3, 9, header, header + 6, len(data) // 2, len(data) - 4, len(data) - 1):
            cut_path = tmp_path / f"cut{cut}.mdrnet"
            cut_path.write_bytes(data[:cut])
            for cmd in ("extract", "eval"):
                rc = main([
                    cmd, "--checkpoint", str(cut_path),
                    "--data", str(dataset_dir), "--out", str(tmp_path / f"{cmd}{cut}"),
                ])
                assert rc == cli.EXIT_USAGE, (cmd, cut)

    def test_malformed_descriptor_file_usage_error(self, dataset_dir, run_dir, tmp_path):
        from mdrnet import voxel

        ids = [s.shape_id for s in voxel.load_dataset(dataset_dir / "manifest.tsv").subset("test")]
        rows = [f"{sid}\t{i % 2} 1 {i}" for i, sid in enumerate(ids)]
        tables = {
            "dim3": "\n".join([f"DDSD n={len(ids)} dim=3", *rows]),
            "no_dim": "DDSD n=1",
            "bad_dim": "DDSD n=1 dim=x",
            "no_fields": "DDSD foo",
        }
        checkpoint = ["--checkpoint", str(run_dir / "checkpoint.mdrnet")]
        for name, text in tables.items():
            path = tmp_path / f"{name}.ddsd"
            path.write_text(text + "\n")
            for extra in ([], checkpoint):
                rc = main([
                    "eval", "--descriptors", str(path), *extra,
                    "--data", str(dataset_dir), "--out", str(tmp_path / f"e_{name}"),
                ])
                assert rc == cli.EXIT_USAGE, (name, extra)

    def test_empty_descriptor_table_usage_error(self, dataset_dir, run_dir, tmp_path, capsys):
        """An empty table loads as (0, 1024) descriptors, which the head
        accepts; evaluation then refuses the empty input."""
        path = tmp_path / "empty.ddsd"
        path.write_text("DDSD n=0 dim=1024\n")
        rc = main([
            "eval", "--descriptors", str(path), "--checkpoint", str(run_dir / "checkpoint.mdrnet"),
            "--data", str(dataset_dir), "--out", str(tmp_path / "e_empty"),
        ])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: empty input\n"

    def test_eval_has_no_metric_option(self, dataset_dir, run_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "eval", "--checkpoint", str(run_dir / "checkpoint.mdrnet"), "--metric", "cosine",
                "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
            ])
        assert exc.value.code == cli.EXIT_USAGE

    def test_missing_checkpoint_io_error(self, dataset_dir, tmp_path):
        rc = main([
            "extract", "--checkpoint", str(tmp_path / "nope.mdrnet"),
            "--data", str(dataset_dir), "--out", str(tmp_path / "d"),
        ])
        assert rc == cli.EXIT_IO

    def test_eval_subdirectory_ids(self, dataset_dir, run_dir, tmp_path):
        # ModelNet layout: <class>/<name>.binvox, so each shape id keeps its class directory
        data = _relocated_dataset(dataset_dir, tmp_path / "nested", lambda rel, cname: f"{cname}/{rel}")
        desc = tmp_path / "nested.ddsd"
        assert main([
            "extract", "--checkpoint", str(run_dir / "checkpoint.mdrnet"),
            "--data", str(data), "--out", str(desc),
        ]) == 0
        out = tmp_path / "eval"
        assert main(["eval", "--descriptors", str(desc), "--data", str(data), "--out", str(out)]) == 0
        curves = sorted(p.relative_to(out / "pr").as_posix() for p in (out / "pr").rglob("*.csv"))
        assert curves == sorted(f"{c}/{c}_{i:04d}.csv" for c in voxel.SYNTHETIC_CLASSES for i in (6, 7))
        assert (out / "summary.txt").exists()
        assert not list(out.rglob("*.tmp"))

    @pytest.mark.parametrize("where", ["parent", "absolute", "alias"])
    def test_eval_bad_curve_id_rejected(self, dataset_dir, run_dir, tmp_path, where):
        outside = tmp_path / "outside"
        outside.mkdir()

        def relocate(rel, cname):
            if rel != "pyramid_0007.binvox":
                return rel
            return {"parent": "../outside/" + rel, "absolute": str(outside / rel),
                    "alias": "./pyramid_0006.binvox"}[where]

        data = _relocated_dataset(dataset_dir, tmp_path / "data", relocate)
        out = tmp_path / "eval"
        rc = main([
            "eval", "--checkpoint", str(run_dir / "checkpoint.mdrnet"),
            "--data", str(data), "--out", str(out),
        ])
        assert rc == cli.EXIT_USAGE
        assert not out.exists()
        assert [p.name for p in tmp_path.rglob("*.csv")] == []


def _relocated_dataset(src, dst, relocate):
    """Copy of the dataset at `src` with each binvox moved to `relocate(rel, class)`
    (relative to `dst`, or absolute) and the manifest updated to match."""
    lines = []
    for line in (src / "manifest.tsv").read_text().splitlines():
        rel, cname, part = line.split("\t")
        new = relocate(rel, cname)
        path = dst / new
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes((src / rel).read_bytes())
        lines.append(f"{new}\t{cname}\t{part}")
    (dst / "manifest.tsv").write_text("\n".join(lines) + "\n")
    return dst


def _cube_dataset(root, sizes):
    """Boxes in grids of the given (dx, dy, dz) sizes, all in the test split."""
    from mdrnet import voxel

    root.mkdir()
    lines = []
    for i, dims in enumerate(sizes):
        arr = np.zeros(dims, dtype=np.uint8)
        arr[tuple(slice(2, d - 2) for d in dims)] = 1
        (root / f"s{i}.binvox").write_bytes(voxel.save_binvox(voxel.VoxelGrid.from_array(arr)))
        lines.append(f"s{i}.binvox\tc{i}\ttest")
    (root / "manifest.tsv").write_text("\n".join(lines) + "\n")
    return root


BAD_MANIFESTS = ["manifest_alias", "manifest_id_twice", "manifest_parent", "manifest_absolute"]


@pytest.fixture(scope="module")
def bad_manifests(dataset_dir, tmp_path_factory):
    """Data directory per bad manifest: the good dataset plus one line that
    names a file again or a file outside the directory."""
    tmp = tmp_path_factory.mktemp("manifests")
    outside = tmp / "outside" / "box_0003.binvox"
    outside.parent.mkdir()
    shutil.copy(dataset_dir / "box_0003.binvox", outside)
    extra = {"manifest_alias": "./sphere_0003.binvox", "manifest_id_twice": "sphere_0003",
             "manifest_parent": "../outside/box_0003.binvox", "manifest_absolute": str(outside)}
    dirs = {}
    for case, path in extra.items():
        dirs[case] = tmp / case
        shutil.copytree(dataset_dir, dirs[case])
        shutil.copy(dataset_dir / "sphere_0003.binvox", dirs[case] / "sphere_0003")
        with open(dirs[case] / "manifest.tsv", "a") as f:
            f.write(f"{path}\tsphere\ttrain\n")
    return dirs


@pytest.mark.parametrize("command", ["train", "extract", "eval"])
@pytest.mark.parametrize("case", BAD_MANIFESTS)
def test_bad_manifest_refused_before_output(bad_manifests, run_dir, tmp_path, case, command, capsys):
    data, out = str(bad_manifests[case]), tmp_path / "out"
    checkpoint = str(run_dir / "checkpoint.mdrnet")
    argv = {"train": ["train", "--config", str(run_dir / "config.txt"), "--data", data, "--out", str(out)],
            "extract": ["extract", "--checkpoint", checkpoint, "--data", data, "--out", str(out)],
            "eval": ["eval", "--checkpoint", checkpoint, "--data", data, "--out", str(out)]}[command]
    assert main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: manifest path")
    assert not out.exists()


def test_train_one_class_writes_nothing(tmp_path, capsys):
    data, out = tmp_path / "one", tmp_path / "out"
    assert main(["dataset-synth", "--classes", "sphere", "--per-class", "4", "--out", str(data)]) == 0
    (tmp_path / "config.txt").write_text("mode = full\nepochs = 1\nbatch_size = 8\n")
    capsys.readouterr()
    assert main(["train", "--config", str(tmp_path / "config.txt"), "--data", str(data),
                 "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: classification and retrieval need at least 2 classes, got 1\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def bad_inputs(dataset_dir, bad_manifests, tmp_path_factory):
    """argv per bad input: each names a file the CLI reads and must refuse."""
    from mdrnet import network, training, voxel

    tmp = tmp_path_factory.mktemp("bad")
    good = training.Trainer(training.TrainConfig(mode="cnn_only", seed=7), 4).save()
    (tmp / "good.mdrnet").write_bytes(good)

    def extract(checkpoint, data=dataset_dir):
        return ["extract", "--checkpoint", str(checkpoint), "--data", str(data),
                "--split", "all", "--out", str(tmp / "out.ddsd")]

    cases = {}
    for name, value in [("/meta/mode_id", 9), ("/meta/n_classes", 0), ("/meta/k", 4), ("/opt/gen.t", None)]:
        path = tmp / f"{name.replace('/', '_')}{value}.mdrnet"
        path.write_bytes(edited_checkpoint(good, name, value))
        cases[f"checkpoint{name}={value}"] = extract(path)

    (tmp / "dim0.binvox").write_bytes(b"#binvox 1\ndim 0 30 30\ndata\n")
    cases["binvox_dim_0"] = ["mdr-export", "--in", str(tmp / "dim0.binvox"), "--out", str(tmp / "m")]
    cases["mdr_export_k0"] = ["mdr-export", "--in", str(next(dataset_dir.glob("*.binvox"))), "--k", "0",
                              "--out", str(tmp / "m")]
    flat = _cube_dataset(tmp / "flat", [(30, 30, 60)] * 2)
    cases["mdr_export_30x30x60"] = ["mdr-export", "--in", str(flat / "s0.binvox"), "--out", str(tmp / "m")]
    cases["extract_30x30x60"] = extract(tmp / "good.mdrnet", flat)
    for name, sizes in {"mixed": [(30,) * 3, (24,) * 3], "cube36": [(36,) * 3] * 2,
                        "cube60": [(60,) * 3] * 2}.items():
        cases[f"extract_{name}"] = extract(tmp / "good.mdrnet", _cube_dataset(tmp / name, sizes))

    singles = _cube_dataset(tmp / "singles", [(30,) * 3] * 3)  # one shape per class
    vecs = np.eye(3, network.DESCRIPTOR_DIM)
    (tmp / "singles.ddsd").write_bytes(network.save_descriptors(["s0", "s1", "s2"], vecs))
    cases["eval_no_relevant_item"] = ["eval", "--descriptors", str(tmp / "singles.ddsd"),
                                      "--data", str(singles), "--out", str(tmp / "e")]
    rows = "".join(f"s{i}\t" + " ".join(["nan"] * network.DESCRIPTOR_DIM) + "\n" for i in range(3))
    (tmp / "nan.ddsd").write_text(f"DDSD n=3 dim={network.DESCRIPTOR_DIM}\n" + rows)
    cases["eval_nan_descriptors"] = ["eval", "--descriptors", str(tmp / "nan.ddsd"),
                                     "--data", str(singles), "--out", str(tmp / "e")]
    test_ids = [s.shape_id for s in voxel.load_dataset(dataset_dir / "manifest.tsv").subset("test")]
    twice = test_ids + test_ids[:1]  # every test shape, the first one on two rows
    (tmp / "twice.ddsd").write_bytes(network.save_descriptors(twice, np.eye(len(twice), network.DESCRIPTOR_DIM)))
    cases["eval_duplicate_id"] = ["eval", "--descriptors", str(tmp / "twice.ddsd"),
                                  "--data", str(dataset_dir), "--out", str(tmp / "e")]

    # a full checkpoint of the earlier layout, one ConvLSTM array per gate
    # (named by the stacked tensor plus the gate's letter, b_ in place of b):
    # the same values in the same order, under that table's layout id
    per_gate = {}
    for name, shape in training.param_shapes("full", 4).items():
        if name.startswith("gen.lstm."):
            stem = name.replace("gen.lstm.b", "gen.lstm.b_")
            per_gate.update((stem + gate, shape[1:]) for gate in ("ifco" if shape[0] == 4 else "ifo"))
        else:
            per_gate[name] = shape
    full = training.Trainer(training.TrainConfig(mode="full", seed=7), 4).save()
    (tmp / "per_gate.mdrnet").write_bytes(
        edited_checkpoint(full, "/meta/layout_id", training._layout_id(per_gate)))
    cases["checkpoint_per_gate_lstm"] = extract(tmp / "per_gate.mdrnet")
    (tmp / "extra.mdrnet").write_bytes(edited_checkpoint(good, "gen.extra", np.zeros(3)))
    cases["checkpoint_extra_record"] = extract(tmp / "extra.mdrnet")
    (tmp / "missing.mdrnet").write_bytes(edited_checkpoint(good, "gen.enc0.b", np.zeros(31)))
    cases["checkpoint_missing_value"] = extract(tmp / "missing.mdrnet")
    flipped = bytearray(good)
    flipped[len(good) // 2] ^= 0x10
    (tmp / "flipped.mdrnet").write_bytes(flipped)
    cases["checkpoint_flipped_byte"] = extract(tmp / "flipped.mdrnet")

    (tmp / "nul").mkdir()
    (tmp / "nul" / "manifest.tsv").write_bytes(b"s\x00.binvox\tc\ttest\n")
    cases["manifest_nul_path"] = extract(tmp / "good.mdrnet", tmp / "nul")
    (tmp / "latin1").mkdir()
    (tmp / "latin1" / "manifest.tsv").write_bytes(b"s\xe9.binvox\tc\ttest\n")
    cases["manifest_not_utf8"] = extract(tmp / "good.mdrnet", tmp / "latin1")
    cases["extract_empty_split"] = ["extract", "--checkpoint", str(tmp / "good.mdrnet"), "--data",
                                    str(singles), "--split", "train", "--out", str(tmp / "o.ddsd")]
    for name, text in {"config_lr_nan": b"lr_gen = nan\n", "config_not_utf8": b"mode = \xff\n",
                       "config_repeated_key": b"mode = cnn_only\nmode = full\n",
                       "config_decay_underflow": b"mode = cnn_only\nepochs = 3\ndecay = 1e-200\n"}.items():
        (tmp / name).write_bytes(text)
        cases[name] = ["train", "--config", str(tmp / name), "--data", str(dataset_dir),
                       "--out", str(tmp / f"out_{name}")]

    for case in BAD_MANIFESTS:
        cases[case] = extract(tmp / "good.mdrnet", bad_manifests[case])
    cases["synth_repeated_class"] = ["dataset-synth", "--classes", "sphere,sphere", "--per-class", "4",
                                     "--out", str(tmp / "s")]
    cases["synth_no_class"] = ["dataset-synth", "--classes", ",", "--per-class", "4",
                               "--out", str(tmp / "out_synth_no_class")]
    one_class = tmp / "one_class"
    voxel.write_dataset(voxel.build_synthetic_dataset(["sphere"], 4, 0), one_class)
    for mode in ("cnn_only", "full"):
        (tmp / f"{mode}.txt").write_text(f"mode = {mode}\nepochs = 1\nbatch_size = 8\n")
        cases[f"train_one_class_{mode}"] = ["train", "--config", str(tmp / f"{mode}.txt"), "--data",
                                           str(one_class), "--out", str(tmp / "t")]
    cases["train_manifest_alias"] = ["train", "--config", str(tmp / "cnn_only.txt"), "--data",
                                     str(bad_manifests["manifest_alias"]), "--out", str(tmp / "t")]
    return cases


BAD_INPUTS = [
    "checkpoint/meta/mode_id=9", "checkpoint/meta/n_classes=0", "checkpoint/meta/k=4",
    "checkpoint/opt/gen.t=None", "binvox_dim_0", "mdr_export_k0", "mdr_export_30x30x60", "extract_30x30x60",
    "extract_mixed", "extract_cube36", "extract_cube60", "eval_no_relevant_item",
    "eval_nan_descriptors", "eval_duplicate_id", "manifest_not_utf8", "extract_empty_split", "config_lr_nan",
    "config_not_utf8", "checkpoint_per_gate_lstm", "manifest_nul_path", "manifest_alias", "manifest_id_twice",
    "manifest_parent", "manifest_absolute", "train_manifest_alias", "synth_repeated_class",
    "train_one_class_cnn_only", "train_one_class_full", "checkpoint_extra_record", "config_repeated_key",
    "config_decay_underflow", "synth_no_class", "checkpoint_flipped_byte", "checkpoint_missing_value",
]


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_usage_error(bad_inputs, case, capsys):
    assert sorted(bad_inputs) == sorted(BAD_INPUTS)
    assert main(bad_inputs[case]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("case", ["config_repeated_key", "config_decay_underflow", "synth_no_class"])
def test_refused_before_output(bad_inputs, case, capsys):
    out = Path(bad_inputs[case][bad_inputs[case].index("--out") + 1])
    assert main(bad_inputs[case]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
