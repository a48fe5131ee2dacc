import numpy as np
import pytest

from mdrnet import cli
from mdrnet.cli import main


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
        assert (run_dir / "run_manifest.json").exists()

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
        old.write_bytes(b"MDRNET1" + data[len(network.CHECKPOINT_MAGIC):])
        for cmd in ("extract", "eval"):
            rc = main([
                cmd, "--checkpoint", str(old),
                "--data", str(dataset_dir), "--out", str(tmp_path / cmd),
            ])
            assert rc == cli.EXIT_USAGE

    def test_truncated_checkpoint_usage_error(self, dataset_dir, run_dir, tmp_path):
        data = (run_dir / "checkpoint.mdrnet").read_bytes()
        # inside the first name length, the first name, and the last payload
        for cut in (9, 15, len(data) - 1):
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

    def test_missing_checkpoint_io_error(self, dataset_dir, tmp_path):
        rc = main([
            "extract", "--checkpoint", str(tmp_path / "nope.mdrnet"),
            "--data", str(dataset_dir), "--out", str(tmp_path / "d"),
        ])
        assert rc == cli.EXIT_IO
