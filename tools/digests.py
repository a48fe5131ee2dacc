"""Print the byte-identity digests of a checkout: training checkpoints and CLI outputs.

Run from the repository root:

    PYTHONPATH=src python3 tools/digests.py

It pins one BLAS thread (before NumPy loads), prints the NumPy and BLAS
versions and the dtype of the model's parameters, then the first 8 hex
digits of the SHA-256 of

- the epoch-0 and 2-epoch checkpoints of each mode, trained on every shape
  of `build_synthetic_dataset(SYNTHETIC_CLASSES, 8, 3)` with batch size 8
  and seed 7, and what `Trainer.restore` of the 2-epoch checkpoint saves
  again, which must equal it (the only digest that covers restored Adam
  moments);
- the DDSD bytes of `Trainer.extract` over one batch of 64 shapes
  (`build_synthetic_dataset(SYNTHETIC_CLASSES, 16, 3)`, all splits, a
  seed-7 `full` model): 576 slices per encoder conv, so `enc0`-`enc2`
  each run several row blocks;
- every file of the CLI recipe: `dataset-synth --per-class 8 --seed 3`,
  `train` (`mode = full`, `seed = 7`, `epochs = 1`, `batch_size = 8`),
  `extract` on the test split and with `--split all`, and
  `eval --checkpoint`;
- the files of `eval --descriptors` on a table of 400 shapes
  (`dataset-synth --per-class 100 --seed 3`) whose 1024-d descriptors,
  drawn from seed 5 around one centre per class, hold exact duplicates and
  near-duplicates one ulp (`nextafter`) or 1e-9 apart, under permuted rows:
  the ties that retrieval ranking must break as the per-pair norm does.

The `pr/*.csv` files are hashed concatenated in sorted path order.

Two checkouts whose outputs are byte-identical print the same digests on
the same NumPy/BLAS build; other builds round differently. Everything is
written into a temporary directory that is removed afterwards.
"""
import hashlib
import os
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before NumPy loads BLAS

import numpy as np  # noqa: E402

from mdrnet import cli, network, training, voxel  # noqa: E402

RECIPE_CONFIG = "mode = full\nseed = 7\nepochs = 1\nbatch_size = 8\n"


def short(data):
    return hashlib.sha256(data).hexdigest()[:8]


def checkpoint_digests():
    dataset = voxel.build_synthetic_dataset(voxel.SYNTHETIC_CLASSES, 8, 3)
    x, y, _ = training.prepare_inputs(dataset.shapes, 3)
    for mode in training.MODES:
        trainer = training.Trainer(training.TrainConfig(mode=mode, batch_size=8, seed=7), len(dataset.classes))
        initial = short(trainer.save())
        for _ in range(2):
            trainer.train_epoch(x, y)
        data = trainer.save()
        restored = short(training.Trainer.restore(data).save())
        print(f"checkpoint {mode:8s} epoch 0 {initial}  2 epochs {short(data)}  restored {restored}")


def extract_digest():
    dataset = voxel.build_synthetic_dataset(voxel.SYNTHETIC_CLASSES, 16, 3)
    x, _, ids = training.prepare_inputs(dataset.shapes, 3)
    trainer = training.Trainer(training.TrainConfig(mode="full", seed=7), len(dataset.classes))
    vecs = trainer.extract(x)
    print(f"extract  {len(ids)} shapes in one batch {short(network.save_descriptors(ids, vecs))}")


def run(argv):
    with redirect_stdout(StringIO()):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        sys.exit(f"mdrnet {' '.join(argv)} exited {code}")


def eval_digests(ev):
    curves = b"".join(p.read_bytes() for p in sorted((ev / "pr").rglob("*.csv")))
    return (("summary.txt", short((ev / "summary.txt").read_bytes())),
            ("macro_pr.csv", short((ev / "macro_pr.csv").read_bytes())),
            ("pr/*.csv", short(curves)))


def tie_table(ids, labels):
    """Class-clustered descriptors with exact and one-ulp/1e-9 near duplicates."""
    rng = np.random.default_rng(5)
    centres = rng.normal(size=(max(labels), network.DESCRIPTOR_DIM))
    vecs = centres[np.asarray(labels) - 1] + 3.0 * rng.normal(size=(len(ids), network.DESCRIPTOR_DIM))
    vecs[1:10] = vecs[0]
    for i in range(20, 80, 3):
        vecs[i + 1] = vecs[i + 2] = vecs[i]
        vecs[i + 1, i] = np.nextafter(vecs[i, i], np.inf)
        vecs[i + 2, i] += 1e-9
    rows = rng.permutation(len(ids))
    return [ids[i] for i in rows], vecs[rows]


def descriptor_eval_digests(root):
    data, ev = root / "data400", root / "eval400"
    run(["dataset-synth", "--per-class", "100", "--seed", "3", "--out", str(data)])
    shapes = voxel.load_dataset(data / "manifest.tsv").shapes
    ids, vecs = tie_table([s.shape_id for s in shapes], [s.label for s in shapes])
    table = root / "ties.ddsd"
    table.write_bytes(network.save_descriptors(ids, vecs))
    run(["eval", "--descriptors", str(table), "--data", str(data), "--out", str(ev)])
    for label, digest in eval_digests(ev):
        print(f"eval400 {label:12s} {digest}")


def recipe_digests(root):
    data, run_dir, ev = root / "data", root / "run", root / "eval"
    config = root / "config.txt"
    config.write_text(RECIPE_CONFIG)
    checkpoint = run_dir / "checkpoint.mdrnet"
    run(["dataset-synth", "--per-class", "8", "--seed", "3", "--out", str(data)])
    run(["train", "--config", str(config), "--data", str(data), "--out", str(run_dir)])
    for split, name in (("test", "test.ddsd"), ("all", "all.ddsd")):
        run(["extract", "--checkpoint", str(checkpoint), "--data", str(data), "--split", split,
             "--out", str(root / name)])
    run(["eval", "--checkpoint", str(checkpoint), "--data", str(data), "--out", str(ev)])
    for label, digest in (("checkpoint", short(checkpoint.read_bytes())),
                          ("test.ddsd", short((root / "test.ddsd").read_bytes())),
                          ("all.ddsd", short((root / "all.ddsd").read_bytes())),
                          *eval_digests(ev)):
        print(f"recipe {label:12s} {digest}")


def main():
    build = cli.platform_record()
    dtype = np.dtype(network.PARAM_DTYPE)
    print(f"numpy {build['numpy']}; blas {build['blas']} {build['blas_version']}; parameters {dtype}")
    checkpoint_digests()
    extract_digest()
    with tempfile.TemporaryDirectory() as tmp:
        recipe_digests(Path(tmp))
        descriptor_eval_digests(Path(tmp))


if __name__ == "__main__":
    main()
