"""Command-line frontend: dataset synthesis, slicing, training, evaluation.

Exit codes: 0 success, 2 usage/config error, 3 numerical failure, 4 I/O.
All randomness flows from explicit --seed / config values; the
environment is never consulted for it, only recorded in run_manifest.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, evaluation, network, training, voxel
from .evaluation import EvaluationError
from .mdr import MdrError, compute_mdr, export_mdr_text, export_slice_pgm, slice_name
from .network import NetworkError
from .training import ConfigError, TrainingError
from .voxel import BinvoxError, DatasetError, write_atomic

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# the package's typed errors for bad input; any other exception is a bug
# and keeps its traceback
USAGE_ERRORS = (ConfigError, DatasetError, BinvoxError, MdrError, NetworkError, EvaluationError)


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def cmd_dataset_synth(args):
    classes = [c.strip() for c in args.classes.split(",") if c.strip()]
    dataset = voxel.build_synthetic_dataset(classes, args.per_class, args.seed)
    manifest = voxel.write_dataset(dataset, args.out)
    n_train = sum(1 for p in dataset.split.values() if p == "train")
    print(f"wrote {len(dataset.shapes)} shapes ({n_train} train / "
          f"{len(dataset.shapes) - n_train} test) to {manifest}")


def cmd_mdr_export(args):
    grid = voxel.load_binvox(Path(args.infile).read_bytes())
    seq = compute_mdr(grid, args.k)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.infile).stem
    write_atomic(out_dir / f"{stem}.mdr", export_mdr_text(seq))
    if args.images:
        for i in range(3 * seq.k):
            name = f"{stem}_{slice_name(seq, i)}.pgm"
            write_atomic(out_dir / name, export_slice_pgm(seq, i))
    print(f"wrote MDR (k={seq.k}) for {stem} to {out_dir}")


def _load_dataset(path):
    path = Path(path)
    manifest = path / "manifest.tsv" if path.is_dir() else path
    return voxel.load_dataset(manifest)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def platform_record():
    """What decides a run's bits besides its config: interpreter, NumPy,
    BLAS build, BLAS thread settings and the CPUs this process may use."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def cmd_train(args):
    config = training.parse_config(Path(args.config).read_bytes())
    dataset = _load_dataset(args.data)
    trainer = training.Trainer(config, len(dataset.classes))
    train_x, train_y, _ = training.prepare_inputs(dataset.subset("train"), config.k)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = out_dir / "checkpoint.mdrnet"
    metrics_path = out_dir / "metrics.csv"
    manifest = {
        "config": training.format_config(config).splitlines(),
        "seed": config.seed,
        "dataset_manifest": str(args.data),
        "checkpoint": str(checkpoint_path),
        "metrics": str(metrics_path),
        "tool_version": __version__,
        "platform": platform_record(),
    }
    write_atomic(out_dir / "run_manifest.json", json.dumps(manifest, indent=2) + "\n")

    for _ in range(config.epochs):
        m = trainer.train_epoch(train_x, train_y)
        write_atomic(checkpoint_path, trainer.save())
        write_atomic(metrics_path, training.metrics_csv(trainer.metrics))
        print(
            f"epoch {m.epoch}: g_loss={m.g_loss:.4f} d_loss={m.d_loss:.4f} "
            f"train_acc={m.train_acc:.4f}"
        )
    if config.epochs == 0:
        write_atomic(checkpoint_path, trainer.save())
        write_atomic(metrics_path, training.metrics_csv(trainer.metrics))
    final_acc = trainer.metrics[-1].train_acc if trainer.metrics else float("nan")
    print(f"final train accuracy: {final_acc:.4f}")


def _restore_trainer(checkpoint):
    return training.Trainer.restore(Path(checkpoint).read_bytes())


def cmd_extract(args):
    trainer = _restore_trainer(args.checkpoint)
    dataset = _load_dataset(args.data)
    shapes = dataset.subset(args.split) if args.split != "all" else dataset.shapes
    x, _, ids = training.prepare_inputs(shapes, trainer.model.k)
    vecs = trainer.extract(x)
    write_atomic(Path(args.out), network.save_descriptors(ids, vecs))
    print(f"wrote {len(ids)} descriptors to {args.out}")


def cmd_eval(args):
    if not args.checkpoint and not args.descriptors:
        raise CliError("eval needs --checkpoint and/or --descriptors", EXIT_USAGE)
    dataset = _load_dataset(args.data)
    test_shapes = dataset.subset("test")
    labels = {s.shape_id: s.label for s in dataset.shapes}
    summary = {}

    trainer = _restore_trainer(args.checkpoint) if args.checkpoint else None
    if trainer is not None and len(dataset.classes) != trainer.model.n_classes:
        raise CliError(
            f"checkpoint was trained for {trainer.model.n_classes} classes, "
            f"dataset has {len(dataset.classes)}",
            EXIT_USAGE,
        )

    if args.descriptors:
        ids, vecs = network.load_descriptors(Path(args.descriptors).read_bytes())
        missing = [i for i in ids if i not in labels]
        if missing:
            raise CliError(f"descriptor ids not in dataset: {missing[:5]}", EXIT_USAGE)
    else:
        x, _, ids = training.prepare_inputs(test_shapes, trainer.model.k)
        vecs = trainer.extract(x)

    id_labels = np.array([labels[i] for i in ids])
    if trainer is not None:
        logits = trainer.model.head_logits(vecs).data
        preds = np.array(
            [evaluation.classify(l, trainer.model.n_classes) for l in logits]
        )
        summary["accuracy"] = evaluation.accuracy(preds, id_labels)

    results = evaluation.leave_one_out_retrieval(ids, vecs, list(id_labels))
    mean_ap, excluded = evaluation.mean_ap(results)
    summary["map"] = mean_ap
    summary["excluded_queries"] = excluded
    if excluded:
        print(f"warning: {excluded} queries had no relevant gallery item")

    out_dir = Path(args.out)
    ranks_dir = out_dir / "pr"
    ranks_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "macro_pr.csv", evaluation.macro_pr_csv(results))
    for r in results:
        if any(r.relevant):
            path = ranks_dir / f"{r.query_id}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(path, evaluation.pr_csv(r))
    write_atomic(out_dir / "summary.txt", evaluation.summary_text(summary))
    for k, v in summary.items():
        print(f"{k} = {v}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mdrnet",
        description="Volumetric shape descriptors from dense slice sequences",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dataset-synth", help="generate a synthetic voxel dataset")
    p.add_argument("--classes", default=",".join(voxel.SYNTHETIC_CLASSES))
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dataset_synth)

    p = sub.add_parser("mdr-export", help="export slice sequences for one shape")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--images", action="store_true")
    p.set_defaults(func=cmd_mdr_export)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="write shape descriptors for a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "test", "all"), default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("eval", help="classification and retrieval metrics")
    p.add_argument("--checkpoint")
    p.add_argument("--descriptors")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def _fail(error, code):
    print(f"error: {error}", file=sys.stderr)
    return code


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except CliError as e:
        return _fail(e, e.code)
    except USAGE_ERRORS as e:
        return _fail(e, EXIT_USAGE)
    except TrainingError as e:
        return _fail(e, EXIT_NUMERIC)
    except OSError as e:
        return _fail(e, EXIT_IO)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
