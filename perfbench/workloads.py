"""The benchmark's workloads: set-up, one timed operation, and output checks.

Each workload drives the public calls that the matching `mdrnet`
subcommand makes, on inputs generated from the seed:

  train-full, train-cnn_adv   `mdrnet train`: one operation is one
      `Trainer.train_epoch` plus the checkpoint and metrics.csv writes that
      follow every epoch. The acceptance dataset: 4 synthetic classes x 50
      shapes (152 train shapes), batch 32, k=3.
  extract   `mdrnet extract --split all`: restore a `full` checkpoint, load
      4 x 16 binvox shapes from disk, compute the slice stacks, run the
      forward-only `Trainer.extract` (one batch of 64) and write the DDSD
      file.
  retrieve  `mdrnet eval --descriptors`: load a DDSD file of 400 1024-d
      descriptors in 40 classes, then leave-one-out retrieval, mAP, the
      macro precision-recall curve and one curve per query.

Extract and retrieve operations take one to two seconds, so a run holds
many of them and their median is steady on a shared host; each of the two
runs one untimed warm-up operation first. A train operation is a whole
epoch and has no warm-up.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mdrnet import evaluation, network, training, voxel


@dataclass(frozen=True)
class Size:
    train_per_class: int
    batch_size: int
    extract_per_class: int
    retrieve_n: int
    retrieve_classes: int


SIZES = {
    "full": Size(train_per_class=50, batch_size=32, extract_per_class=16,
                 retrieve_n=400, retrieve_classes=40),
    # every code path at a few seconds per workload, for the self-test
    "tiny": Size(train_per_class=4, batch_size=4, extract_per_class=2,
                 retrieve_n=40, retrieve_classes=4),
}

# Spread of the synthetic retrieval clusters: gives a mAP near 0.7, so
# rankings mix relevant and irrelevant items as real descriptors do.
RETRIEVE_SIGMA = 3.0


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def write_atomic(path: Path, data: bytes | str):
    """Temp file then rename, as the CLI writes its outputs."""
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, bytes):
        tmp.write_bytes(data)
    else:
        tmp.write_text(data, encoding="utf-8")
    tmp.rename(path)


class SetupClock:
    """Time of one set-up, less the time it spends writing its inputs to disk.

    On the 2-vCPU VM that measured the baseline, writing the train dataset's
    200 files took 0.1 s at one time and 0.3 s half an hour later, while the
    rest of the set-up held within a few percent; timing the writes would
    make `setup_s` follow the shared disk. Serialising the inputs stays
    timed, and so does reading them back.
    """

    def __init__(self):
        self.start = time.perf_counter()
        self.paused_s = 0.0

    @contextlib.contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - t0

    def elapsed(self):
        return time.perf_counter() - self.start - self.paused_s


class Workload:
    """Set-up, one timed operation, and checks; subclasses fill these in."""

    rate_name = ""  # the named throughput metric this workload reports
    warmup_ops = 0  # untimed operations before the timed loop

    def clock(self, steps):
        """Context that records (batch length, seconds) of sub-steps into `steps`."""
        return contextlib.nullcontext()

    def final_check(self, state):
        """{index of a checked output: problem}, from checks made after timing."""
        return {}


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainState:
    trainer: training.Trainer
    x: np.ndarray
    y: np.ndarray
    out: Path
    g_losses: list = field(default_factory=list)
    first_checkpoint_sha256: str = ""


class Train(Workload):
    """Closed-loop training epochs in one mode."""

    rate_name = "train_shapes_per_s"

    def __init__(self, mode):
        self.mode = mode

    def setup(self, seed, work: Path, size: Size, clock: SetupClock):
        data = work / "data"
        synth = voxel.build_synthetic_dataset(
            list(voxel.SYNTHETIC_CLASSES), size.train_per_class, seed
        )
        with clock.paused():
            voxel.write_dataset(synth, data)
        dataset = voxel.load_dataset(data / "manifest.tsv")
        config = training.TrainConfig(mode=self.mode, batch_size=size.batch_size, seed=seed)
        trainer = training.Trainer(config, len(dataset.classes))
        x, y, _ = training.prepare_inputs(dataset.subset("train"), config.k)
        out = work / "run"
        out.mkdir()
        return TrainState(trainer, x, y, out)

    @contextlib.contextmanager
    def clock(self, steps):
        """Append (batch length, seconds) of each d+g step to `steps`."""
        cls = training.Trainer
        d_step, g_step = cls.d_step, cls.g_step
        pending = [0.0]

        def timed_d_step(trainer, x_batch, y_batch=None):
            t0 = time.perf_counter()
            try:
                return d_step(trainer, x_batch, y_batch)
            finally:
                pending[0] = time.perf_counter() - t0

        def timed_g_step(trainer, x_batch, y_batch, lr_gen=None):
            t0 = time.perf_counter()
            try:
                return g_step(trainer, x_batch, y_batch, lr_gen)
            finally:
                steps.append((len(x_batch), pending[0] + time.perf_counter() - t0))
                pending[0] = 0.0

        cls.d_step, cls.g_step = timed_d_step, timed_g_step
        try:
            yield
        finally:
            cls.d_step, cls.g_step = d_step, g_step

    def op(self, st: TrainState):
        m = st.trainer.train_epoch(st.x, st.y)
        checkpoint = st.trainer.save()
        write_atomic(st.out / "checkpoint.mdrnet", checkpoint)
        write_atomic(st.out / "metrics.csv", training.metrics_csv(st.trainer.metrics))
        return m, checkpoint

    def items(self, st, out):
        return len(st.x)

    def check(self, st: TrainState, out):
        m, checkpoint = out
        st.g_losses.append(m.g_loss)
        if not st.first_checkpoint_sha256:
            st.first_checkpoint_sha256 = sha256(checkpoint)
        if not (math.isfinite(m.g_loss) and math.isfinite(m.d_loss)):
            return [f"epoch {m.epoch}: non-finite loss g={m.g_loss} d={m.d_loss}"]
        return []

    def fingerprints(self, st: TrainState):
        return {
            "checkpoint_sha256_after_epoch0": st.first_checkpoint_sha256,
            "g_loss_by_epoch": st.g_losses,
            "final_g_loss": st.g_losses[-1] if st.g_losses else None,
        }


# ---------------------------------------------------------------------------
# extraction


@dataclass
class ExtractState:
    checkpoint: Path
    manifest: Path
    out: Path
    descriptors_sha256: str = ""


class Extract(Workload):
    """Closed-loop `mdrnet extract` passes over binvox files on disk."""

    rate_name = "extract_shapes_per_s"
    warmup_ops = 1

    def setup(self, seed, work: Path, size: Size, clock: SetupClock):
        data = work / "data"
        synth = voxel.build_synthetic_dataset(
            list(voxel.SYNTHETIC_CLASSES), size.extract_per_class, seed
        )
        with clock.paused():
            manifest = voxel.write_dataset(synth, data)
        trainer = training.Trainer(training.TrainConfig(mode="full", seed=seed), len(synth.classes))
        checkpoint = work / "checkpoint.mdrnet"
        saved = trainer.save()
        with clock.paused():
            write_atomic(checkpoint, saved)
        return ExtractState(checkpoint, manifest, work / "descriptors.ddsd")

    def op(self, st: ExtractState):
        trainer = training.Trainer.restore(st.checkpoint.read_bytes())
        dataset = voxel.load_dataset(st.manifest)
        x, _, ids = training.prepare_inputs(dataset.shapes, trainer.model.k)
        vecs = trainer.extract(x)
        data = network.save_descriptors(ids, vecs)
        write_atomic(st.out, data)
        return ids, vecs, data

    def items(self, st, out):
        return len(out[0])

    def check(self, st: ExtractState, out):
        ids, vecs, data = out
        problems = []
        if not np.isfinite(vecs).all():
            problems.append("non-finite descriptor values")
        back_ids, back_vecs = network.load_descriptors(data)
        if back_ids != ids or back_vecs.shape != vecs.shape or back_vecs.tobytes() != vecs.tobytes():
            problems.append("DDSD file does not round-trip bit-for-bit")
        digest = sha256(data)
        if st.descriptors_sha256 and digest != st.descriptors_sha256:
            problems.append("descriptors differ from the first pass")
        st.descriptors_sha256 = st.descriptors_sha256 or digest
        return problems

    def fingerprints(self, st: ExtractState):
        return {
            "checkpoint_sha256": sha256(st.checkpoint.read_bytes()),
            "descriptors_sha256": st.descriptors_sha256,
        }


# ---------------------------------------------------------------------------
# retrieval


@dataclass
class RetrieveState:
    path: Path
    ids: list
    vecs: np.ndarray
    label_of: dict
    maps: list = field(default_factory=list)
    curves_sha256: str = ""
    reference_map: float | None = None


def reference_map(ids, vecs, labels):
    """Leave-one-out Euclidean mAP by NumPy argsort, ties broken by id.

    Distances come from the Gram matrix, not from the program's per-query
    norm, so the reference shares neither distance nor ranking code with it.
    """
    n = len(ids)
    id_rank = np.empty(n, dtype=np.int64)
    id_rank[np.argsort(np.array(ids), kind="stable")] = np.arange(n)
    labels = np.asarray(labels)
    sq = np.einsum("ij,ij->i", vecs, vecs)
    dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (vecs @ vecs.T), 0.0))
    aps = []
    for i in range(n):
        others = np.arange(n) != i
        order = np.lexsort((id_rank[others], dist[i, others]))
        relevant = (labels[others] == labels[i])[order]
        if not relevant.any():
            continue
        ranks = np.flatnonzero(relevant) + 1
        aps.append(np.mean(np.arange(1, len(ranks) + 1) / ranks))
    return float(np.mean(aps))


class Retrieve(Workload):
    """Closed-loop `mdrnet eval --descriptors` passes over one DDSD file."""

    rate_name = "retrieval_queries_per_s"
    warmup_ops = 1

    def setup(self, seed, work: Path, size: Size, clock: SetupClock):
        rng = np.random.default_rng([seed, 0xE7A1])
        n, n_classes = size.retrieve_n, size.retrieve_classes
        labels = rng.permutation(np.arange(n) % n_classes) + 1
        centers = rng.normal(size=(n_classes, network.DESCRIPTOR_DIM))
        vecs = centers[labels - 1] + RETRIEVE_SIGMA * rng.normal(size=(n, network.DESCRIPTOR_DIM))
        ids = [f"c{label:02d}_{i:04d}" for i, label in enumerate(labels)]
        path = work / "descriptors.ddsd"
        data = network.save_descriptors(ids, vecs)
        with clock.paused():
            work.mkdir(parents=True)
            write_atomic(path, data)
        return RetrieveState(path, ids, vecs, dict(zip(ids, labels.tolist())))

    def op(self, st: RetrieveState):
        ids, vecs = network.load_descriptors(st.path.read_bytes())
        labels = [st.label_of[i] for i in ids]
        results = evaluation.leave_one_out_retrieval(ids, vecs, labels)
        mean_ap, _ = evaluation.mean_ap(results)
        macro = evaluation.macro_pr_csv(results)
        curves = [evaluation.pr_csv(r) for r in results if any(r.relevant)]
        return ids, vecs, mean_ap, macro, curves

    def items(self, st, out):
        return len(out[0])

    def check(self, st: RetrieveState, out):
        ids, vecs, mean_ap, macro, curves = out
        problems = []
        if ids != st.ids or vecs.shape != st.vecs.shape or vecs.tobytes() != st.vecs.tobytes():
            problems.append("DDSD file does not round-trip bit-for-bit")
        digest = sha256("".join([macro, *curves]).encode("utf-8"))
        if st.curves_sha256 and digest != st.curves_sha256:
            problems.append("precision-recall curves differ from the first pass")
        st.curves_sha256 = st.curves_sha256 or digest
        st.maps.append(mean_ap)
        return problems

    def final_check(self, st: RetrieveState):
        """{checked output index: problem} for every mAP off the reference.

        The reference is computed once, after the timed loop.
        """
        ref = reference_map(st.ids, st.vecs, [st.label_of[i] for i in st.ids])
        st.reference_map = ref
        return {
            k: f"mAP {m!r} != reference {ref!r}"
            for k, m in enumerate(st.maps)
            if abs(m - ref) > 1e-12
        }

    def fingerprints(self, st: RetrieveState):
        return {
            "descriptors_sha256": sha256(st.path.read_bytes()),
            "pr_curves_sha256": st.curves_sha256,
            "map": st.maps[0] if st.maps else None,
            "reference_map": st.reference_map,
        }


WORKLOADS = {
    "train-full": Train("full"),
    "train-cnn_adv": Train("cnn_adv"),
    "extract": Extract(),
    "retrieve": Retrieve(),
}
