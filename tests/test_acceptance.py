"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL line
(bypassing pytest's capture) so the whole gate can be read at a glance.
The synthetic benchmark at the bottom is the slow one: it trains the full
adversarial model for 25 epochs on a pinned seed and checks test-set
accuracy and retrieval mAP against thresholds validated on that same run.
"""

import time

import numpy as np
import pytest

from mdrnet import engine, evaluation, mdr, network, training, voxel
from mdrnet.engine import Adam, AdamState, Tensor, adam_step, grad_check

from conftest import gradient_suite_cases, make_tiny_lstm, scalar_convlstm_step


@pytest.fixture
def report(capsys):
    def _report(name, ok, detail=""):
        tail = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'}{tail}")
        assert ok, f"{name}{tail}"

    return _report


def test_mdr_matches_scatter_oracle(report):
    """200 random grids, every valid slice count: cell-exact equality and
    per-axis occupancy mass conservation, all in integer arithmetic."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    ks = mdr.valid_slice_counts(30)
    worst = 0
    for _ in range(200):
        arr = (rng.random((30, 30, 30)) < rng.uniform(0.05, 0.95)).astype(np.uint8)
        grid = voxel.VoxelGrid.from_array(arr)
        total = int(arr.sum())
        xs, ys, zs = np.nonzero(arr)
        for k in ks:
            n = 30 // k
            oracle = np.zeros((3 * k, 30, 30), dtype=np.int64)
            np.add.at(oracle, (zs // n, xs, ys), 1)
            np.add.at(oracle, (k + xs // n, ys, zs), 1)
            np.add.at(oracle, (2 * k + ys // n, xs, zs), 1)
            seq = mdr.compute_mdr(grid, k)
            worst = max(worst, int(np.abs(seq.slices - oracle).max()))
            for axis in range(3):
                assert int(seq.slices[axis * k : (axis + 1) * k].sum()) == total
    elapsed = time.time() - t0
    report(
        "mdr-scatter-oracle",
        worst == 0 and elapsed < 30,
        f"max cell diff {worst}, {elapsed:.1f}s",
    )


def test_encoder_shape_chain(report):
    model = training.build_model("full", 4, seed=0)
    with engine.no_grad():
        out = network.encode_slice(model.encoder, Tensor(np.zeros((1, 1, 30, 30))))
    report("encoder-shape-chain", out.shape == (1, 256, 2, 2), f"30x30 -> {out.shape}")


def test_convlstm_against_scalar_reference(report):
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        p = make_tiny_lstm(rng)
        x = rng.normal(size=(4, 2, 2))
        h0 = rng.normal(size=(4, 2, 2))
        c0 = rng.normal(size=(4, 2, 2))
        with engine.no_grad():  # one transition: a length-1 sequence from given states
            h, c = engine.convlstm(x[None, None], *p, h0[None], c0[None])
        h_ref, c_ref = scalar_convlstm_step(p, x, h0, c0)
        denom = max(np.abs(h_ref).max(), np.abs(c_ref).max(), 1.0)
        worst = max(
            worst,
            np.abs(h.data[0] - h_ref).max() / denom,
            np.abs(c.data[0] - c_ref).max() / denom,
        )

    # zero weights: gates sit at sigmoid(0) = 1/2, so the state halves
    p = make_tiny_lstm(rng)
    for t in p:
        t.data = np.zeros_like(t.data)
    c_prev = rng.normal(size=(1, 4, 2, 2))
    with engine.no_grad():
        h, c = engine.convlstm(
            rng.normal(size=(1, 4, 2, 2))[:, None], *p, np.zeros((1, 4, 2, 2)), c_prev
        )
    closed_form = np.array_equal(c.data, 0.5 * c_prev) and np.array_equal(
        h.data, 0.5 * np.tanh(0.5 * c_prev)
    )
    elapsed = time.time() - t0
    report(
        "convlstm-scalar-reference",
        worst < 1e-10 and closed_form and elapsed < 10,
        f"max rel err {worst:.2e}, closed form {'ok' if closed_form else 'bad'}, {elapsed:.1f}s",
    )


def test_gradient_suite(report):
    t0 = time.time()
    failures = []
    for name, fn, inputs in gradient_suite_cases(np.random.default_rng(31)):
        rep = grad_check(fn, inputs, tolerance=1e-4)
        if not rep.passed:
            failures.append(f"{name}: {rep.max_rel_error:.2e}")

    elapsed = time.time() - t0
    report(
        "gradient-suite",
        not failures and elapsed < 120,
        "; ".join(failures) if failures else f"all finite-difference checks ok, {elapsed:.1f}s",
    )


def test_optimizer(report):
    rng = np.random.default_rng(9)
    lr = 0.01
    g = rng.normal(size=(6, 6))
    g[np.abs(g) < 0.1] = 0.3
    p = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
    before = p.data.copy()
    adam_step([p], [g], AdamState.for_params([p]), lr)
    first_step_err = np.abs((p.data - before) + lr * np.sign(g)).max()

    opt = Adam([Tensor(np.zeros(1), requires_grad=True)], 0.01, decay=0.995)
    decay_exact = all(opt.lr_at_epoch(e) == 0.01 * 0.995**e for e in (0, 1, 7, 60))
    report(
        "adam-first-step-and-decay",
        first_step_err < lr * 1e-6 and decay_exact,
        f"first-step err {first_step_err:.2e}, decay exact {decay_exact}",
    )


def test_one_batch_overfit(report):
    """All four modes drive the generator-path loss on a fixed 8-shape batch
    below 0.01 within 500 steps.  For the adversarial modes this exercises
    the classification objective only: the alternating opponent update is
    designed to hold the loss away from zero, so it is kept out of the
    overfit probe and covered by the full benchmark instead."""
    t0 = time.time()
    shapes = []
    for i, cname in enumerate(voxel.SYNTHETIC_CLASSES):
        for j in range(2):
            grid = voxel.generate_synthetic(cname, 7000 + 10 * i + j)
            shapes.append(voxel.LabeledShape(grid, i + 1, cname, f"{cname}_{j}"))
    x, y, _ = training.prepare_inputs(shapes, 3)

    details, ok = [], True
    for mode in training.MODES:
        cfg = training.TrainConfig(mode=mode, epochs=1, seed=7)
        tr = training.Trainer(cfg, len(voxel.SYNTHETIC_CLASSES))
        loss, steps = np.inf, 0
        while steps < 500 and loss >= 0.01:
            loss, _ = tr.g_step(x, y)
            steps += 1
        ok = ok and loss < 0.01
        details.append(f"{mode}: {loss:.4f} @ {steps}")
    elapsed = time.time() - t0
    report(
        "one-batch-overfit",
        ok and elapsed < 300,
        f"{'; '.join(details)}; {elapsed:.0f}s",
    )


def test_evaluation_oracles(report):
    res = evaluation.RetrievalResult("q", ["a", "b", "c"], [True, False, True])
    ap = evaluation.average_precision(res)
    ap_ok = abs(ap - 5.0 / 6.0) < 1e-12

    rng = np.random.default_rng(12)
    sort_ok = True
    for _ in range(20):
        q = rng.normal(size=16)
        gallery = rng.normal(size=(10, 16))
        ids = [f"g{i}" for i in range(10)]
        got = evaluation.retrieve("q", q, ids, gallery, [1] * 10, 1)
        expected = sorted(
            (np.sqrt(((gallery[i] - q) ** 2).sum()), ids[i]) for i in range(10)
        )
        sort_ok = sort_ok and got.ranked_ids == [p[1] for p in expected]
    report(
        "evaluation-oracles",
        ap_ok and sort_ok,
        f"AP(R,I,R)={ap:.6f}, brute-force sort {'ok' if sort_ok else 'bad'}",
    )


def test_determinism(report, tmp_path):
    from mdrnet.cli import main

    data = tmp_path / "data"
    assert main(["dataset-synth", "--per-class", "4", "--seed", "11", "--out", str(data)]) == 0
    cfg_text = "mode = full\nepochs = 1\nbatch_size = 8\nseed = 11\n"
    checkpoints = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        out.mkdir()
        cfg = out / "config.txt"
        cfg.write_text(cfg_text)
        assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 0
        checkpoints.append((out / "checkpoint.mdrnet").read_bytes())

    extracts = []
    for name in ("d1", "d2"):
        p = tmp_path / name
        assert main([
            "extract", "--checkpoint", str(tmp_path / "r1" / "checkpoint.mdrnet"),
            "--data", str(data), "--out", str(p),
        ]) == 0
        extracts.append(p.read_bytes())
    report(
        "determinism",
        checkpoints[0] == checkpoints[1] and extracts[0] == extracts[1],
        "bit-identical checkpoints and descriptor files",
    )


def test_synthetic_benchmark(report):
    """Pinned reference run: 4 classes x 50 shapes, 75/25 split, full mode,
    25 epochs at seed 7.  On a 2-core x86-64 machine (Python 3.11.7, NumPy
    2.4.6, OpenBLAS 0.3.31) the float32 model reproduces accuracy 0.979 and
    mAP 0.945 in 79-89 s with 2 BLAS threads, and accuracy 1.000 and mAP
    0.945 in 131 s with OPENBLAS_NUM_THREADS=1.  Training is bit-deterministic
    only on the same NumPy/BLAS build and BLAS thread count."""
    t0 = time.time()
    ds = voxel.build_synthetic_dataset(list(voxel.SYNTHETIC_CLASSES), 50, 7)
    cfg = training.TrainConfig(mode="full", epochs=25, seed=7)
    tr = training.Trainer(cfg, len(ds.classes))
    train_x, train_y, _ = training.prepare_inputs(ds.subset("train"), cfg.k)
    test_x, test_y, test_ids = training.prepare_inputs(ds.subset("test"), cfg.k)
    for _ in range(cfg.epochs):
        tr.train_epoch(train_x, train_y)

    vecs = tr.extract(test_x)
    with engine.no_grad():
        logits = tr.model.head_logits(Tensor(vecs)).data
    preds = np.array([evaluation.classify(row, len(ds.classes)) for row in logits])
    acc = evaluation.accuracy(preds, test_y + 1)
    results = evaluation.leave_one_out_retrieval(test_ids, vecs, list(test_y))
    mean_ap, excluded = evaluation.mean_ap(results)
    elapsed = time.time() - t0
    report(
        "synthetic-benchmark",
        acc >= 0.85 and mean_ap >= 0.80 and excluded == 0 and elapsed < 900,
        f"accuracy {acc:.3f} (>=0.85), mAP {mean_ap:.3f} (>=0.80), {elapsed:.0f}s",
    )
