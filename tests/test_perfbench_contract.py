"""What the benchmark harness in `perfbench/` relies on in mdrnet.

The harness patches mdrnet from outside, by attribute and parameter name,
so a rename in mdrnet breaks it without an import error. These tests only
read `perfbench/`; they pin the names it patches, the parameter names it
groups layers by, and the d+g step clock that gives `op_p50_s`, and they run
every workload at its tiny size.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

from mdrnet import engine, training, voxel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402


def test_traced_attributes_exist():
    for owner, attr, name, _ in spans.TRACED:
        assert callable(getattr(owner, attr, None)), name
    for owner, attr in ((training, "build_model"), (engine, "conv2d"),
                        (engine, "fully_connected"), (engine, "adam_step")):
        assert callable(getattr(owner, attr, None)), attr
    originals = [getattr(owner, attr) for owner, attr, _, _ in spans.TRACED]
    with spans.Recorder().instrument():
        pass
    assert originals == [getattr(owner, attr) for owner, attr, _, _ in spans.TRACED]


def test_kernel_groups_of_full_model():
    names = training.build_model("full", 4, seed=0).named_tensors()
    groups = {name: spans._group_of(name) for name in names}
    assert groups["gen.lstm.w_x"] == "lstm_x"
    assert groups["gen.lstm.w_h"] == "lstm_h"
    assert [groups[f"gen.enc{i}.w"] for i in range(4)] == ["enc0", "enc1", "enc2", "enc3"]
    assert set(spans.CONV_GROUPS) <= set(groups.values())


def test_train_clock_times_every_batch():
    synth = voxel.build_synthetic_dataset(list(voxel.SYNTHETIC_CLASSES), 2, 1)
    x, y, _ = training.prepare_inputs(synth.shapes, 3)
    trainer = training.Trainer(training.TrainConfig(mode="cnn_adv", batch_size=3, seed=1), 4)
    d_step, g_step = training.Trainer.d_step, training.Trainer.g_step
    steps = []
    with workloads.Train("cnn_adv").clock(steps):
        trainer.train_epoch(x, y)
    assert [n for n, _ in steps] == [3, 3, 2]
    assert all(np.isfinite(s) and s > 0 for _, s in steps)
    assert (training.Trainer.d_step, training.Trainer.g_step) == (d_step, g_step)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_at_tiny_size(name, tmp_path):
    """Set-up, an untraced and a traced operation with their checks, and the
    final check, in-process, as `perfbench/run.py --trace 1` runs them."""
    wl = workloads.WORKLOADS[name]
    recorder = spans.Recorder()
    steps = []
    with recorder.instrument(), wl.clock(steps):
        state = wl.setup(1, tmp_path / "work", workloads.SIZES["tiny"], workloads.SetupClock())
        for traced in (False, True):
            recorder.enabled = traced
            try:
                out = wl.op(state)
            finally:
                recorder.enabled = False
            assert wl.items(state, out) > 0
            assert wl.check(state, out) == [], traced
        assert wl.final_check(state) == {}
    assert recorder.spans


def test_encoder_convs_attributed_per_layer(tmp_path):
    """Each encoder conv's forward and its backward closure land in that
    layer's group: one call per batch and a backward time above zero."""
    wl = workloads.WORKLOADS["train-cnn_adv"]
    recorder = spans.Recorder()
    with recorder.instrument():
        state = wl.setup(1, tmp_path / "work", workloads.SIZES["tiny"], workloads.SetupClock())
        recorder.enabled = True
        try:
            with recorder.span("bench.op"):
                wl.op(state)
        finally:
            recorder.enabled = False
    batches = spans.by_name(recorder.spans)["training.g_step"]["calls"]
    assert batches == -(-len(state.x) // workloads.SIZES["tiny"].batch_size)
    metrics = spans.layer_metrics(recorder.spans, 1)
    for layer in ("enc0", "enc1", "enc2", "enc3"):
        assert metrics[f"engine.conv2d.{layer}.calls"][0] == batches, layer
        assert metrics[f"engine.conv2d.{layer}.bwd_s"][0] > 0, layer


def test_restored_model_convs_attributed_per_layer(tmp_path):
    """The model `extract` restores from its checkpoint is registered: each
    encoder conv lands in its layer's group, one call per batch. Set-up runs
    uninstrumented, so no model built there is registered."""
    wl = workloads.WORKLOADS["extract"]
    state = wl.setup(1, tmp_path / "work", workloads.SIZES["tiny"], workloads.SetupClock())
    recorder = spans.Recorder()
    with recorder.instrument():
        recorder.enabled = True
        try:
            with recorder.span("bench.op"):
                ids, _, _ = wl.op(state)
        finally:
            recorder.enabled = False
    batches = spans.by_name(recorder.spans)["training.latent"]["calls"]
    assert batches == -(-len(ids) // 64)
    metrics = spans.layer_metrics(recorder.spans, 1)
    for layer in ("enc0", "enc1", "enc2", "enc3"):
        assert metrics[f"engine.conv2d.{layer}.calls"][0] == batches, layer
