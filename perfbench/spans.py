"""In-memory span recorder that wraps mdrnet's public functions from outside.

A span is [name, start, end, parent index, attributes]. Spans nest by call
order: each wrapped call pushes itself on a stack, so a span's parent is the
innermost wrapped call that was running when it started. Spans stay in
memory until `Recorder.dump` writes them at the end of a run.

`Recorder.instrument()` patches module attributes and class methods and
restores them on exit. A module-level function is replaced in every `mdrnet`
module that holds a reference to it (`training` imports `compute_mdr` by
name, for example), so the program's own calls go through the wrapper.
Conv and fully-connected calls also wrap the backward closure of the tensor
they return, which gives their backward time and attributes it to the
parameter group whose kernel the call used.
"""
from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time

from mdrnet import engine, evaluation, mdr, network, training, voxel

CONV_GROUPS = ("enc0", "enc1", "enc2", "enc3", "lstm_x", "lstm_h")


def _nbytes(args, out):
    return {"bytes": len(out)}


def _nbytes_in(args, out):
    return {"bytes": len(args[0])}


# (owner, attribute, span name, attributes from (args, result) or None)
TRACED = [
    (engine.Tensor, "backward", "engine.backward", None),
    (network, "encode_slice", "network.encode_slice", None),
    (network, "run_convlstm", "network.run_convlstm", None),
    (network, "save_records", "network.save_records", _nbytes),
    (network, "load_records", "network.load_records", _nbytes_in),
    (network, "save_descriptors", "network.save_descriptors", _nbytes),
    (network, "load_descriptors", "network.load_descriptors", _nbytes_in),
    (training, "prepare_inputs", "training.prepare_inputs", None),
    (training.Trainer, "train_epoch", "training.train_epoch", None),
    (training.Trainer, "d_step", "training.d_step", None),
    (training.Trainer, "g_step", "training.g_step", None),
    (training.Trainer, "extract", "training.extract", None),
    (training.Model, "latent", "training.latent", None),
    (voxel, "load_dataset", "voxel.load_dataset", None),
    (voxel, "load_binvox", "voxel.load_binvox", _nbytes_in),
    (mdr, "compute_mdr", "mdr.compute_mdr", None),
    (evaluation, "leave_one_out_retrieval", "evaluation.leave_one_out_retrieval", None),
    (evaluation, "retrieve", "evaluation.retrieve", None),
    (evaluation, "mean_ap", "evaluation.mean_ap", None),
    (evaluation, "macro_pr", "evaluation.macro_pr", None),
    (evaluation, "macro_pr_csv", "evaluation.macro_pr_csv", None),
    (evaluation, "pr_csv", "evaluation.pr_csv", None),
]


def conv_work(x, kernels, stride):
    """Computed forward FLOPs and GEMM operand bytes of one engine.conv2d call.

    conv2d is one (co x K) @ (K x N) product with K = ci*kh*kw and
    N = B*ho*wo; bytes count the float64 im2col matrix, kernels and output.
    Its backward makes two products of the same size.
    """
    b, ci, h, w = x.shape if x.ndim == 4 else (1, *x.shape)
    co, _, kh, kw = kernels.shape
    k = ci * kh * kw
    n = b * (-(-h // stride)) * (-(-w // stride))
    return 2 * co * k * n, 8 * (k * n + co * k + co * n)


def _group_of(name):
    """Parameter name from Model.named_tensors() -> layer group label."""
    parts = name.split(".")
    if parts[0] != "gen":
        return "head"
    if parts[1] == "lstm":
        return {"w_x": "lstm_x", "w_h": "lstm_h"}.get(parts[2][:3], "lstm")
    return parts[1]  # enc0 .. enc3


def _patch_targets(owner, attr):
    """Every (namespace, attr) that binds the same object as owner.attr."""
    if isinstance(owner, type):
        return [(owner, attr)]
    original = getattr(owner, attr)
    return [
        (mod, name)
        for mod_name, mod in list(sys.modules.items())
        if mod_name == "mdrnet" or mod_name.startswith("mdrnet.")
        for name, value in vars(mod).items()
        if value is original
    ]


class Recorder:
    """Collects spans while `enabled`; parameter groups come from `register`."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self._stack = []
        self._groups = {}  # id(parameter Tensor) -> group label

    def register(self, model):
        """Map the identity of each parameter tensor to its layer group."""
        for name, t in model.named_tensors().items():
            self._groups[id(t)] = _group_of(name)

    # -- span bookkeeping --------------------------------------------------

    def begin(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        i = self.begin(name)
        try:
            yield
        finally:
            self.end(i)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(i)
            if attrs_of is not None:
                self.spans[i][4] = attrs_of(args, out)
            return out

        return wrapper

    def _wrap_backward(self, out, name, attrs):
        closure = out._backward
        if closure is None:
            return

        def backward(g):
            if not self.enabled:
                return closure(g)
            i = self.begin(name, attrs)
            try:
                closure(g)
            finally:
                self.end(i)

        out._backward = backward

    def _wrap_conv2d(self, fn):
        @functools.wraps(fn)
        def conv2d(x, kernels, bias=None, stride=2):
            if not self.enabled:
                return fn(x, kernels, bias, stride)
            flop, nbytes = conv_work(x, kernels, stride)
            group = self._groups.get(id(kernels), "other")
            i = self.begin("engine.conv2d", {"group": group, "flop": flop, "bytes": nbytes})
            try:
                out = fn(x, kernels, bias, stride)
            finally:
                self.end(i)
            self._wrap_backward(
                out,
                "engine.conv2d.backward",
                {"group": group, "flop": 2 * flop, "bytes": 2 * nbytes},
            )
            return out

        return conv2d

    def _wrap_fully_connected(self, fn):
        @functools.wraps(fn)
        def fully_connected(x, weight, bias):
            if not self.enabled:
                return fn(x, weight, bias)
            i = self.begin("engine.fully_connected")
            try:
                out = fn(x, weight, bias)
            finally:
                self.end(i)
            self._wrap_backward(out, "engine.fully_connected.backward", None)
            return out

        return fully_connected

    def _adam_attrs(self, args, out):
        first_param = args[0][0]
        return {"group": "head" if self._groups.get(id(first_param), "head") == "head" else "gen"}

    def _registering(self, fn):
        @functools.wraps(fn)
        def build_model(*args, **kwargs):
            model = fn(*args, **kwargs)
            self.register(model)
            return model

        return build_model

    @contextlib.contextmanager
    def instrument(self):
        """Install every wrapper for the duration of the block.

        Every model built meanwhile (`Trainer` and `Trainer.restore` call
        `training.build_model`) has its parameter groups registered.
        """
        plan = [(o, a, lambda fn, n=n, f=f: self._wrap(fn, n, f)) for o, a, n, f in TRACED]
        plan += [
            (training, "build_model", self._registering),
            (engine, "conv2d", self._wrap_conv2d),
            (engine, "fully_connected", self._wrap_fully_connected),
            (engine, "adam_step", lambda fn: self._wrap(fn, "engine.adam_step", self._adam_attrs)),
        ]
        undo = []
        try:
            for owner, attr, make in plan:
                original = getattr(owner, attr)
                wrapped = make(original)
                for ns, name in _patch_targets(owner, attr):
                    undo.append((ns, name, vars(ns)[name]))
                    setattr(ns, name, wrapped)
            yield self
        finally:
            for ns, name, original in reversed(undo):
                setattr(ns, name, original)

    def dump(self, path):
        """Write every span as JSON: [name, start_s, end_s, parent, attrs]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["name", "start_s", "end_s", "parent", "attrs"], "spans": self.spans}
        path.write_text(json.dumps(doc), encoding="utf-8")


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def by_name(spans):
    """{span name: {calls, incl_s, self_s}} over all spans."""
    table = {}
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += own
    return table


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, n_ops):
    """Per-layer metrics, each a per-operation value: {name: (value, unit)}.

    `n_ops` is the number of traced workload operations in `spans`. Times of
    leaf layers (conv, fully-connected, Adam, the backward sweep) are self
    times; `training.*_step_s`, `network.*_s` and `evaluation.*_s` are the
    inclusive wall time of those calls.
    """
    table = by_name(spans)

    def incl(name):
        return table.get(name, {}).get("incl_s", 0.0) / n_ops

    def own(name):
        return table.get(name, {}).get("self_s", 0.0) / n_ops

    def calls(name):
        return table.get(name, {}).get("calls", 0) / n_ops

    conv = {g: {"fwd_s": 0.0, "bwd_s": 0.0, "calls": 0, "flop": 0, "bytes": 0} for g in CONV_GROUPS}
    adam = {"gen": 0.0, "head": 0.0}
    nbytes = {}
    retrieve_ms = []
    for (name, start, end, _, attrs), span_self in zip(spans, self_times(spans)):
        if name in ("engine.conv2d", "engine.conv2d.backward") and attrs["group"] in conv:
            row = conv[attrs["group"]]
            row["fwd_s" if name == "engine.conv2d" else "bwd_s"] += span_self
            row["calls"] += name == "engine.conv2d"
            row["flop"] += attrs["flop"]
            row["bytes"] += attrs["bytes"]
        elif name == "engine.adam_step":
            adam[attrs["group"]] += span_self
        elif name == "evaluation.retrieve":
            retrieve_ms.append(1e3 * (end - start))
        if attrs and "bytes" in attrs and not name.startswith("engine."):
            nbytes[name] = nbytes.get(name, 0) + attrs["bytes"]

    batches = table.get("training.g_step", table.get("training.latent", {})).get("calls", 0)
    steps_s = incl("training.d_step") + incl("training.g_step")
    share_base = steps_s if steps_s > 0 else incl("bench.op")

    out = {}
    for g, row in conv.items():
        busy = row["fwd_s"] + row["bwd_s"]
        p = f"engine.conv2d.{g}."
        out[p + "fwd_s"] = (row["fwd_s"] / n_ops, "s")
        out[p + "bwd_s"] = (row["bwd_s"] / n_ops, "s")
        out[p + "calls"] = (row["calls"] / n_ops, "count")
        out[p + "gflop"] = (row["flop"] / 1e9 / n_ops, "GFLOP")
        out[p + "gbyte"] = (row["bytes"] / 1e9 / n_ops, "GB")
        out[p + "gflop_per_s"] = (row["flop"] / 1e9 / busy if busy > 0 else 0.0, "GFLOP/s")
    for family, members in (("lstm", ("lstm_x", "lstm_h")), ("enc", ("enc0", "enc1", "enc2", "enc3"))):
        n_calls = sum(conv[g]["calls"] for g in members)
        busy = sum(conv[g]["fwd_s"] + conv[g]["bwd_s"] for g in members) / n_ops
        out[f"engine.conv2d.{family}.calls_per_batch"] = (n_calls / batches if batches else 0.0, "count")
        out[f"engine.conv2d.{family}.step_share"] = (busy / share_base if share_base > 0 else 0.0, "ratio")
    out["engine.fully_connected.head.fwd_s"] = (own("engine.fully_connected"), "s")
    out["engine.fully_connected.head.bwd_s"] = (own("engine.fully_connected.backward"), "s")
    out["engine.fully_connected.head.calls"] = (calls("engine.fully_connected"), "count")
    out["engine.adam_step.gen_s"] = (adam["gen"] / n_ops, "s")
    out["engine.adam_step.head_s"] = (adam["head"] / n_ops, "s")
    out["engine.backward_s"] = (own("engine.backward"), "s")

    out["training.d_step_s"] = (incl("training.d_step"), "s")
    out["training.g_step_s"] = (incl("training.g_step"), "s")
    latent_calls = table.get("training.latent", {}).get("calls", 0)
    out["training.latent.calls_per_batch"] = (latent_calls / batches if batches else 0.0, "count")

    out["network.encode_slice_s"] = (incl("network.encode_slice"), "s")
    out["network.run_convlstm_s"] = (incl("network.run_convlstm"), "s")
    for fn in ("save_records", "load_records", "save_descriptors", "load_descriptors"):
        out[f"network.{fn}.s"] = (incl(f"network.{fn}"), "s")
        out[f"network.{fn}.bytes"] = (nbytes.get(f"network.{fn}", 0) / n_ops, "bytes")

    out["voxel.load_binvox.s"] = (incl("voxel.load_binvox"), "s")
    out["voxel.load_binvox.calls"] = (calls("voxel.load_binvox"), "count")
    out["voxel.load_binvox.bytes"] = (nbytes.get("voxel.load_binvox", 0) / n_ops, "bytes")
    out["mdr.compute_mdr.s"] = (incl("mdr.compute_mdr"), "s")
    out["mdr.compute_mdr.calls"] = (calls("mdr.compute_mdr"), "count")

    out["evaluation.retrieve.ms_p50"] = (_quantile(retrieve_ms, 50), "ms")
    out["evaluation.retrieve.ms_p99"] = (_quantile(retrieve_ms, 99), "ms")
    for fn in ("leave_one_out_retrieval", "mean_ap", "macro_pr", "pr_csv"):
        out[f"evaluation.{fn}_s"] = (incl(f"evaluation.{fn}"), "s")
    out["trace.spans"] = (len(spans) / n_ops, "count")
    return out
