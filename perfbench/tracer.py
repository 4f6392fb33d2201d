"""Outside-in tracer: times memmeter's layers by wrapping their public functions.

Nothing in memmeter changes. While installed, the tracer replaces each
traced function at every place it is bound -- `measurer` imports
`rotated_batch`, `SGD` and friends by name, `layers` reaches `T.conv2d`
through the module, `losses` imports `rotate_pixels` at call time -- by
scanning every loaded `memmeter` module for the original object. Methods
are patched on their class. The backward pass is timed by wrapping the
`_backward` closure of each node an op returns. Every patch is undone
on exit.

A span is [name, start, end, parent span index, tag], where the tag is
the episode or operation in progress. Spans stay in memory until the run
ends. `layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import json
import pickle
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Engine ops whose forward and backward are timed; together they are the
# "op" time that engine.step.dispatch_share compares against a step.
TENSOR_OPS = ("add", "sub", "mul", "matmul", "relu", "sigmoid", "reshape", "mean", "tensor_sum", "conv2d", "maxpool2")
LOSS_OPS = ("softmax_cross_entropy",)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.tag = ""
        self._stack = []
        self._patches = []

    # --- spans -------------------------------------------------------------

    def wrap(self, name, fn, *, before=None, after=None, backward=None, tag=None):
        """`fn` recorded as a span. `name` may be a function of the call's args.

        `before(args)` and `after(args, result)` run outside the span;
        `backward` names the span of the returned node's backward closure;
        `tag(args)` sets the tag for the span and everything under it.
        """
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            outer_tag = tracer.tag
            if tag is not None:
                tracer.tag = tag(args)
            record = [name(args) if callable(name) else name, 0.0, 0.0,
                      tracer._stack[-1] if tracer._stack else -1, tracer.tag]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
                tracer.tag = outer_tag
            if after is not None:
                after(args, result)
            if backward is not None and result._backward is not None:
                result._backward = tracer.wrap(backward, result._backward)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, name, **hooks):
        """Replace `module.attr` wherever a memmeter module binds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **hooks)
        sites = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "memmeter" or mod_name.startswith("memmeter.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                    sites += 1
        if sites == 0:
            raise RuntimeError(f"no binding site found for {module.__name__}.{attr}")

    def patch_method(self, cls, attr, name, **hooks):
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], **hooks))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self):
        """Patch memmeter's layers; `restore` undoes it."""
        from memmeter import analysis, attributes, data, measurer, metrics, predictor
        from memmeter.engine import checkpoint, losses, machine, optim, tensor

        counts = self.counts

        def conv_cost(args, out):
            x, w = np.shape(getattr(args[0], "data", args[0])), np.shape(getattr(args[1], "data", args[1]))
            n, f, oh, ow = out.data.shape
            counts["engine.conv2d.flops"] += 2 * n * f * w[1] * w[2] * w[3] * oh * ow
            counts["engine.conv2d.bytes"] += 8 * (int(np.prod(x)) + int(np.prod(w)) + f + out.data.size)

        def matmul_cost(args, out):
            counts["engine.matmul.flops"] += 2 * out.data.size * np.shape(getattr(args[0], "data", args[0]))[1]

        cost = {"conv2d": conv_cost, "matmul": matmul_cost}
        for op in TENSOR_OPS:
            self.patch_function(tensor, op, f"engine.{op}.fwd", backward=f"engine.{op}.bwd", after=cost.get(op))
        for op in LOSS_OPS:
            self.patch_function(losses, op, f"engine.{op}.fwd", backward=f"engine.{op}.bwd")
        self.patch_function(losses, "rotated_batch", "engine.rotated_batch")
        self.patch_function(losses, "mse_loss", "engine.mse_loss")
        self.patch_method(tensor.Tensor, "backward", "engine.Tensor.backward")
        self.patch_method(optim.SGD, "step", "engine.SGD.step")
        self.patch_method(machine.Machine, "forward", "engine.Machine.forward")
        self.patch_function(checkpoint, "save_params", "engine.checkpoint.save_params")
        self.patch_function(checkpoint, "load_into_machine", "engine.checkpoint.load_into_machine")

        def loaded(args, dataset):
            counts["data.load.images"] += len(dataset)

        self.patch_function(data, "load_ppm_dir", "data.load", after=loaded)
        self.patch_function(data, "load_cifar_binary", "data.load", after=loaded)
        self.patch_function(data, "rotate_pixels", "data.rotate_pixels")
        self.patch_function(data, "sample_episode_sets", "data.sample_episode_sets")
        self.patch_function(data, "augment_for_regression", "data.augment_for_regression")
        self.patch_function(metrics, "rms_calibration_error", "metrics.rms_calibration_error")

        def dispatch(args):
            # What measure() ships to a worker with every episode.
            dataset, set_a, config = args[:3]
            counts["measurer.dispatch_bytes"] = len(pickle.dumps((dataset, list(set_a), config)))

        def episode_done(args, result):
            counts["measurer.episodes"] += 1
            counts["measurer.passed"] += int(result.passed_gate)

        self.patch_function(measurer, "measure", "measurer.measure", before=dispatch)
        self.patch_function(measurer, "run_episode", "measurer.run_episode", after=episode_done,
                            tag=lambda args: f"episode{args[3]}")
        for stage in ("stage_a", "rotation_accuracy", "stage_b_epoch", "stage_c"):
            self.patch_function(measurer, stage, f"measurer.{stage}")

        def predicted(args, values):
            counts["predictor.predict_batch.images"] += len(values)

        self.patch_method(predictor.PredictorModel, "forward_scores",
                          lambda args: f"predictor.forward_scores.batch{args[1].shape[0]}")
        self.patch_method(predictor.PredictorModel, "predict_batch", "predictor.predict_batch", after=predicted)
        for fn in ("train_predictor", "save_predictor", "load_predictor", "predict"):
            self.patch_function(predictor, fn, f"predictor.{fn}")
        for fn in ("compute_attributes", "global_contrast", "hsv_stats"):
            self.patch_function(attributes, fn, f"attributes.{fn}")
        for fn in ("correlate", "group_by_decile"):
            self.patch_function(analysis, fn, f"analysis.{fn}")

    def write_spans(self, path):
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


# --- per-layer metrics ------------------------------------------------------

# metric -> span whose per-call durations it summarises, in microseconds.
# Each also gets "<metric>.p99" and "<base>.calls".
PER_CALL_US = {
    **{f"engine.{op}.{d}_us": f"engine.{op}.{d}"
       for op in ("conv2d", "maxpool2", "matmul", "relu", "add", "reshape", "sigmoid", "softmax_cross_entropy")
       for d in ("fwd", "bwd")},
    "engine.Tensor.backward.us": "engine.Tensor.backward",
    "engine.rotated_batch.us": "engine.rotated_batch",
    "engine.SGD.step.us": "engine.SGD.step",
    "engine.mse_loss.us": "engine.mse_loss",
    "engine.Machine.forward.us": "engine.Machine.forward",
    "data.sample_episode_sets.us": "data.sample_episode_sets",
    "data.augment_for_regression.us": "data.augment_for_regression",
    "metrics.rms_calibration_error.us": "metrics.rms_calibration_error",
    "predictor.forward_scores.us": "predictor.forward_scores.batch16",
    "attributes.compute_attributes.us": "attributes.compute_attributes",
    "attributes.global_contrast.us": "attributes.global_contrast",
    "attributes.hsv_stats.us": "attributes.hsv_stats",
}

# metric -> span whose median per-call duration it reports, in seconds.
PER_CALL_S = {
    "measurer.run_episode.s": "measurer.run_episode",
    "measurer.stage_a.s": "measurer.stage_a",
    "measurer.rotation_accuracy.s": "measurer.rotation_accuracy",
    "measurer.stage_b_epoch.s": "measurer.stage_b_epoch",
    "measurer.stage_c.s": "measurer.stage_c",
    "engine.checkpoint.save_params.s": "engine.checkpoint.save_params",
    "engine.checkpoint.load_into_machine.s": "engine.checkpoint.load_into_machine",
    "data.load.s": "data.load",
    "analysis.correlate.s": "analysis.correlate",
    "analysis.group_by_decile.s": "analysis.group_by_decile",
}


def calls_name(metric: str) -> str:
    for suffix in ("_us", ".us"):
        if metric.endswith(suffix):
            return metric[: -len(suffix)] + ".calls"
    raise ValueError(metric)


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def layer_metrics(spans, counts):
    """Per-layer metrics from one traced repetition: {name: (value, unit)}."""
    names = [s[0] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans])
    parent = np.array([s[3] for s in spans])
    has_parent = parent >= 0
    child = np.zeros(len(spans))
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    # Which stage each span runs under: parents precede their children.
    region = [None] * len(spans)
    marks = {"measurer.stage_a": "a", "measurer.rotation_accuracy": "acc", "measurer.stage_b_epoch": "b"}
    for i, name in enumerate(names):
        region[i] = marks.get(name, region[parent[i]] if parent[i] >= 0 else None)

    by_name = defaultdict(list)
    for i, name in enumerate(names):
        by_name[name].append(i)

    def durations(name):
        idx = by_name.get(name)
        if not idx:
            raise KeyError(f"traced run recorded no {name} span")
        return dur[idx]

    out = {}
    for metric, span in PER_CALL_US.items():
        values = durations(span) * 1e6
        out[metric] = (float(np.median(values)), "us")
        out[metric + ".p99"] = (float(percentile(values, 99)), "us")
        out[calls_name(metric)] = (len(values), "count")
    graph = self_time[by_name["engine.Tensor.backward"]] * 1e6
    out["engine.backward.graph_us"] = (float(np.median(graph)), "us")
    out["engine.backward.graph_us.p99"] = (float(percentile(graph, 99)), "us")
    for metric, span in PER_CALL_S.items():
        out[metric] = (float(np.median(durations(span))), "s")

    step_s = durations("measurer.stage_a").sum() - durations("measurer.rotation_accuracy").sum()
    steps = by_name["engine.SGD.step"]
    out["measurer.stage_a.steps_per_s"] = (sum(region[i] == "a" for i in steps) / step_s, "steps/s")
    out["measurer.stage_b.steps_per_s"] = (
        sum(region[i] == "b" for i in steps) / durations("measurer.stage_b_epoch").sum(), "steps/s")
    op_spans = {f"engine.{op}.{d}" for op in TENSOR_OPS + LOSS_OPS for d in ("fwd", "bwd")}
    op_s = sum(self_time[i] for i, name in enumerate(names) if region[i] == "a" and name in op_spans)
    out["engine.step.dispatch_share"] = (1.0 - op_s / step_s, "ratio")
    out["measurer.gate_pass_ratio"] = (counts["measurer.passed"] / counts["measurer.episodes"], "ratio")
    out["measurer.dispatch_bytes"] = (counts["measurer.dispatch_bytes"], "bytes")
    out["engine.conv2d.flops"] = (counts["engine.conv2d.flops"], "flop")
    out["engine.conv2d.bytes"] = (counts["engine.conv2d.bytes"], "bytes")
    out["engine.matmul.flops"] = (counts["engine.matmul.flops"], "flop")
    out["data.rotate_pixels.calls"] = (len(by_name["data.rotate_pixels"]), "count")
    out["data.load.images_per_s"] = (counts["data.load.images"] / durations("data.load").sum(), "images/s")
    out["predictor.predict_batch.us_per_image"] = (
        durations("predictor.predict_batch").sum() * 1e6 / counts["predictor.predict_batch.images"], "us/image")
    return out


# Units whose values are counted rather than timed; they must repeat exactly.
COUNT_UNITS = ("count", "bytes", "flop")
