"""The benchmark still finds every memmeter function it patches or clocks.

`perfbench/run.py --trace 1` replaces memmeter functions by name, and every
timed run splits its training steps at the functions `perfbench/rep.py`
lists in STEP_SITES, skipping any it cannot find. A rename or deletion in
`src/` must fail here, not only in a bench run or its numbers.
"""

import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from memmeter import attributes, measurer, predictor
from memmeter.data import Dataset, ImageTensor
from memmeter.engine import tensor as T
from memmeter.engine.losses import mse_loss, rotated_batch
from memmeter.engine.machine import MachineSpec, build_machine
from memmeter.engine.optim import SGD
from memmeter.measurer import ScoreTable

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
REP = PERFBENCH / "rep.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_installs_and_restores():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        assert hasattr(measurer.run_episode, "__wrapped__")
    finally:
        tracer.restore()
    assert not hasattr(measurer.run_episode, "__wrapped__")


def test_perfbench_step_sites_all_exist():
    tree = ast.parse(REP.read_text(), str(REP))
    namespace = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "memmeter":
            exec(compile(ast.Module([node], type_ignores=[]), str(REP), "exec"), namespace)
    (sites,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["STEP_SITES"]]
    pairs = [elt for lst in ast.walk(sites) if isinstance(lst, ast.List)
             for elt in lst.elts if isinstance(elt, ast.Tuple)]
    assert pairs
    for owner, name in (pair.elts for pair in pairs):
        resolved = eval(compile(ast.Expression(owner), str(REP), "eval"), namespace)
        assert name.value in vars(resolved), f"STEP_SITES names {ast.unparse(owner)}.{name.value}, which is gone"


def test_perfbench_tracer_records_both_spans_of_every_timed_engine_op():
    # A traced run fails when an op it times records no forward or no backward span; a
    # training node left without its backward closure must fail here first.
    module = _load_tracer()
    timed = sorted({span for span in module.PER_CALL_US.values() if span.endswith((".fwd", ".bwd"))})
    spec = MachineSpec(kind="small_cnn", in_channels=3, height=12, width=12)
    rng = np.random.default_rng(3)
    pixels = rng.random((1, 3, 12, 12))
    tracer = module.Tracer()
    try:
        tracer.install()
        machine = build_machine(spec, 4, seed=1)
        optimizer = SGD(machine.parameters(), lr=0.01, total_steps=1)
        measurer.rotation_loss(machine, rotated_batch(pixels[0])).backward()  # one stage-(a) step
        optimizer.step()
        model = predictor.build_predictor(spec, seed=2)
        optimizer = SGD(model.parameters(), lr=0.01, weight_decay=0.0, total_steps=1)
        mse_loss(model.forward_scores(rng.random((2, 3, 12, 12))), rng.random(2)).backward()
        optimizer.step()
        trained = {span[0] for span in tracer.spans}
        before = len(tracer.spans)
        measurer.rotation_accuracy(machine, pixels, "four_way")  # evaluation passes
        model.predict_batch(pixels)
        evaluated = {span[0] for span in tracer.spans[before:]}
    finally:
        tracer.restore()
    assert not hasattr(T.conv2d, "__wrapped__")
    assert [span for span in timed if span not in trained] == []
    assert {"engine.conv2d.fwd", "engine.sigmoid.fwd"} <= evaluated
    assert not any(name.endswith(".bwd") for name in evaluated)


def test_perfbench_tracer_times_the_predictor_forward_under_forward_scores():
    # The tracer patches forward on Machine; the predictor, a subclass, must reach that patch.
    module = _load_tracer()
    model = predictor.build_predictor(MachineSpec(kind="small_cnn", in_channels=3, height=8, width=8), seed=2)
    tracer = module.Tracer()
    try:
        tracer.install()
        model.forward_scores(np.random.default_rng(6).random((2, 3, 8, 8)))
        spans = list(tracer.spans)
    finally:
        tracer.restore()
    outer = [i for i, span in enumerate(spans) if span[0] == "predictor.forward_scores.batch2"]
    assert len(outer) == 1
    assert [span[3] for span in spans if span[0] == "engine.Machine.forward"] == outer


def test_perfbench_tracer_records_the_attribute_spans():
    # Traced runs and --smoke read these spans by name; compute_attributes must keep
    # calling hsv_stats and global_contrast through the module, where the tracer patches them.
    module = _load_tracer()
    tracer = module.Tracer()
    try:
        tracer.install()
        attributes.compute_attributes(ImageTensor("probe", np.random.default_rng(4).random((3, 12, 12))))
        recorded = {span[0] for span in tracer.spans}
    finally:
        tracer.restore()
    assert {"attributes.compute_attributes", "attributes.global_contrast", "attributes.hsv_stats"} <= recorded


def test_perfbench_tracer_records_the_training_spans():
    # Traced regress runs read these spans by name: train_predictor must keep calling
    # augment_for_regression where the tracer patches it, on full batch-16 forwards.
    module = _load_tracer()
    rng = np.random.default_rng(5)
    ids = [f"t{i:02d}" for i in range(24)]
    dataset = Dataset(ids, rng.integers(0, 256, (24, 3, 8, 8), dtype=np.uint8), scale=255.0)
    table = ScoreTable(scores=dict(zip(ids, rng.random(24))), m_effective=4, machine="x", config_hash="h", base_seed=0)
    spec = MachineSpec(kind="small_cnn", in_channels=3, height=8, width=8)
    tracer = module.Tracer()
    try:
        tracer.install()
        predictor.train_predictor(table, dataset, predictor.RegressionConfig(epochs=1, test_fraction=0.25), spec=spec)
        recorded = [span[0] for span in tracer.spans]
    finally:
        tracer.restore()
    assert recorded.count("data.augment_for_regression") == 18
    assert "predictor.forward_scores.batch16" in recorded


@pytest.mark.parametrize("calibration_mode", ["seen_only", "held_out"])
def test_perfbench_tracer_records_the_episode_spans(calibration_mode):
    # Traced measure runs read these spans by name, and tag each episode's spans from
    # run_episode's positional episode_index.
    module = _load_tracer()
    rng = np.random.default_rng(6)
    ids = [f"e{i:02d}" for i in range(20)]
    dataset = Dataset(ids, rng.integers(0, 256, (20, 3, 6, 6), dtype=np.uint8), scale=255.0)
    spec = MachineSpec(kind="mlp", in_channels=3, height=6, width=6, hidden=(8,))
    config = measurer.EpisodeConfig(machine=spec, n=5, m=2, epochs_a=1, epochs_b=1, accuracy_gate=0.01,
                                    calibration_mode=calibration_mode)
    tracer = module.Tracer()
    try:
        tracer.install()
        measurer.measure(dataset, ids[:5], config, workers=1)
        spans = list(tracer.spans)
    finally:
        tracer.restore()
    recorded = {span[0] for span in spans}
    assert {f"measurer.{name}" for name in ("stage_a", "rotation_accuracy", "stage_b_epoch", "stage_c")} <= recorded
    assert {"data.sample_episode_sets", "data.rotate_pixels", "metrics.rms_calibration_error"} <= recorded
    assert [span[4] for span in spans if span[0] == "measurer.run_episode"] == ["episode0", "episode1"]
