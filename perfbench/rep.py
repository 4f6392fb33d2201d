"""One repetition of a workload, run by run.py in a fresh process.

Usage: rep.py PLAN_JSON OUT_DIR SPAWNED_AT TRACE WORKERS

SPAWNED_AT is the parent's time.monotonic() just before it started this
process (the clock is system-wide), so set-up time includes the
interpreter start and the memmeter import. The repetition drives the
library calls the CLI makes, writes the same output files, and prints
one JSON object with its timings, failures and peak memory.

The timed stages are recorded in pieces, so that run.py can take each
piece's shortest time over all repetitions. Attributes and predict run
`passes` times, each pass as a fixed list of pieces: one call per image,
plus the write or the load. Training, and measure when it runs in this
process, are split at the calls of memmeter's step-level functions (the
losses, each layer's forward, backward, each gradient accumulation, the
SGD step): these are wrapped to take a timestamp, which costs well under
1% of a step, and the pieces are the intervals between timestamps. The
runs are deterministic, so a piece does the same work in every
repetition. Traced repetitions are not split.
"""

import csv
import json
import math
import multiprocessing
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from functools import partial, wraps
from pathlib import Path

plan = json.loads(Path(sys.argv[1]).read_text())
out = Path(sys.argv[2])
spawned_at = float(sys.argv[3])
trace = sys.argv[4] == "1"
workers = int(sys.argv[5])

tracer = None
if trace:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()

from memmeter import analysis, attributes, data, measurer, predictor  # noqa: E402
from memmeter.engine import layers, machine, optim, tensor  # noqa: E402
from memmeter.engine.machine import MachineSpec  # noqa: E402

result = {"failures": [], "timings": {}, "pieces": {}, "counts": {}}


def failed(op, message):
    result["failures"].append({"op": op, "error": message})


# --- set-up: dataset, config, set A, score table -------------------------------
if tracer:
    tracer.tag = "setup"
load = data.load_ppm_dir if plan["format"] == "ppm" else data.load_cifar_binary
dataset = load(plan["data"])
cfg = plan["measure_config"]
c, h, w = dataset.dims
config = measurer.EpisodeConfig(
    machine=MachineSpec(kind=cfg["machine"]["kind"], in_channels=c, height=h, width=w),
    n=cfg["n"],
    m=cfg["m"],
    epochs_a=cfg["epochs_a"],
    epochs_b=cfg["epochs_b"],
    calibration_mode=cfg["calibration_mode"],
    base_seed=cfg["base_seed"],
)
set_a = list(cfg["set_a"])
score_table = measurer.read_score_csv(plan["scores"])
reg_config = predictor.RegressionConfig(epochs=plan["train_epochs"], split_seed=plan["seed"])
scored = [dataset.image(i) for i in plan["scored"]]
setup_done = time.monotonic()
result["setup_s"] = setup_done - spawned_at
out.mkdir(parents=True, exist_ok=True)


def timed(op, fn):
    """Run one operation; record its wall time, or its failure."""
    if tracer:
        tracer.tag = op
    started = time.perf_counter()
    try:
        value = fn()
    except Exception:
        failed(op, traceback.format_exc(limit=3))
        return None
    result["timings"][op] = time.perf_counter() - started
    return value


# Where a training step is split: (module or class, function name). A site
# the code no longer has is skipped.
STEP_SITES = [
    (measurer, "rotation_loss"), (measurer, "rotated_batch"), (measurer, "seen_loss"),
    (predictor, "augment_for_regression"), (predictor, "mse_loss"),
    (machine.Machine, "forward"), (tensor.Tensor, "backward"), (tensor, "_accumulate"), (optim.SGD, "step"),
] + [(layer, "forward") for layer in vars(layers).values() if isinstance(layer, type) and "forward" in vars(layer)]


def intervals(marks):
    return [end - start for start, end in zip(marks, marks[1:])]


@contextmanager
def step_clock(marks):
    """Append a timestamp to `marks` at every call of a STEP_SITES function.

    The wrappers only read the clock, and are removed again on exit.
    """
    originals = [(owner, name, vars(owner)[name]) for owner, name in STEP_SITES if name in vars(owner)]

    def stamp(original):
        def wrapper(*args, **kwargs):
            marks.append(time.perf_counter())
            return original(*args, **kwargs)

        return wrapper

    for owner, name, original in originals:
        setattr(owner, name, stamp(original))
    try:
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def clocked(op, fn):
    """timed(), recording the intervals between the operation's start, its
    step timestamps and its end as one pass of pieces."""
    if tracer:
        return timed(op, fn)
    marks = []
    with step_clock(marks):
        started = time.perf_counter()
        value = timed(op, fn)
        ended = time.perf_counter()
    if value is not None:
        result["pieces"][op] = [intervals([started, *marks, ended])]
    return value


def clocked_pool(op, fn):
    """timed() for a measure whose episodes run in forked pool workers.

    Each worker inherits the step clock and a wrapped run_episode, which
    writes its episode's pieces to a file, as the timestamps stay in the
    worker. Records them per episode, in episode order, when every episode
    has a worker of its own and every episode wrote its file.
    """
    if tracer or config.m > workers or multiprocessing.get_start_method() != "fork":
        return timed(op, fn)
    marks = []
    original = measurer.run_episode

    # wraps() keeps the original's name, so the pickled task finds this wrapper.
    @wraps(original)
    def run_episode(*args, **kwargs):
        marks.clear()
        started = time.perf_counter()
        episode = original(*args, **kwargs)
        pieces = intervals([started, *marks, time.perf_counter()])
        (out / f"episode{episode.episode_index}.pieces.json").write_text(json.dumps(pieces))
        return episode

    measurer.run_episode = run_episode
    try:
        with step_clock(marks):
            value = timed(op, fn)
    finally:
        measurer.run_episode = original
    files = [out / f"episode{index}.pieces.json" for index in range(config.m)]
    if value is not None and all(f.exists() for f in files):
        result["episode_pieces"] = [json.loads(f.read_text()) for f in files]
    return value


def timed_passes(op, one_pass):
    """Run an operation `passes` times; `one_pass()` gives (pieces, value).

    Records the wall time of every piece of every pass and of the whole
    operation, and returns the last pass's value, or None on failure.
    """
    if tracer:
        tracer.tag = op
    passes = []
    started = time.perf_counter()
    try:
        for _ in range(plan["passes"]):
            pieces, value = one_pass()
            times = []
            for piece in pieces:
                piece_started = time.perf_counter()
                piece()
                times.append(time.perf_counter() - piece_started)
            passes.append(times)
    except Exception:
        failed(op, traceback.format_exc(limit=3))
        return None
    result["timings"][op] = time.perf_counter() - started
    result["pieces"][op] = passes
    return value


def do_measure():
    table, episodes = measurer.measure(dataset, set_a, config, workers=workers)
    measurer.write_score_csv(table, out / "scores.csv")
    measurer.write_episode_jsonl(episodes, out / "episodes.jsonl")
    return table


def attributes_pass():
    rows = {}

    def compute(image):
        rows[image.id] = attributes.compute_attributes(image)

    pieces = [partial(compute, image) for image in scored]
    pieces.append(partial(attributes.write_attribute_csv, rows, out / "attributes.csv"))
    return pieces, rows


def do_analysis(rows):
    columns = {
        name: {i: getattr(vec, name) for i, vec in rows.items() if getattr(vec, name) is not None}
        for name in attributes.ATTRIBUTE_NAMES
    }
    analysis.correlate(score_table, columns)
    analysis.group_by_decile(score_table, columns)


def do_train():
    trained = predictor.train_predictor(score_table, dataset, reg_config, seed=plan["seed"])
    predictor.save_predictor(trained.model, out / "predictor.mmt1")
    return trained


def predict_pass():
    # predict() runs one image per forward pass, so a call per image gives the same values.
    models, predictions = [], {}

    def load():
        models.append(predictor.load_predictor(out / "predictor.mmt1"))

    def predict(image):
        predictions.update(predictor.predict(models[0], [image]))

    pieces = [load] + [partial(predict, image) for image in scored]
    return pieces, predictions


(clocked if workers == 1 else clocked_pool)("measure", do_measure)
rows = timed_passes("attributes", attributes_pass)
if rows is not None:
    timed("analysis", lambda: do_analysis(rows))
trained = clocked("train", do_train)
if trained is not None:
    result["counts"]["train_images"] = reg_config.epochs * len(trained.train_ids)
    predictions = timed_passes("predict", predict_pass)
    if predictions is not None:
        with (out / "predictions.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("image_id", "predicted_score"))
            for image_id in sorted(predictions):
                writer.writerow((image_id, repr(predictions[image_id])))
        if not all(math.isfinite(v) for v in predictions.values()):
            failed("predict", "non-finite prediction")
if rows is not None and not all(
    math.isfinite(v) for vec in rows.values() for v in vec.as_row().values() if v is not None
):
    failed("attributes", "non-finite attribute")
result["counts"].update(episodes=config.m, images=len(scored), pass_images=plan["passes"] * len(scored))

self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
# ru_maxrss is in KiB on Linux; each pool worker's peak is at most the largest one's.
result["peak_rss_mb"] = (self_kb + (workers * child_kb if workers > 1 else 0)) / 1024.0

if tracer:
    tracer.restore()
    result["layers"] = layer_metrics(tracer.spans, tracer.counts)
    tracer.write_spans(out / "spans.jsonl")

print(json.dumps(result))
