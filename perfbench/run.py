"""memmeter benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; memmeter is imported from its `src/`.
Each repetition runs in a fresh process (perfbench/rep.py), because peak
RSS is a lifetime high-water mark and set-up time includes the import.
Repetitions continue until the next one would end after S seconds (at
least three).

On a shared machine whose speed drifts by 10-20% over minutes, and slows
by up to 2x for seconds at a time, the median of a run moves with the
drift; the fastest samples are steadier. So each end-to-end metric is
reported from its best samples. rep.py records the timed stages in
pieces of about a millisecond (a layer's forward, a gradient
accumulation, one image's attributes or prediction) that do the same
work in every repetition, and a throughput is its count over the sum of
each piece's shortest time: any fast spell during the run gives a piece
its fast time. When measure's episodes run one per pool worker, the
stage is its slowest episode, so taken, plus its best overhead (pool
start, dataset dispatch, writes). setup_s and peak_rss_mb, and a stage
that could not be split, are the best repetition. The report lines also
give the median over repetitions, the samples and, from 11 samples on,
the highest percentile with ten samples beyond it. Per-layer times are
medians over calls.

--trace 0 reports the end-to-end metrics with tracing off. --trace 1
runs untraced and traced repetitions with one worker and reports the
per-layer metrics of BENCHMARK.json plus trace.overhead, the traced
wall time over the untraced one.

Every invocation checks the outputs: the SHA-256 of each output file
must agree across repetitions (traced or not, any worker count), the
score table and episode log must equal what `memmeter.cli.main(["measure",
...])` writes for the same config, the default seed's digests must equal
perfbench/reference.json when numpy and BLAS match it, and every score
must be a multiple of 1/m_effective in [0, 1] and every prediction finite
in (0, 1). An operation (measure, attributes, train or predict; the CLI's
measure run is one more) fails if it raises, gives a non-finite output or
a wrong digest.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
--smoke runs every workload at a tiny size in both modes and checks that
every metric of BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import COUNT_UNITS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
MIN_REPS = 3
REP_TIMEOUT_S = 60

# Operation -> the output files whose digests decide whether it was right.
OUTPUTS = {
    "measure": ("scores.csv", "episodes.jsonl"),
    "attributes": ("attributes.csv",),
    "train": ("predictor.mmt1",),
    "predict": ("predictions.csv",),
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- environment -------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def blas_version():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "nproc": workloads.nproc(),
        "cpu": cpu_model(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


# --- processes ---------------------------------------------------------------

def run_child(argv, timeout=REP_TIMEOUT_S):
    """Run a Python child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {timeout} s"
    except BaseException:
        # Interrupted or terminated: take the child's pool workers down too.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {stderr.strip()[-2000:]}"
    return stdout, stderr


def run_rep(plan_path, out, trace, workers):
    started = time.monotonic()
    stdout, err = run_child([str(HERE / "rep.py"), str(plan_path), str(out), repr(started), str(int(trace)), str(workers)])
    wall = time.monotonic() - started
    if stdout is None:
        return {"error": err, "wall": wall, "trace": trace}
    rep = json.loads(stdout.strip().splitlines()[-1])
    rep.update(wall=wall, trace=trace, out=out)
    return rep


def cli_reference(plan, out):
    """Digests of what `memmeter measure` writes for the plan's config."""
    code = "import sys; from memmeter.cli import main; sys.exit(main(sys.argv[1:]))"
    workers = min(workloads.nproc(), plan["measure_config"]["m"])
    stdout, err = run_child(["-c", code, "measure", "--config", plan["measure_config_path"],
                             "--data", plan["data"], "--out", str(out), "--workers", str(workers)])
    if stdout is None:
        # Every measure repetition then fails its digest check.
        return {name: f"memmeter measure failed: {err}" for name in OUTPUTS["measure"]}
    return {name: digest(out / name) for name in OUTPUTS["measure"]}


# --- correctness -------------------------------------------------------------

def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def check_invariants(out):
    """Scores are multiples of 1/m_effective in [0, 1]; predictions finite in (0, 1)."""
    problems = []
    for line in (out / "scores.csv").read_text().splitlines()[1:]:
        image_id, score, m_effective = line.split(",")[:3]
        score, m_effective = float(score), int(m_effective)
        k = round(score * m_effective)
        if not (0 <= k <= m_effective and score == k / m_effective):
            problems.append(("measure", f"score {score!r} of {image_id} is not k/{m_effective} in [0, 1]"))
    for line in (out / "predictions.csv").read_text().splitlines()[1:]:
        image_id, value = line.split(",")
        if not 0.0 < float(value) < 1.0:  # also rejects nan
            problems.append(("predict", f"prediction {value} of {image_id} outside (0, 1)"))
    return problems


def load_reference(workload):
    if not REFERENCE.exists():
        return None
    ref = json.loads(REFERENCE.read_text()).get(workload)
    env = environment()
    if ref is None or ref["numpy"] != env["numpy"] or ref["blas"] != env["blas"]:
        return None
    return ref["digests"]


def judge(reps, expected):
    """Count failed operations; `expected` maps file -> digest and fills up."""
    attempted = failed = 0
    notes = []
    for rep in reps:
        attempted += len(OUTPUTS)
        if "error" in rep:
            failed += len(OUTPUTS)
            notes.append(f"repetition failed: {rep['error']}")
            continue
        bad = {f["op"] for f in rep["failures"]}
        notes += [f"{f['op']}: {f['error'].strip()}" for f in rep["failures"]]
        for op, files in OUTPUTS.items():
            for name in files:
                got = digest(rep["out"] / name)
                want = expected.setdefault(name, got)
                if got is None or got != want:
                    bad.add(op)
                    notes.append(f"{op}: {name} digest {got} != reference {want}")
        if not bad:
            for op, problem in check_invariants(rep["out"]):
                bad.add(op)
                notes.append(f"{op}: {problem}")
        failed += len(bad)
    return attempted, failed, notes


# --- metrics -----------------------------------------------------------------

def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    rank = len(ordered) - 10
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def end_to_end(reps):
    """Each end-to-end metric's value in every repetition."""
    return {
        "setup_s": [r["setup_s"] for r in reps],
        "episodes_per_s": [r["counts"]["episodes"] / r["timings"]["measure"] for r in reps],
        "train_images_per_s": [r["counts"]["train_images"] / r["timings"]["train"] for r in reps],
        "predict_images_per_s": [r["counts"]["pass_images"] / r["timings"]["predict"] for r in reps],
        "attributes_images_per_s": [r["counts"]["pass_images"] / r["timings"]["attributes"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


# Metrics taken from the pieces of a stage: the stage, and what it counts.
PIECEWISE = {
    "episodes_per_s": ("measure", "episodes"),
    "train_images_per_s": ("train", "train_images"),
    "predict_images_per_s": ("predict", "images"),
    "attributes_images_per_s": ("attributes", "images"),
}


def piecewise_seconds(passes):
    """Sum over pieces of each piece's shortest time in any pass, or None
    when the passes are not split into the same pieces."""
    if len({len(times) for times in passes}) != 1:
        return None
    return sum(map(min, zip(*passes)))


def stage_seconds(reps, name):
    """(seconds, how) of the metric's stage from its best pieces, or None."""
    op, _ = PIECEWISE[name]
    if op == "measure" and all("episode_pieces" in r for r in reps):
        # One episode per pool worker, all at once: the stage takes its overhead
        # (pool start, dataset dispatch, aggregation, writes: the wall time less
        # the slowest episode), best over repetitions, plus its slowest episode.
        overhead = min(r["timings"]["measure"] - max(map(sum, r["episode_pieces"])) for r in reps)
        episodes = [piecewise_seconds(runs) for runs in zip(*(r["episode_pieces"] for r in reps))]
        if None not in episodes:
            return overhead + max(episodes), f"episodes in pool workers in pieces, each best of {len(reps)}"
    if all(op in r["pieces"] for r in reps):
        passes = [times for r in reps for times in r["pieces"][op]]
        seconds = piecewise_seconds(passes)
        if seconds is not None:
            return seconds, f"{len(passes[0])} pieces, each best of {len(passes)}"
    return None


def estimates(reps, samples, declared):
    """The reported value of each end-to-end metric, and how it was taken."""
    best = {"higher": max, "lower": min}
    values = {}
    for name, per_rep in samples.items():
        taken = stage_seconds(reps, name) if name in PIECEWISE else None
        if taken:
            seconds, how = taken
            values[name] = (reps[0]["counts"][PIECEWISE[name][1]] / seconds, how)
        else:
            values[name] = (best[declared[name]["better"]](per_rep), f"best of n={len(per_rep)}")
    return values


def per_layer(traced, untraced):
    """Median of each per-layer metric over traced reps; counts must agree."""
    layers = [r["layers"] for r in traced]
    metrics, notes = {}, []
    for name, (_, unit) in layers[0].items():
        values = [layer[name][0] for layer in layers]
        if unit in COUNT_UNITS or name == "measurer.gate_pass_ratio":
            if len(set(values)) != 1:
                notes.append(f"count {name} differs between traced runs: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    wall = lambda r: sum(r["timings"].values())  # noqa: E731
    overhead = statistics.median(map(wall, traced)) / statistics.median(map(wall, untraced))
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics, notes


# --- a run -------------------------------------------------------------------

def run(workload, seed, seconds, trace, smoke=False):
    if not (SRC / "memmeter" / "__init__.py").is_file():
        raise BenchmarkError(f"memmeter sources not found under {SRC}; run from the root of a memmeter checkout")
    spec = workloads.resolve(workload, smoke=smoke)
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(spec, seed, seconds, trace, smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(spec, seed, seconds, trace, smoke, work):
    plan = workloads.generate(spec, seed, work / "inputs")
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    # The recorded default-seed digests, when they apply, are the reference;
    # otherwise the CLI's measure output is, and the repetitions' first outputs.
    recorded = None if smoke or seed != DEFAULT_SEED else load_reference(spec["name"])
    expected = dict(recorded or {})
    attempted, failed, notes = 1, 0, []
    for name, got in cli_reference(plan, work / "cli").items():
        want = expected.setdefault(name, got)
        if got != want:
            failed = 1
            notes.append(f"memmeter measure: {name} digest {got} != recorded {want}")

    # Trace mode alternates untraced and traced reps, all with one worker.
    schedule = [False, True, True] if trace else [False] * MIN_REPS
    reps = []
    started = time.monotonic()
    while True:
        traced = schedule[len(reps)] if len(reps) < len(schedule) else trace and not reps[-1]["trace"]
        workers = 1 if trace else spec["workers"]
        reps.append(run_rep(plan_path, work / f"rep{len(reps)}", traced, workers))
        if "error" in reps[-1]:
            break  # a broken program fails every repetition; stop within the time limit
        if len(reps) >= len(schedule) and time.monotonic() - started + reps[-1]["wall"] > seconds:
            break

    rep_attempted, rep_failed, rep_notes = judge(reps, expected)
    attempted, failed, notes = attempted + rep_attempted, failed + rep_failed, notes + rep_notes

    good = [r for r in reps if "error" not in r and not r["failures"]]
    if trace:
        traced_reps = [r for r in good if r["trace"]]
        untraced_reps = [r for r in good if not r["trace"]]
        if not traced_reps or not untraced_reps:
            raise RuntimeError("no successful traced and untraced repetition: " + "; ".join(notes))
        metrics, count_notes = per_layer(traced_reps, untraced_reps)
        notes += count_notes
        shutil.copy(traced_reps[-1]["out"] / "spans.jsonl", WORK / f"spans-{spec['name']}-seed{seed}.jsonl")
    else:
        if not good:
            raise RuntimeError("no successful repetition: " + "; ".join(notes))
        samples = end_to_end(good)
        declared = {m["name"]: m for m in benchmark_spec()["end_to_end"]}
        taken = estimates(good, samples, declared)
        metrics = {name: (value, declared[name]["unit"]) for name, (value, _) in taken.items()}
    return {
        "spec": spec,
        "reps": reps,
        "digests": expected,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not notes,
        "notes": notes,
        "metrics": metrics,
        "samples": None if trace else samples,
        "taken": None if trace else {name: how for name, (_, how) in taken.items()},
    }


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(result, seed, trace):
    spec = result["spec"]
    env = environment()
    print(f"env: {json.dumps(env)}")
    print(f"workload {spec['name']} seed {seed} trace {int(trace)}: "
          f"{len(result['reps'])} repetitions, {spec['workers']} worker(s) untraced")
    for note in result["notes"]:
        print(f"  check: {note}")
    print(f"  fail_ratio: {result['failed'] / result['attempted']:.4f} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, (value, unit) in result["metrics"].items():
        line = f"  {name}: {value:.6g} {unit}"
        if result["samples"] is not None:
            values = result["samples"][name]
            high = tail(values)
            line += f" ({result['taken'][name]}; median of n={len(values)} reps {statistics.median(values):.6g}"
            line += f"; p{high[0]:.0f} {high[1]:.6g}" if high else "; no percentile with 10 samples beyond it"
            line += "; samples " + " ".join(f"{v:.4g}" for v in values) + ")"
        print(line)
    for name, value in sorted(result["digests"].items()):
        print(f"  sha256 {name}: {value}")


def emit(result):
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))


# --- self-check --------------------------------------------------------------

def smoke():
    """Tiny run of every workload in both modes; every declared metric must appear."""
    def require(ok, message):
        if not ok:
            raise SystemExit(f"smoke: {message}")

    bench = benchmark_spec()
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    require(set(bench) == keys, f"BENCHMARK.json keys {sorted(bench)} != {sorted(keys)}")
    require([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS), "workloads differ")
    for workload in workloads.WORKLOADS:
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            result = run(workload, DEFAULT_SEED, 0, trace, smoke=True)
            report(result, DEFAULT_SEED, trace)
            require(result["correct"], f"{workload} trace {int(trace)} incorrect: {result['notes']}")
            got = result["metrics"]
            missing = [m["name"] for m in declared if m["name"] not in got]
            wrong = [m["name"] for m in declared if m["name"] in got and got[m["name"]][1] != m["unit"]]
            extra = sorted(set(got) - {m["name"] for m in declared})
            require(not (missing or wrong or extra),
                    f"{workload} trace {int(trace)}: missing {missing}, wrong unit {wrong}, undeclared {extra}")
    print("smoke: every declared metric emitted with its unit")


def write_reference(workload, result):
    env = environment()
    recorded = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    recorded[workload] = {"seed": DEFAULT_SEED, "numpy": env["numpy"], "blas": env["blas"],
                          "digests": dict(sorted(result["digests"].items()))}
    REFERENCE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-check of every workload and metric")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"record this run's digests as the seed-{DEFAULT_SEED} reference")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so children are killed and scratch removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.smoke:
            smoke()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
        result = run(args.workload, args.seed, seconds, bool(args.trace))
    except (BenchmarkError, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(result, args.seed, args.trace)
    if args.write_reference:
        if args.seed != DEFAULT_SEED or not result["correct"]:
            print("perfbench: reference is written only from a correct default-seed run", file=sys.stderr)
            return 2
        write_reference(args.workload, result)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
