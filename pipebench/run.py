"""Pipeline benchmark: seeded workloads through the ``riesz`` CLI.

Usage, from the root of a checkout::

    python3 pipebench/run.py --workload digits-bbox --seed 1 --seconds 20 --trace 0

Each run generates its inputs from the seed (``gen.py``), then repeats
the workload's command sequence, each repetition in a fresh worker
process (``worker.py``) calling ``rieszrep.cli.main`` in-process, until
``--seconds`` have passed.  ``setup_s`` is each worker's time from
spawn to an imported ``rieszrep.cli``.  Times are wall seconds rescaled
to the host's reference speed by an in-process probe (``worker.py``,
``SpeedProbe``), as lower quartiles over the repetitions (see
``lower_quartile``); the unscaled wall time is printed alongside.
After timing, a correctness gate checks the outputs (``gate.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions, reports the per-layer metrics of the
traced ones and the tracing overhead, and writes every span to
``pipebench/_work/<workload>/trace.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 for a correct run, 1 for a run whose outputs are wrong and 2 when
the benchmark cannot run (no program sources under ``src/``).

Load comes from one process with one thread: repetitions run one at a
time and the BLAS/OpenMP thread pools are pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

ROOT = BENCH_DIR.parent
WORKER_TIMEOUT_S = 150

# K, M and bbox per workload; features-train never extracts
CONFIGS = {
    "digits-bbox": (3, 4, True),
    "textures-fixed": (2, 8, False),
    "features-train": (3, 4, False),
}


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


def worker_env():
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "RIESZ_DATA_DIR")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def sequence(workload, files, work):
    """The workload's CLI steps, its extract outputs and its eval output.

    Returns (steps, extracts, first_stage, items, eval_output) where each
    step is (stage, argv), each extract is (csv, IDX input, blanks) and
    ``items`` counts what enters the first stage: images for extraction,
    feature rows for training on features-train.
    """
    depth, angles, bbox = CONFIGS[workload]
    riesz = ["--depth", str(depth), "--angles", str(angles)] + (["--bbox"] if bbox else [])
    model, evaluated = str(work / "model.txt"), str(work / "eval.csv")
    steps, extracts, items = [], [], 0
    stems = {"digits-bbox": ("train",), "textures-fixed": ("train", "test"), "features-train": ()}
    for stem in stems[workload]:
        out = str(work / f"{stem}.csv")
        steps.append(("extract", ["extract", "--images", files[stem]["images"],
                                  "--labels", files[stem]["labels"], *riesz, "--output", out]))
        extracts.append((out, files[stem]["images"], files[stem]["blanks"]))
        items += files[stem]["count"]
    first_stage = "extract"
    if workload == "features-train":
        train_csv, test_source = files["train"]["csv"], ["--features", files["test"]["csv"]]
        first_stage, items = "train", files["train"]["count"]
    elif workload == "textures-fixed":
        train_csv, test_source = extracts[0][0], ["--features", extracts[1][0]]
    else:
        train_csv, test_source = extracts[0][0], ["--manifest", files["manifest"], *riesz]
    # reg 0.01 (and on the small digit set, 200 epochs) keeps the final SGD
    # iterate stable, so accuracy varies little between seeds
    classifier = {
        "digits-bbox": ["svm", "--reg", "0.01", "--epochs", "200"],
        "textures-fixed": ["pca", "--components", "2"],
        "features-train": ["svm", "--reg", "0.01"],
    }[workload]
    steps.append(("train", ["train", "--features", train_csv, "--classifier", *classifier,
                            "--output", model]))
    steps.append(("eval", ["eval", *test_source, "--model", model, "--output", evaluated]))
    return steps, extracts, first_stage, items, evaluated


def run_worker(spec, work, name):
    spec_path, result_path = work / f"{name}.spec.json", work / f"{name}.result.json"
    spec = dict(spec, root=str(ROOT), result=str(result_path))
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps(dict(spec, spawned=time.perf_counter())))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
        env=worker_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.exists():
        return {"crashed": proc.stderr[-2000:]}
    return json.loads(result_path.read_text())


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": "numpy.fft (pocketfft)" if hasattr(np.fft, "_pocketfft") else "numpy.fft",
        "cpus": os.cpu_count(),
    }


def read_accuracy(path):
    """Mean of the per-scale accuracies in an ``eval --output`` file."""
    lines = Path(path).read_text(encoding="ascii").split()[1:]
    values = [float(line.split(",")[1]) for line in lines]
    return sum(values) / len(values)


def run(workload, seed, seconds, trace, fault=None):
    """One benchmark run; returns (correct, attempted, failed, metrics, notes).

    ``fault`` is for the self-tests only (see ``measure.apply_fault``).
    """
    if not (ROOT / "src" / "rieszrep" / "cli.py").is_file():
        raise SetupError(f"no program sources at {ROOT / 'src' / 'rieszrep'}")
    work = BENCH_DIR / "_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files = gen.generate(workload, seed, work / "inputs")
    steps, extracts, first_stage, items, eval_output = sequence(workload, files, work)
    outputs = [e[0] for e in extracts] + [eval_output]

    runs, attempted, failed, notes = [], 0, 0, []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds or (trace and len(runs) < 2):
        traced = trace and len(runs) % 2 == 1
        result = run_worker(
            {"steps": steps, "outputs": outputs, "trace": traced, "fault": fault,
             "run_id": f"{workload}-s{seed}-r{len(runs)}"},
            work, "iteration",
        )
        attempted += len(steps)
        if "crashed" in result:
            failed += len(steps)
            notes.append(f"worker crashed: {result['crashed']}")
            break
        failed += sum(step["exit"] != 0 for step in result["steps"])
        result["traced"] = traced
        runs.append(result)

    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} commands failed")
    if len({json.dumps(r["digests"], sort_keys=True) for r in runs}) > 1:
        problems.append("outputs differ between repetitions")
    accuracy = None
    if not failed:
        for csv_path, idx_path, blanks in extracts:
            depth, angles, bbox = CONFIGS[workload]
            found, bad_rows = gate.check_extract_csv(csv_path, idx_path, blanks, depth, angles, bbox)
            problems += found
            attempted += len(gate.read_idx_images(idx_path))
            failed += bad_rows
        accuracy = read_accuracy(eval_output)
        floor = gate.accuracy_floor(gate.load_reference(), workload, seed)
        if accuracy < floor:
            problems.append(f"accuracy {accuracy:.6f} below the recorded {floor:.6f}")
    gate_problems, gate_attempted, gate_failed = run_gate(work, fault)
    problems += gate_problems
    attempted += gate_attempted
    failed += gate_failed
    notes += problems
    if not runs:
        return False, attempted, failed, {}, notes

    untraced = [r for r in runs if not r["traced"]]
    metrics = {"setup_s": (lower_quartile(r["setup_s"] for r in runs), "s")}
    metrics.update(end_to_end(untraced, first_stage, items, accuracy))
    if trace and len(runs) > len(untraced):
        notes += [f"untraced {name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        traced_runs = [r for r in runs if r["traced"]]
        layer, absent = per_layer(traced_runs, untraced)
        write_trace(work / "trace.json", workload, seed, traced_runs, absent)
        predicted = tracer.predicted_counts(*CONFIGS[workload][:2])
        for key, value in predicted.items():
            if layer.get("representation.extract_features.calls"):
                mark = "matches" if layer[key] == value else "DIFFERS FROM"
                notes.append(f"count {key} = {layer[key]:g} {mark} predicted {value}")
        notes.append(f"absent (undefined): {absent['undefined']}; not called: {absent['not_called']}")
        metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
    notes.append(f"repetitions: {len(untraced)} untraced, {len(runs) - len(untraced)} traced")
    wall = lower_quartile(sum(s["wall_seconds"] for s in r["steps"]) for r in untraced or runs)
    speed = statistics.median(r["speed_scale"] for r in runs)
    notes.append(f"unscaled wall total_s {wall:.6g} s; median host-speed scale {speed:.4f}")
    return not problems, attempted, failed, metrics, notes


def lower_quartile(values):
    """Lower quartile of the repetitions' times.

    The shared host runs at times well below its usual speed for tens of
    seconds; the lower quartile tracks the program's own cost and moves
    much less between runs than the median does.
    """
    values = list(values)
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=4, method="inclusive")[0]


def end_to_end(runs, first_stage, items, accuracy):
    q1 = lower_quartile

    def stage(run, name):
        return sum(s["seconds"] for s in run["steps"] if name in (None, s["stage"]))

    return {
        "total_s": (q1([stage(r, None) for r in runs]), "s"),
        "extract_images_per_s": (items / q1([stage(r, first_stage) for r in runs]), "1/s"),
        "train_s": (q1([stage(r, "train") for r in runs]), "s"),
        "eval_s": (q1([stage(r, "eval") for r in runs]), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in runs), "MB"),
        "accuracy": (accuracy if accuracy is not None else 0.0, "fraction"),
    }


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if ".ms_" in name:
        return "ms"
    if name.endswith(("bank_reuse", "_frac")):
        return "fraction"
    return "count"


def per_layer(traced_runs, untraced_runs):
    keys = traced_runs[0]["trace"]["metrics"]
    layer = {k: statistics.median(r["trace"]["metrics"][k] for r in traced_runs) for k in keys}

    # traced steps run once, so the overhead compares first runs on both sides
    def total(run):
        return sum(s["first_seconds"] for s in run["steps"])

    plain = lower_quartile(total(r) for r in untraced_runs)
    overhead = lower_quartile(total(r) for r in traced_runs) - plain
    layer["trace.overhead_s"] = overhead
    layer["trace.overhead_frac"] = overhead / plain
    return layer, traced_runs[0]["trace"]["absent"]


def write_trace(path, workload, seed, traced_runs, absent):
    spans = [row for r in traced_runs for row in r["trace"]["spans"]]
    path.write_text(json.dumps({
        "workload": workload, "seed": seed, "environment": environment(),
        "fields": tracer.SPAN_FIELDS, "absent": absent, "spans": spans,
    }))


def probe_steps(work):
    """The fixed probe sets and one ``riesz extract`` step per set."""
    probes = gen.probe_sets(work / "probes")
    steps = [
        ("probe", ["extract", "--images", files["images"], "--labels", files["labels"],
                   *flags, "--output", str(work / f"probe-{name}.csv")])
        for name, files, flags in probes
    ]
    return probes, steps


def run_gate(work, fault):
    """``riesz verify`` must pass 12/12; probe features must equal the recorded ones.

    Returns (problems, commands attempted, commands failed).
    """
    reference = gate.load_reference()
    probes, steps = probe_steps(work)
    steps.insert(0, ("verify", ["verify"]))
    result = run_worker({"steps": steps, "fault": fault}, work, "gate")
    if "crashed" in result:
        return [f"gate worker crashed: {result['crashed']}"], len(steps), len(steps)
    problems = [f"gate command failed: {argv[0]}" for (_, argv), step in zip(steps, result["steps"])
                if step["exit"] != 0]
    failed = len(problems)
    verify_out = result["steps"][0]["stdout"].strip().splitlines()
    if not verify_out or verify_out[-1] != "12/12 properties passed":
        problems.append(f"riesz verify: {verify_out[-1] if verify_out else 'no output'}")
    digest = gen.file_digest([f[k] for _, f, _ in probes for k in ("images", "labels")])
    if digest != reference["probes"]["digest"]:
        problems.append("probe inputs differ from the recorded ones; the generator changed")
    for name, _, _ in probes:
        matrix, _ = gate.read_feature_csv(work / f"probe-{name}.csv")
        err = gate.feature_mismatch(matrix, reference["probes"][name])
        if err > gate.FEATURE_RTOL:
            problems.append(f"probe {name}: features differ from the recorded ones by {err:.3e} relative")
    return problems, len(steps), failed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        correct, attempted, failed, metrics, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"pipebench: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print(note)
    print("environment " + json.dumps(environment()))
    print(f"failed_fraction {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
