"""Record the gate's reference values from the program as it stands.

Usage, from the root of a checkout::

    python3 pipebench/record.py

Writes ``pipebench/reference.json``: the features of the fixed probe
sets and, per workload, the accuracy for seeds ``0 .. SEEDS-1`` plus a floor
for other seeds.  The recorded values define correct output, so run
this only at a commit whose features and accuracies are the reference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

SEEDS = 40  # seeds whose accuracy is recorded
# Accuracy on an unrecorded seed may sit this far below the lowest recorded one.
FLOOR_MARGIN = 0.05


def record_probes(work):
    probes, steps = run.probe_steps(work)
    result = run.run_worker({"steps": steps}, work, "probes")
    if "crashed" in result or any(step["exit"] for step in result["steps"]):
        raise RuntimeError(f"probe extraction failed: {result}")
    recorded = {"digest": gen.file_digest([f[k] for _, f, _ in probes for k in ("images", "labels")])}
    for name, _, _ in probes:
        recorded[name] = gate.read_feature_csv(work / f"probe-{name}.csv")[0].tolist()
    return recorded


def record_accuracy(work, workload, seeds):
    accuracies = {}
    for seed in range(seeds):
        files = gen.generate(workload, seed, work / "inputs")
        steps, _, _, _, eval_output = run.sequence(workload, files, work)
        result = run.run_worker({"steps": steps}, work, "accuracy")
        if "crashed" in result or any(step["exit"] for step in result["steps"]):
            raise RuntimeError(f"{workload} seed {seed} failed: {result}")
        accuracies[str(seed)] = run.read_accuracy(eval_output)
        print(workload, seed, accuracies[str(seed)], flush=True)
    return {"floor": min(accuracies.values()) - FLOOR_MARGIN, "seeds": accuracies}


def main():
    work = run.BENCH_DIR / "_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    reference = {"probes": record_probes(work), "accuracy": {}}
    for workload in gen.WORKLOADS:
        reference["accuracy"][workload] = record_accuracy(work / workload, workload, SEEDS)
    gate.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
