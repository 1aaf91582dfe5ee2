"""Self-tests of the pipeline benchmark.

Run from the root of a checkout: ``python3 -m pytest -q pipebench``.
They run the real workloads for short periods, so they take a few
minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import gate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
DELAY = "delay:0.15"  # seconds added to every extract_features call
# one repetition suffices where the delay dominates; features-train needs
# several so that host noise alone does not cross a bound
SENSITIVITY_SECONDS = {"digits-bbox": 0, "textures-fixed": 0, "features-train": 12}


@pytest.fixture
def scratch(request):
    """A fresh directory under the benchmark's work directory, removed afterwards."""
    path = run.BENCH_DIR / "_work" / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


def bench(workload, trace=False, fault=None, seconds=0, seed=3):
    return run.run(workload, seed, seconds, trace, fault)


@pytest.fixture(scope="module")
def traced():
    return {w: bench(w, trace=True) for w in ("digits-bbox", "textures-fixed")}


def test_benchmark_json_lists_exactly_the_reported_metrics(traced):
    correct, _, failed, metrics, notes = bench("features-train")
    assert correct and failed == 0, notes
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert sorted(traced["digits-bbox"][3]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)


@pytest.mark.parametrize("workload", ["digits-bbox", "textures-fixed"])
def test_traced_counts_equal_predicted(traced, workload):
    correct, _, _, metrics, notes = traced[workload]
    assert correct, notes
    depth, angles, _ = run.CONFIGS[workload]
    for key, value in tracer.predicted_counts(depth, angles).items():
        assert metrics[key][0] == value, key
    assert metrics["representation.layer_S.calls"][0] == metrics["image_core.fft2.calls"][0]
    assert metrics["representation.level1.s"][0] > 0
    assert (metrics["representation.level3.s"][0] > 0) == (depth == 3)


def test_tracer_restores_bindings_and_reports_absent(monkeypatch):
    run_src = str(run.ROOT / "src")
    monkeypatch.syspath_prepend(run_src)
    import rieszrep.cli  # noqa: F401
    import rieszrep.representation as representation

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("representation", "removed_engine"),))
    originals = (representation.fft2, representation.extract_features)
    t = tracer.Tracer("test")
    t.install()
    assert representation.fft2 is not originals[0]
    representation.extract_features(np.ones((8, 8)), representation.RieszConfig(depth=1, angles=4))
    t.uninstall()
    assert (representation.fft2, representation.extract_features) == originals
    metrics, absent = t.summary()
    assert absent["undefined"] == ["representation.removed_engine"]
    assert "classify.svm_fit" in absent["not_called"]
    assert metrics["image_core.fft2.per_image"] == 1
    assert metrics["image_core.ifft2.per_image"] == 8


def test_reference_implementation_matches_recorded_probes(scratch):
    reference = gate.load_reference()
    for name, files, flags in gen.probe_sets(scratch):
        depth, angles = int(flags[1]), int(flags[3])
        for image, recorded in zip(gate.read_idx_images(files["images"]), reference["probes"][name]):
            img = gate.reference_crop(image) if "--bbox" in flags else image
            assert gate.feature_mismatch(gate.reference_features(img, depth, angles), recorded) == 0.0


def test_feature_mismatch_threshold():
    expected = np.array([0.5, 0.25, 1e-3])
    assert gate.feature_mismatch(expected * (1 + 5e-13), expected) <= gate.FEATURE_RTOL
    assert gate.feature_mismatch(expected * (1 + 2e-12), expected) > gate.FEATURE_RTOL
    assert gate.feature_mismatch(np.append(expected[:2], np.nan), expected) == np.inf


@pytest.mark.parametrize("rel, passes", [(1e-13, True), (1e-11, False)])
def test_gate_catches_perturbed_features(rel, passes):
    correct, _, _, _, notes = bench("features-train", fault=f"perturb:{rel}")
    assert correct == passes, notes
    if not passes:
        assert any("probe" in n and "relative" in n for n in notes)


def test_gate_catches_perturbed_extract_rows():
    correct, _, _, _, notes = bench("textures-fixed", fault="perturb:1e-11")
    assert not correct
    assert any("differs from the reference" in n for n in notes)


def test_sensitivity_to_slower_extraction():
    base, slow = {}, {}
    for workload in gen.WORKLOADS:
        for results, fault in ((base, None), (slow, DELAY)):
            correct, _, _, metrics, notes = bench(workload, fault=fault, seconds=SENSITIVITY_SECONDS[workload])
            assert correct, notes
            results[workload] = [{k: {"value": v} for k, (v, _) in metrics.items()}]
    flagged = {(w, m) for w, m, _, _ in compare.regressions(base, slow, SPEC)}
    for workload in ("digits-bbox", "textures-fixed"):
        assert (workload, "extract_images_per_s") in flagged
        assert (workload, "total_s") in flagged
    assert not any(w == "features-train" for w, _ in flagged), flagged


def test_fails_without_program_sources(scratch):
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH_DIR, scratch / "pipebench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "features-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
