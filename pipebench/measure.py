"""Time a worker's CLI steps, optionally traced; see ``worker.py``."""

from __future__ import annotations

import contextlib
import hashlib
import io
import signal
import statistics
import time
from pathlib import Path

import tracer as tracing

# An untraced step shorter than this is repeated in the same process and
# its median time kept; one run of a few milliseconds is mostly noise.
SHORT_STEP_S = 0.2
MAX_REPEATS = 40


# Host-speed probe.  On a shared host one core's speed drops by up to
# 1.7x for seconds to minutes at a time, and the drift between runs
# swamps the program's own differences.  A fixed pure-Python loop, timed
# from SIGALRM every PROBE_INTERVAL_S, slows in step with the program
# (cutting the spread of repetition times about threefold), so each step
# is reported at the speed where the loop takes REFERENCE_PROBE_S (an
# uncontended 2-vCPU Xeon VM).  The probe costs about 0.1% of run time.
PROBE_INTERVAL_S = 0.02
REFERENCE_PROBE_S = 25e-6


class SpeedProbe:
    """Samples the probe loop while active; ``scale`` converts wall time to reference speed."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        x = 0
        for i in range(400):
            x += i * i % 7
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scale(self, first=0):
        """Scale factor from the samples since index ``first`` (all samples if fewer than 3)."""
        window = self.samples[first:]
        if len(window) < 3:
            window = self.samples
        return REFERENCE_PROBE_S / statistics.median(window) if window else 1.0


def apply_fault(fault, patch_everywhere):
    """Self-test faults on the program's extract_features.

    ``delay:S`` adds S seconds to each call; ``perturb:R`` scales each
    returned feature vector by (1 + R).
    """
    if not fault:
        return
    kind, _, value = fault.partition(":")
    if kind not in ("delay", "perturb"):
        raise ValueError(f"unknown fault {fault!r}")
    amount = float(value)
    import rieszrep.representation as representation

    original = representation.extract_features

    def faulty(*args, **kwargs):
        if kind == "delay":
            time.sleep(amount)
        out = original(*args, **kwargs)
        return out * (1.0 + amount) if kind == "perturb" else out

    patch_everywhere(original, faulty)


def peak_rss_mb():
    """This process's peak resident memory in MiB.

    ``VmHWM`` belongs to the process's own address space and starts
    afresh at exec; ``ru_maxrss`` would also carry the spawning parent's
    peak.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_steps(spec, cli, setup_s):
    """Run the spec's steps through ``cli.main``; returns the worker's result dict."""
    apply_fault(spec.get("fault"), tracing.patch_everywhere)
    tracer = None
    if spec.get("trace"):
        tracer = tracing.Tracer(spec["run_id"])
        tracer.install()
    steps = []
    try:
        with SpeedProbe() as probe:
            for stage, argv in spec["steps"]:
                times, first = [], len(probe.samples)
                while True:
                    out = io.StringIO()
                    start = time.perf_counter()
                    with contextlib.redirect_stdout(out):
                        code = cli.main(argv)
                    times.append(time.perf_counter() - start)
                    if (code != 0 or tracer is not None or sum(times) >= SHORT_STEP_S
                            or len(times) >= MAX_REPEATS):
                        break
                scale = probe.scale(first)
                wall = statistics.median(times)
                steps.append({"stage": stage, "seconds": wall * scale, "first_seconds": times[0] * scale,
                              "wall_seconds": wall, "repeats": len(times), "exit": code,
                              "stdout": out.getvalue()})
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "setup_s": setup_s * probe.scale(),
        "speed_scale": probe.scale(),
        "steps": steps,
        "rss_mb": peak_rss_mb(),
        "digests": {p: digest(p) for p in spec.get("outputs", ()) if Path(p).exists()},
    }
    if tracer is not None:
        metrics, absent = tracer.summary()
        result["trace"] = {"metrics": metrics, "absent": absent, "spans": tracer.span_rows()}
    return result
