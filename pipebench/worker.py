"""Run one command sequence of the ``riesz`` CLI in a fresh interpreter.

Usage: ``python3 pipebench/worker.py SPEC.json``.  The spec names the
checkout root, the CLI argument lists to run in order through
``rieszrep.cli.main``, whether to trace, an optional self-test fault
and where to write the result JSON.  Steps must be safe to repeat:
each rewrites the same output files.  A fresh process per sequence
gives every sequence the cold caches a real ``riesz`` invocation has.

This module imports only what it needs before ``setup_s`` is taken;
the harness itself (``measure.py``) is imported after the program.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def import_program(root):
    """Import rieszrep.cli from ``root/src`` and refuse any other copy."""
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    import rieszrep.cli

    location = Path(rieszrep.cli.__file__).resolve()
    if src not in location.parents:
        raise ImportError(f"rieszrep imported from {location}, not from {src}")
    return rieszrep.cli


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    cli = import_program(spec["root"])
    # perf_counter is CLOCK_MONOTONIC, shared by all processes, so this is
    # the time from the parent's spawn to a usable rieszrep.cli
    setup_s = time.perf_counter() - spec["spawned"]
    sys.path.insert(0, str(BENCH_DIR))
    import measure  # after the program, so setup_s excludes the harness

    result = measure.run_steps(spec, cli, setup_s)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
