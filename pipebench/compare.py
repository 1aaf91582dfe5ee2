"""Compare two sets of benchmark results against the bounds in BENCHMARK.json."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def regressions(base, candidate, spec=None):
    """End-to-end metrics whose candidate median is worse than the base median by more than its bound.

    ``base`` and ``candidate`` map a workload name to a list of ``metrics``
    objects, as printed on the last line of ``run.py``.  Returns
    ``(workload, metric, base_median, candidate_median)`` tuples.
    """
    spec = spec or json.loads(SPEC.read_text())
    found = []
    for workload in sorted(set(base) & set(candidate)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old = statistics.median(run[name]["value"] for run in base[workload])
            new = statistics.median(run[name]["value"] for run in candidate[workload])
            change = (new - old) / old if metric["better"] == "lower" else (old - new) / old
            if change > metric["bound"]:
                found.append((workload, name, old, new))
    return found
