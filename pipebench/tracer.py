"""In-memory span tracer that wraps the program's public functions.

Each traced function is replaced under every name a ``rieszrep`` module
binds it to (``rieszrep.representation.fft2`` as well as
``rieszrep.image_core.fft2``), so calls are seen where the caller looks
them up.  ``Tracer.uninstall`` restores every binding.  A target the
program no longer defines, or no longer calls, is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np

# (module, function) pairs, by layer; span names are "module.function"
TARGETS = (
    ("image_core", "load_idx"),
    ("image_core", "fft2"),
    ("image_core", "ifft2"),
    ("riesz", "first_order_multipliers"),
    ("representation", "steered_bank"),
    ("representation", "extract_features"),
    ("representation", "layer_S"),
    ("representation", "pool_global"),
    ("representation", "write_features_csv"),
    ("representation", "read_features_csv"),
    ("preprocess", "bbox_extract"),
    ("classify", "maxabs_fit"),
    ("classify", "svm_fit"),
    ("classify", "pca_fit"),
    ("classify", "predict"),
    ("classify", "save_model"),
    ("classify", "load_model"),
    ("cli", "load_input_images"),
    ("cli", "extract_matrix"),
)

SPAN_FIELDS = ("id", "parent", "name", "start", "end", "run")


def patch_everywhere(original, replacement):
    """Rebind every ``rieszrep`` module attribute that is ``original``.

    Returns the (module, attribute) pairs that were rebound.
    """
    patched = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "rieszrep" or modname.startswith("rieszrep.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched.append((module, attr))
    return patched


def restore(patched, original):
    for module, attr in patched:
        setattr(module, attr, original)


def _shape_points(array):
    shape = np.shape(array)
    return math.prod(shape) if len(shape) >= 2 else 0


class Tracer:
    """Records one span per traced call, plus counters kept at the same boundaries."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [id, parent, name, start, end]
        self.stack = []
        self.counters = {
            "image_core.transform_points": 0,
            "preprocess.crop_pixels": 0,
            "preprocess.blank": 0,
            "classify.svm_fit.steps": 0,
        }
        self.bank_keys = set()
        self.angles = {}  # extract_features span id -> M
        self.absent = []
        self._installed = []

    def install(self):
        for module_name, func_name in TARGETS:
            name = f"{module_name}.{func_name}"
            try:
                module = importlib.import_module(f"rieszrep.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            self._installed.append((patch_everywhere(original, wrapper), original))

    def uninstall(self):
        while self._installed:
            restore(*self._installed.pop())

    def _wrap(self, name, fn):
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0]
            spans.append(record)
            stack.append(record[0])
            error = None
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                record[4] = clock()
                stack.pop()
                try:
                    self._count(name, record[0], signature, args, kwargs, error)
                except (KeyError, TypeError, AttributeError, ValueError):
                    pass  # a changed signature loses the counter, never the call
            if name == "preprocess.bbox_extract":
                self.counters["preprocess.crop_pixels"] += _shape_points(result)
            return result

        return traced

    def _count(self, name, span_id, signature, args, kwargs, error):
        if name in ("image_core.fft2", "image_core.ifft2") and args:
            self.counters["image_core.transform_points"] += _shape_points(args[0])
        elif name == "preprocess.bbox_extract" and type(error).__name__ == "BlankImageError":
            self.counters["preprocess.blank"] += 1
        elif name == "representation.steered_bank":
            self.bank_keys.add(tuple(args) + tuple(sorted(kwargs.items())))
        elif name in ("representation.extract_features", "classify.svm_fit") and signature:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if name == "classify.svm_fit":
                steps = len(bound.arguments["X"]) * bound.arguments["epochs"]
                self.counters["classify.svm_fit.steps"] += steps
            else:
                self.angles[span_id] = bound.arguments["config"].angles

    def span_rows(self):
        return [record + [self.run_id] for record in self.spans]

    def summary(self):
        """Per-layer metrics of this trace: counts, inclusive and self seconds."""
        calls, seconds, child_seconds = {}, {}, {}
        children = {}
        for sid, parent, name, start, end in self.spans:
            calls[name] = calls.get(name, 0) + 1
            seconds[name] = seconds.get(name, 0.0) + (end - start)
            if parent >= 0:
                child_seconds[parent] = child_seconds.get(parent, 0.0) + (end - start)
                children.setdefault(parent, []).append(sid)

        def self_seconds(name):
            return sum(
                (end - start) - child_seconds.get(sid, 0.0)
                for sid, _, n, start, end in self.spans
                if n == name
            )

        m = dict(self.counters)
        for name in ("image_core.fft2", "image_core.ifft2", "riesz.first_order_multipliers",
                     "representation.steered_bank", "representation.extract_features",
                     "representation.layer_S", "representation.pool_global",
                     "preprocess.bbox_extract"):
            m[f"{name}.calls"] = calls.get(name, 0)
        for name in ("image_core.load_idx", "image_core.fft2", "image_core.ifft2",
                     "riesz.first_order_multipliers", "representation.extract_features",
                     "representation.pool_global", "representation.write_features_csv",
                     "representation.read_features_csv", "preprocess.bbox_extract",
                     "classify.maxabs_fit", "classify.svm_fit", "classify.pca_fit",
                     "classify.predict", "classify.save_model", "classify.load_model",
                     "cli.load_input_images"):
            m[f"{name}.s"] = seconds.get(name, 0.0)
        m["representation.layer_S.self_s"] = self_seconds("representation.layer_S")
        m["cli.extract_matrix.self_s"] = self_seconds("cli.extract_matrix")

        bank_calls = calls.get("representation.steered_bank", 0)
        m["representation.steered_bank.shapes"] = len(self.bank_keys)
        m["representation.bank_reuse"] = 1.0 - len(self.bank_keys) / bank_calls if bank_calls else 0.0

        durations = sorted(
            (end - start) * 1e3
            for _, _, n, start, end in self.spans
            if n == "representation.extract_features"
        )
        m["representation.extract_features.ms_p50"] = _percentile(durations, 50)
        m["representation.extract_features.ms_p90"] = _percentile(durations, 90)

        # depth of each layer_S call, by its order inside its extract_features span
        levels = {1: 0.0, 2: 0.0, 3: 0.0}
        by_id = {record[0]: record for record in self.spans}
        for span_id, angles in self.angles.items():
            layers = [by_id[c] for c in children.get(span_id, ()) if by_id[c][2] == "representation.layer_S"]
            depth, width, seen = 1, 1, 0
            for _, _, _, start, end in layers:
                if seen == width:
                    depth, width, seen = depth + 1, width * angles, 0
                if depth in levels:
                    levels[depth] += end - start
                seen += 1
        for depth, value in levels.items():
            m[f"representation.level{depth}.s"] = value

        images = calls.get("representation.extract_features", 0)
        for key, name in (("image_core.fft2.per_image", "image_core.fft2"),
                          ("image_core.ifft2.per_image", "image_core.ifft2"),
                          ("representation.pool_global.per_image", "representation.pool_global")):
            m[key] = calls.get(name, 0) / images if images else 0.0

        called = set(calls)
        not_called = [
            f"{mod}.{fn}" for mod, fn in TARGETS
            if f"{mod}.{fn}" not in called and f"{mod}.{fn}" not in self.absent
        ]
        return m, {"undefined": list(self.absent), "not_called": not_called}


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return float(np.percentile(sorted_values, q))


def predicted_counts(depth, angles):
    """Per-image transform and pool counts of the seed hierarchy.

    Forward FFTs: one per map that feeds a layer, sum_{k<K} M^k.
    Inverse FFTs: two per produced map, 2 * sum_{1<=k<=K} M^k.
    Pools: one per map, sum_{k<=K} M^k.
    """
    forward = sum(angles**k for k in range(depth))
    inverse = 2 * sum(angles**k for k in range(1, depth + 1))
    pools = sum(angles**k for k in range(depth + 1))
    return {
        "image_core.fft2.per_image": forward,
        "image_core.ifft2.per_image": inverse,
        "representation.pool_global.per_image": pools,
    }
