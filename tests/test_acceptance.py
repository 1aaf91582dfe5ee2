"""End-to-end acceptance checks, one test per criterion.

The numerical properties are the ``rieszrep.verify.PROPERTIES``
registry, measured exactly as ``riesz verify`` measures them: one
parametrised ``test_property`` case each, apart from three that keep a
named test of their own.  Each test prints a single ``ACCEPTANCE <name>: PASS|FAIL`` line before
asserting, so the full scorecard is visible in the pytest output.  The
two dataset reproductions look for data under ``RIESZ_DATA_DIR`` (see
README) and skip with a warning when the data is not installed.
"""

import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from rieszrep.classify import evaluate, maxabs_fit, pca_fit, svm_fit
from rieszrep.image_core import load_gray_image, load_idx
from rieszrep.preprocess import bbox_compute
from rieszrep.representation import (
    RieszConfig,
    extract_features,
    feature_paths,
)
from rieszrep.verify import PROPERTIES, check

MNIST_SCALES = ("0.5", "1", "2", "4")
KTH_SEEDS = (42, 21, 10, 5, 0)


def _report(name, passed, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def _skip(name, reason):
    print(f"ACCEPTANCE {name}: SKIP ({reason})")
    warnings.warn(f"{name} skipped: {reason}")
    pytest.skip(reason)


def _data_dir(subdir):
    root = os.environ.get("RIESZ_DATA_DIR")
    if not root:
        return None
    path = Path(root) / subdir
    return path if path.is_dir() else None


def test_feature_count_exactness():
    start = time.perf_counter()
    f = np.random.default_rng(0).standard_normal((32, 32))
    n85 = len(extract_features(f, RieszConfig(depth=3, angles=4)))
    n73 = len(extract_features(f, RieszConfig(depth=2, angles=8)))
    elapsed = time.perf_counter() - start
    _report(
        "feature-count",
        n85 == 85 and n73 == 73 and elapsed < 1.0,
        f"counts {n85}/{n73}, {elapsed:.2f}s",
    )


def _check_property(index):
    r = check(index)
    _report(r.name, r.passed, f"measured {r.measured:.2e}, tolerance {r.tolerance:g}")


def _index(name):
    return [n for n, _, _ in PROPERTIES].index(name)


# Properties with a test of their own below; the rest run as ``test_property``.
_OWN_TEST = ("all-pass", "zero-integral", "scale-equivariance")
_SHARED = [i for i, (name, _, _) in enumerate(PROPERTIES) if name not in _OWN_TEST]


@pytest.mark.parametrize("index", _SHARED, ids=[PROPERTIES[i][0] for i in _SHARED])
def test_property(index):
    _check_property(index)


def test_all_pass():
    _check_property(_index("all-pass"))


def test_kernel_zero_integral():
    _check_property(_index("zero-integral"))


def test_scale_equivariance():
    _check_property(_index("scale-equivariance"))


# ---------------------------------------------------------------------------
# dataset reproductions


def _mnist_features(images, cfg):
    rows = []
    for img in images:
        rows.append(extract_features(bbox_compute(img)[0], cfg))
    return np.array(rows)


def test_mnist_multi_scale_reproduction():
    data = _data_dir("mnist_large_scale")
    if data is None:
        _skip("mnist-reproduction", "mnist_large_scale not found under RIESZ_DATA_DIR")
    cfg = RieszConfig(depth=3, angles=4)
    images, labels = load_idx(data / "train-images.idx", data / "train-labels.idx")
    X = _mnist_features(images[:1000], cfg)
    y = labels[:1000]
    model = svm_fit(X, y, normalizer=maxabs_fit(X))
    targets = {"0.5": 71.16, "1": 87.49, "2": 84.74, "4": 84.53}
    details, ok = [], True
    for scale in MNIST_SCALES:
        images, labels = load_idx(
            data / f"test-images-scale-{scale}.idx",
            data / f"test-labels-scale-{scale}.idx",
        )
        Xt = _mnist_features(images[:1000], cfg)
        acc, _ = evaluate(model, Xt, labels[:1000])
        diff = 100 * acc - targets[scale]
        ok = ok and abs(diff) <= 5.0
        details.append(f"scale {scale}: {100 * acc:.2f}% ({diff:+.2f}pp)")
    _report("mnist-reproduction", ok, "; ".join(details))


def _load_kth(data):
    classes = sorted(p for p in data.iterdir() if p.is_dir())
    images, labels = [], []
    for label, cls in enumerate(classes):
        files = sorted(
            p for p in cls.iterdir() if p.suffix.lower() in (".pgm", ".pnm", ".txt")
        )
        for p in files:
            images.append(load_gray_image(p))
            labels.append(label)
    return images, np.array(labels), len(classes)


def _kth_feature_matrix(data):
    cfg = RieszConfig(depth=3, angles=4)
    images, labels, n_classes = _load_kth(data)
    X = np.array([extract_features(img, cfg) for img in images])
    return X, labels, n_classes


def _split_per_class(labels, n_train, seed):
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        perm = rng.permutation(len(idx))
        train_idx.extend(idx[perm[:n_train]])
        test_idx.extend(idx[perm[n_train:]])
    return np.array(train_idx), np.array(test_idx)


@pytest.fixture(scope="module")
def kth_features():
    data = _data_dir("kth_tips")
    if data is None:
        return None
    return _kth_feature_matrix(data)


def test_kth_reproduction(kth_features):
    if kth_features is None:
        _skip("kth-reproduction", "kth_tips not found under RIESZ_DATA_DIR")
    X, labels, _ = kth_features
    accs = []
    for seed in KTH_SEEDS:
        tr, te = _split_per_class(labels, 40, seed)
        norm = maxabs_fit(X[tr])
        model = pca_fit(norm.apply(X[tr]), labels[tr], 20)
        acc, _ = evaluate(model, norm.apply(X[te]), labels[te])
        accs.append(acc)
    mean = 100 * np.mean(accs)
    _report(
        "kth-reproduction",
        mean >= 91.0,
        f"mean {mean:.2f}% over seeds {KTH_SEEDS} (target >= 91, ref 95.61)",
    )


def test_scale_constant_stability(kth_features):
    # the exact homogeneity invariant runs unconditionally
    rng = np.random.default_rng(2)
    f = rng.standard_normal((32, 32))
    depths = np.array([len(p) for p in feature_paths(3, 4)])
    base = extract_features(f, RieszConfig(depth=3, scale_constant=1.0))
    worst = 0.0
    for c in (0.25, 4.0):
        scaled = extract_features(f, RieszConfig(depth=3, scale_constant=c))
        expected = base * c**depths
        worst = max(worst, np.abs(scaled - expected).max() / np.abs(expected).max())
    homo_ok = worst <= 1e-10

    if kth_features is None:
        _report("scale-constant-homogeneity", homo_ok, f"worst deviation {worst:.2e}")
        _skip(
            "scale-constant-ablation", "kth_tips not found under RIESZ_DATA_DIR"
        )
    X, labels, _ = kth_features
    depth_scale = {c: c**depths for c in (0.25, 1.0, 4.0)}
    tr, te = _split_per_class(labels, 40, 42)
    accs = {}
    for c, factor in depth_scale.items():
        Xc = X * factor  # exact homogeneity, verified above
        norm = maxabs_fit(Xc[tr])
        model = pca_fit(norm.apply(Xc[tr]), labels[tr], 20)
        acc, _ = evaluate(model, norm.apply(Xc[te]), labels[te])
        accs[c] = 100 * acc
    spread = max(accs.values()) - min(accs.values())
    _report(
        "scale-constant-ablation",
        homo_ok and spread <= 3.0,
        f"homogeneity {worst:.2e}; accuracies {accs}, spread {spread:.2f}pp",
    )
