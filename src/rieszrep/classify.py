"""Classifiers over pooled feature vectors.

Two classifiers are provided: a nearest-subspace PCA classifier
(per-class mean plus principal subspace, smallest projection residual
wins) operating on raw features, and a linear one-vs-rest max-margin
classifier trained by seeded stochastic subgradient descent on
hinge loss + L2 (Pegasos), operating on max-abs normalized features.

The SGD loop never shrinks the weights.  With step size
eta_t = 1/(reg*t + 1) the per-step shrink factors telescope,
1 - eta_t*reg = eta_t/eta_{t-1}, so the weights after step t are
w_t = eta_t * v_t, where v_t is the plain sum of s*x over the margin
violations so far.  ``svm_fit`` keeps A = [v | b] as one
(classes, dim+1) array and stages each epoch's permuted samples as rows
[x, 1/eta_{t-1}], so one matrix-vector product gives every class's
margin test s*(w.x + b) < 1 scaled by 1/eta_{t-1}.

Ties are always broken toward the smallest class id.  Models
round-trip bit-exactly through a plain-text serialization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

MODEL_FORMAT_VERSION = "riesz-model v1"


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError(f"expected a non-empty 2d feature matrix, got {X.shape}")
    return X


def _as_labels(y, rows: int) -> np.ndarray:
    """Class ids as int64, one per sample; rejects negative or fractional ids."""
    y = np.asarray(y)
    if y.shape != (rows,):
        raise ValueError(f"expected {rows} labels, got shape {y.shape}")
    if y.dtype.kind not in "biuf":
        raise ValueError(f"labels must be integers, got dtype {y.dtype}")
    if y.dtype.kind == "f" and not np.all(np.isfinite(y) & (np.round(y) == y)):
        raise ValueError("labels must be integers")
    y = y.astype(np.int64)
    if y.min() < 0:
        raise ValueError(f"labels must be non-negative, got {y.min()}")
    return y


@dataclass(frozen=True)
class MaxAbsNormalizer:
    scales: np.ndarray  # positive, per coordinate

    def apply(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != self.scales.shape[0]:
            raise ValueError("feature dimension mismatch")
        return X / self.scales


def maxabs_fit(X) -> MaxAbsNormalizer:
    """Per-coordinate max absolute value over the training set; zeros map to 1."""
    X = _as_matrix(X)
    scales = np.abs(X).max(axis=0)
    scales[scales == 0] = 1.0
    return MaxAbsNormalizer(scales=scales)


@dataclass(frozen=True)
class PcaClassModel:
    means: np.ndarray  # (classes, dim)
    bases: tuple  # per class: (dim, d_c) with orthonormal columns
    components: int


def pca_fit(X, y, components: int) -> PcaClassModel:
    """Per-class mean and top-d principal directions via thin SVD."""
    X = _as_matrix(X)
    y = _as_labels(y, X.shape[0])
    if components < 1:
        raise ValueError("component count must be >= 1")
    class_count = int(y.max()) + 1
    means = np.zeros((class_count, X.shape[1]))
    bases = []
    for c in range(class_count):
        rows = X[y == c]
        if rows.shape[0] < 2:
            raise ValueError(f"class {c} has fewer than 2 training samples")
        means[c] = rows.mean(axis=0)
        centered = rows - means[c]
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        rank = int(np.sum(s > s[0] * max(centered.shape) * np.finfo(float).eps))
        d = min(components, max(rank, 1))
        if d < components:
            warnings.warn(
                f"class {c}: requested {components} components, "
                f"rank allows only {d}",
                stacklevel=2,
            )
        bases.append(vt[:d].T.copy())
    return PcaClassModel(means=means, bases=tuple(bases), components=components)


def pca_residuals(model: PcaClassModel, X) -> np.ndarray:
    """Projection residual norm of each sample against each class subspace."""
    X = _as_matrix(np.atleast_2d(X))
    if X.shape[1] != model.means.shape[1]:
        raise ValueError("feature dimension mismatch")
    res = np.empty((X.shape[0], model.means.shape[0]))
    for c, basis in enumerate(model.bases):
        centered = X - model.means[c]
        residual = centered - (centered @ basis) @ basis.T
        res[:, c] = np.linalg.norm(residual, axis=1)
    return res


def pca_predict(model: PcaClassModel, X) -> np.ndarray:
    """Class of the smallest projection residual (argmin keeps lowest id)."""
    return np.argmin(pca_residuals(model, X), axis=1)


@dataclass(frozen=True)
class SvmModel:
    weights: np.ndarray  # (classes, dim)
    biases: np.ndarray  # (classes,)
    reg: float
    epochs: int
    seed: int
    normalizer: MaxAbsNormalizer | None = None


def svm_fit(
    X,
    y,
    reg: float = 1e-4,
    epochs: int = 50,
    seed: int = 0,
    normalizer: MaxAbsNormalizer | None = None,
) -> SvmModel:
    """One-vs-rest linear hinge-loss classifiers, Pegasos-style SGD.

    Step size 1/(reg * t + 1): same 1/(reg*t) asymptotics, but bounded
    early steps so the unregularized bias stays stable.  The bias is
    updated on margin violations but not shrunk.  Training order is
    fully determined by the seed: one ``rng.permutation(n)`` per epoch.

    Step t tests the staged row r = [x, 1/eta_{t-1}] against A = [v | b]:
    class c violates when s_c * (A_c . r) < 1/eta_{t-1}, which is
    s_c * (w_c . x + b_c) < 1 for w = eta_{t-1} * v.  The row's last slot
    is then set to eta_t and A += u (outer) r with u = s * violated, so
    v gains u*x and b gains eta_t*u, the bias step of plain Pegasos.  The
    returned weights are eta_T * v.
    """
    X = _as_matrix(X)
    y = _as_labels(y, X.shape[0])
    reg = float(reg)
    if not (np.isfinite(reg) and reg >= 0):
        raise ValueError(f"reg must be finite and >= 0, got {reg}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    class_count = int(y.max()) + 1
    if class_count < 2:
        raise ValueError("need at least 2 classes")
    if normalizer is not None:
        X = normalizer.apply(X)
    n, dim = X.shape
    signs = np.where(y[:, None] == np.arange(class_count)[None, :], 1.0, -1.0)
    A = np.zeros((class_count, dim + 1))
    # the outer product u (outer) r runs as a (classes, 1) @ (1, dim+1)
    # np.dot into a reused buffer: one product per entry, so exact, and
    # cheaper than a broadcast multiply
    staged = np.empty((n, 1, dim + 1))
    rows = staged[:, 0]
    u_col = np.empty((class_count, 1))
    u = u_col[:, 0]
    outer = np.empty_like(A)
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        steps = np.arange(t + 1, t + n + 1, dtype=np.float64)
        rows[:, :dim] = X[order]
        rows[:, dim] = reg * (steps - 1.0) + 1.0
        etas = (1.0 / (reg * steps + 1.0)).tolist()
        for r, r_row, s, eta in zip(rows, staged, signs[order], etas):
            np.multiply(s, s * A.dot(r) < r[dim], out=u)
            r[dim] = eta
            np.dot(u_col, r_row, out=outer)
            A += outer
        t += n
    weights = A[:, :dim] * (1.0 / (reg * t + 1.0))
    return SvmModel(
        weights=weights,
        biases=A[:, dim].copy(),
        reg=reg,
        epochs=epochs,
        seed=seed,
        normalizer=normalizer,
    )


def svm_scores(model: SvmModel, X) -> np.ndarray:
    X = _as_matrix(np.atleast_2d(X))
    if X.shape[1] != model.weights.shape[1]:
        raise ValueError("feature dimension mismatch")
    if model.normalizer is not None:
        X = model.normalizer.apply(X)
    return X @ model.weights.T + model.biases


def svm_predict(model: SvmModel, X) -> np.ndarray:
    """Class of the highest decision score (argmax keeps lowest id on ties)."""
    return np.argmax(svm_scores(model, X), axis=1)


def predict(model, X) -> np.ndarray:
    if isinstance(model, PcaClassModel):
        return pca_predict(model, X)
    if isinstance(model, SvmModel):
        return svm_predict(model, X)
    raise TypeError(f"unknown model type {type(model).__name__}")


def evaluate(model, X, y):
    """Accuracy and per-class confusion matrix (rows = true class)."""
    X = _as_matrix(X)
    y = _as_labels(y, X.shape[0])
    pred = predict(model, X)
    class_count = int(max(y.max(), pred.max())) + 1
    confusion = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(confusion, (y, pred), 1)
    accuracy = float(np.mean(pred == y))
    return accuracy, confusion


def _fmt_row(row) -> str:
    return " ".join(format(float(v), ".17g") for v in np.atleast_1d(row))


def save_model(model, path):
    """Write a model as versioned plain text with full decimal precision."""
    lines = [MODEL_FORMAT_VERSION]
    if isinstance(model, PcaClassModel):
        lines.append("kind pca")
        lines.append(f"classes {model.means.shape[0]} dim {model.means.shape[1]}")
        lines.append(f"components {model.components}")
        for c, basis in enumerate(model.bases):
            lines.append(f"class {c} retained {basis.shape[1]}")
            lines.append(_fmt_row(model.means[c]))
            for j in range(basis.shape[1]):
                lines.append(_fmt_row(basis[:, j]))
    elif isinstance(model, SvmModel):
        lines.append("kind svm")
        lines.append(f"classes {model.weights.shape[0]} dim {model.weights.shape[1]}")
        lines.append(
            f"hyper reg {format(model.reg, '.17g')} "
            f"epochs {model.epochs} seed {model.seed}"
        )
        lines.append(f"normalized {int(model.normalizer is not None)}")
        if model.normalizer is not None:
            lines.append(_fmt_row(model.normalizer.scales))
        for row in model.weights:
            lines.append(_fmt_row(row))
        lines.append(_fmt_row(model.biases))
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path):
    """Read a model written by ``save_model``.

    A truncated or malformed file raises ``ValueError`` naming the path
    and the first line that is missing or cannot be parsed.
    """
    with open(path, encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unrecognized model format")
    pos = 0

    def fields():
        nonlocal pos
        pos += 1
        return lines[pos].split()

    def row(size):
        values = np.array([float(t) for t in fields()])
        if values.shape != (size,):
            raise ValueError(f"expected {size} values, found {values.size}")
        return values

    try:
        kind = fields()[1]
        _, classes, _, dim = fields()
        classes, dim = int(classes), int(dim)
        if classes < 1 or dim < 1:
            raise ValueError("class count and dim must be >= 1")
        if kind == "pca":
            components = int(fields()[1])
            means = np.zeros((classes, dim))
            bases = []
            for c in range(classes):
                basis = np.empty((dim, int(fields()[3])))
                means[c] = row(dim)
                for j in range(basis.shape[1]):
                    basis[:, j] = row(dim)
                bases.append(basis)
            return PcaClassModel(means=means, bases=tuple(bases), components=components)
        if kind == "svm":
            hyper = fields()
            reg, epochs, seed = float(hyper[2]), int(hyper[4]), int(hyper[6])
            flag = fields()
            if flag not in (["normalized", "0"], ["normalized", "1"]):
                raise ValueError("expected 'normalized 0' or 'normalized 1'")
            normalizer = MaxAbsNormalizer(scales=row(dim)) if flag[1] == "1" else None
            weights = np.empty((classes, dim))
            for c in range(classes):
                weights[c] = row(dim)
            return SvmModel(weights, row(classes), reg, epochs, seed, normalizer)
    except (IndexError, ValueError) as exc:
        if pos >= len(lines):
            raise ValueError(f"{path}: truncated, line {pos + 1} is missing") from exc
        raise ValueError(f"{path}: bad line {pos + 1} {lines[pos]!r}: {exc}") from exc
    raise ValueError(f"{path}: unknown model kind {kind!r}")
