"""Correctness gate: reference features, feature CSV checks, recorded values.

``reference_features`` is a frozen numpy copy of the feature hierarchy
and bounding-box crop as first released (DFT on the signed grid, DC
zeroed, Nyquist lines rotated onto the real axis, two inverse FFTs per
steered filter, mean pooling).  Rows the program writes are compared
with it, and probe features with values recorded from that release,
within ``FEATURE_RTOL`` relative error per feature.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

FEATURE_RTOL = 1e-12
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _signed_freq(n):
    k = np.arange(n)
    return np.where(k <= n // 2, k, k - n) / n


def _steered_bank(angles, height, width):
    u1 = _signed_freq(height)[:, None]
    u2 = _signed_freq(width)[None, :]
    mag = np.hypot(u1, u2)
    mag[0, 0] = 1.0
    m1 = -1j * u1 / mag + np.zeros((height, width))
    m2 = -1j * u2 / mag + np.zeros((height, width))
    if height % 2 == 0:
        m1[height // 2, :] = np.abs(u1[height // 2, 0]) / mag[height // 2, :]
    if width % 2 == 0:
        m2[:, width // 2] = np.abs(u2[0, width // 2]) / mag[:, width // 2]
    m1[0, 0] = 0.0
    m2[0, 0] = 0.0
    return [
        math.cos(k * math.pi / angles) * m1 + math.sin(k * math.pi / angles) * m2
        for k in range(angles)
    ]


def reference_features(img, depth, angles):
    """Pooled feature vector (mean pooling, scale constant 1)."""
    img = np.asarray(img, dtype=np.float64)
    bank = _steered_bank(angles, *img.shape)
    values = [float(img.mean())]
    level = [img]
    for _ in range(depth):
        nxt = []
        for g in level:
            spec = np.fft.fft2(g)
            for m in bank:
                imag_part = np.fft.ifft2(m * spec).real
                real_part = np.fft.ifft2(m * m * spec).real
                nxt.append(np.hypot(real_part, imag_part))
        values.extend(float(g.mean()) for g in nxt)
        level = nxt
    return np.array(values)


def reference_crop(img, pad=50, threshold=0.5, enlarge=0.4):
    """Enlarged foreground box of the min-max normalized, padded image; None if blank."""
    img = np.asarray(img, dtype=np.float64)
    lo, hi = img.min(), img.max()
    img = np.zeros_like(img) if hi == lo else (img - lo) / (hi - lo)
    padded = np.pad(img, pad)
    mask = padded >= threshold
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        return None
    h, w = rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1
    rc, cc = rows[0] + h / 2.0, cols[0] + w / 2.0
    hh, hw = h / 2.0 * (1.0 + enlarge), w / 2.0 * (1.0 + enlarge)
    r0, c0 = max(0, math.floor(rc - hh)), max(0, math.floor(cc - hw))
    r1 = min(padded.shape[0], math.ceil(rc + hh))
    c1 = min(padded.shape[1], math.ceil(cc + hw))
    return padded[r0:r1, c0:c1]


def read_idx_images(path):
    """IDX images as float64 in [0, 1], as the program loads them."""
    data = Path(path).read_bytes()
    count, height, width = (int.from_bytes(data[i : i + 4], "big") for i in (4, 8, 12))
    raw = np.frombuffer(data, dtype=np.uint8, offset=16).reshape(count, height, width)
    return raw.astype(np.float64) / 255.0


def read_feature_csv(path):
    """(matrix, labels) of a feature CSV whose last column is the label."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = [row for row in csv.reader(fh) if row][1:]
    matrix = np.array([[float(v) for v in row[:-1]] for row in rows])
    return matrix, np.array([int(row[-1]) for row in rows])


def feature_mismatch(actual, expected):
    """Largest per-feature relative error; inf when shapes differ or a value is not finite."""
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    if actual.shape != expected.shape or not np.all(np.isfinite(actual)):
        return math.inf
    scale = np.abs(expected)
    err = np.abs(actual - expected)
    exact = scale == 0
    if np.any(err[exact] != 0):
        return math.inf
    return float(np.max(err[~exact] / scale[~exact], initial=0.0))


def check_extract_csv(csv_path, idx_path, blanks, depth, angles, bbox, sample=4):
    """Problems with one ``riesz extract`` output, and the count of unexpected NaN rows.

    Deliberate blanks must be NaN rows and no other row may be; an evenly
    spaced sample of rows must match ``reference_features``.
    """
    problems = []
    matrix, _ = read_feature_csv(csv_path)
    images = read_idx_images(idx_path)
    width = sum(angles**k for k in range(depth + 1))
    if matrix.shape != (len(images), width):
        return [f"{csv_path}: shape {matrix.shape}, expected {(len(images), width)}"], 0
    flagged = set(np.flatnonzero(np.isnan(matrix).any(axis=1)).tolist())
    blanks = set(blanks)
    if blanks - flagged:
        problems.append(f"{csv_path}: blank images {sorted(blanks - flagged)} not flagged")
    bad_nan = flagged - blanks
    if bad_nan:
        problems.append(f"{csv_path}: NaN rows for non-blank images {sorted(bad_nan)}")
    candidates = [i for i in range(len(images)) if i not in flagged]
    picks = candidates[:: max(1, len(candidates) // sample)][:sample]
    for i in picks:
        img = reference_crop(images[i]) if bbox else images[i]
        err = feature_mismatch(matrix[i], reference_features(img, depth, angles))
        if err > FEATURE_RTOL:
            problems.append(f"{csv_path}: row {i} differs from the reference by {err:.3e} relative")
    return problems, len(bad_nan)


def load_reference():
    return json.loads(REFERENCE.read_text())


def accuracy_floor(reference, workload, seed):
    """Recorded accuracy for this seed, else the workload's recorded floor."""
    recorded = reference["accuracy"][workload]
    return recorded["seeds"].get(str(seed), recorded["floor"])
