"""Seeded input generators for the pipeline benchmark.

Every workload input is a file the ``riesz`` CLI reads: IDX image/label
pairs, an evaluation manifest, or a feature CSV.  The same seed always
gives byte-identical files.  This module never imports the program.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import struct
from pathlib import Path

import numpy as np

FRAME = 112  # digit frame, as in MNIST Large Scale
DIGIT_HEIGHT = 16  # glyph height in pixels at scale 1
DIGIT_TRAIN = 100  # scale-1 training digits (10 per class)
DIGIT_TEST = 20  # digits per test shard (2 per class)
DIGIT_SCALES = (0.5, 1.0, 2.0, 4.0)
DIGIT_BLANKS = 2  # extra all-zero images per file (train and each test shard)
GLYPH_SEED = 1120  # fixed: glyph geometry is seed-independent

TEXTURE_SIZE = 128
TEXTURE_CLASSES = 5
TEXTURE_TRAIN = 3  # per class
TEXTURE_TEST = 3  # per class

FEATURE_DEPTH, FEATURE_ANGLES = 3, 4  # 85 columns
FEATURE_CLASSES = 10
FEATURE_TRAIN = 2000
FEATURE_TEST = 1000

PROBE_SEED = 20230717  # fixed: probes are seed-independent

_WORKLOAD_IDS = {"digits-bbox": 1, "textures-fixed": 2, "features-train": 3}
WORKLOADS = tuple(_WORKLOAD_IDS)


def _arc(cx, cy, rx, ry, a0, a1, n):
    """Polyline along an ellipse arc; angles in degrees, counterclockwise as drawn (y down)."""
    t = np.radians(np.linspace(a0, a1, n))
    return list(zip(cx + rx * np.cos(t), cy - ry * np.sin(t)))


# Stroke polylines per class on a unit box (x right, y down).  Arcs and
# diagonals give each class its own orientation statistics, which the
# globally pooled features can tell apart across scales.
_GLYPHS = (
    [_arc(0.5, 0.5, 0.5, 0.5, 0, 360, 16)],
    [[(0.25, 0.2), (0.55, 0.0), (0.55, 1.0)]],
    [_arc(0.5, 0.27, 0.5, 0.27, 160, -10, 8) + [(0.0, 1.0), (1.0, 1.0)]],
    [_arc(0.45, 0.25, 0.45, 0.25, 150, -90, 8), _arc(0.45, 0.72, 0.5, 0.28, 90, -150, 8)],
    [[(0.75, 1.0), (0.75, 0.0), (0.0, 0.7), (1.0, 0.7)]],
    [[(1.0, 0.0), (0.05, 0.0), (0.0, 0.45)] + _arc(0.45, 0.7, 0.5, 0.3, 120, -150, 8)],
    [_arc(0.5, 0.72, 0.5, 0.28, 0, 360, 12), _arc(0.9, 0.72, 0.9, 0.72, 90, 180, 8)],
    [[(0.0, 0.0), (1.0, 0.0), (0.35, 1.0)]],
    [_arc(0.5, 0.25, 0.4, 0.25, 0, 360, 12), _arc(0.5, 0.73, 0.5, 0.27, 0, 360, 12)],
    [_arc(0.5, 0.28, 0.5, 0.28, 0, 360, 12), [(1.0, 0.28), (0.85, 1.0)]],
)


def write_idx(images_path, labels_path, images, labels):
    """Write uint8 images (N, H, W) and labels as a big-endian IDX pair."""
    images = np.asarray(images, dtype=np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">iiii", 0x00000803, *images.shape))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", 0x00000801, len(labels)))
        fh.write(bytes(int(v) for v in labels))


def feature_labels(depth, angles):
    """Feature CSV column names, depth-major lexicographic paths."""
    return [
        "[" + ",".join(str(i) for i in path) + "]"
        for k in range(depth + 1)
        for path in itertools.product(range(angles), repeat=k)
    ]


def feature_count(depth, angles):
    return sum(angles**k for k in range(depth + 1))


def _quantize(img):
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def render_digit(shape_rng, rng, label, scale, frame=FRAME):
    """One glyph as uint8: ``shape_rng`` draws its geometry, ``rng`` its placement and noise.

    The glyph is placed at whole-pixel offsets and the noise stays off
    the strokes, so its bounding-box crop has the same shape wherever
    ``rng`` puts it.
    """
    height = DIGIT_HEIGHT * scale * shape_rng.uniform(0.92, 1.08)
    width = height * shape_rng.uniform(0.55, 0.7)
    stroke = max(1.0, height * shape_rng.uniform(0.08, 0.11))
    slant = shape_rng.uniform(-0.15, 0.15)
    jitter = shape_rng.uniform(-0.04, 0.04, (len(_GLYPHS[label]), 2))
    margin = stroke + 1
    top = rng.integers(math.ceil(margin), math.floor(frame - height - margin) + 1)
    low = math.ceil(margin + abs(slant) * height)
    left = rng.integers(low, max(low, math.floor(frame - width - margin - abs(slant) * height)) + 1)
    yy, xx = np.mgrid[0:frame, 0:frame] + 0.5
    img = np.zeros((frame, frame))
    for line, (jx, jy) in zip(_GLYPHS[label], jitter):
        points = [
            (left + (x + jx) * width + slant * (0.5 - y) * height, top + (y + jy) * height)
            for x, y in line
        ]
        for (px, py), (qx, qy) in zip(points[:-1], points[1:]):
            dx, dy = qx - px, qy - py
            t = np.clip(((xx - px) * dx + (yy - py) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
            dist2 = (xx - px - t * dx) ** 2 + (yy - py - t * dy) ** 2
            img = np.maximum(img, np.exp(-dist2 / (0.5 * stroke * stroke)))
    img /= img.max()
    img += rng.uniform(0.0, 0.04, img.shape) * (img < 0.05)
    return _quantize(img)


def digit_set(rng, shard, count, scale):
    """``count`` class-balanced digits plus DIGIT_BLANKS all-zero images at seeded slots.

    The glyph geometry comes from a stream fixed per shard, so every seed
    yields the same crop shapes: FFT cost differs several-fold between
    smooth and prime lengths, and a seed-drawn mix of lengths would make
    the work itself vary from seed to seed.  The seed draws the order,
    the placement, the background noise and the blank slots.
    """
    shape_rng = np.random.default_rng([GLYPH_SEED, shard])
    glyphs = [
        (label, render_digit(shape_rng, rng, label, scale))
        for label in np.arange(count) % 10
    ]
    order = rng.permutation(count)
    total = count + DIGIT_BLANKS
    blanks = sorted(rng.choice(total, DIGIT_BLANKS, replace=False).tolist())
    images = np.zeros((total, FRAME, FRAME), dtype=np.uint8)
    labels = np.zeros(total, dtype=np.int64)
    slots = [i for i in range(total) if i not in blanks]
    for slot, index in zip(slots, order):
        labels[slot], images[slot] = glyphs[index]
    labels[blanks] = rng.integers(0, 10, DIGIT_BLANKS)
    return images, labels, blanks


def render_texture(rng, label, size=TEXTURE_SIZE):
    """Two oriented gratings plus smooth noise; the class fixes orientations and frequencies."""
    theta = math.pi * label / TEXTURE_CLASSES
    freqs = (0.05 + 0.02 * label, 0.16 - 0.015 * label)
    yy, xx = np.mgrid[0:size, 0:size]
    img = np.zeros((size, size))
    for j, (offset, freq) in enumerate(zip((0.0, math.pi / 3), freqs)):
        angle = theta + offset + rng.uniform(-0.06, 0.06)
        f = freq * rng.uniform(0.95, 1.05)
        phase = rng.uniform(0, 2 * math.pi)
        img += (1.0 - 0.4 * j) * np.cos(
            2 * math.pi * f * (xx * math.cos(angle) + yy * math.sin(angle)) + phase
        )
    noise = np.fft.ifft2(
        np.fft.fft2(rng.standard_normal((size, size)))
        * np.exp(-((np.fft.fftfreq(size)[:, None] ** 2 + np.fft.fftfreq(size)[None, :] ** 2) / 0.01))
    ).real
    img += 0.5 * noise / noise.std()
    return _quantize((img - img.min()) / (img.max() - img.min()))


def texture_set(rng, per_class):
    labels = np.repeat(np.arange(TEXTURE_CLASSES), per_class)
    rng.shuffle(labels)
    images = np.stack([render_texture(rng, int(label)) for label in labels])
    return images, labels


def write_feature_csv(path, matrix, labels, depth, angles):
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(feature_labels(depth, angles) + ["label"])
        for row, label in zip(matrix, labels):
            writer.writerow([format(float(v), ".17g") for v in row] + [str(int(label))])


def feature_rows(rng, centers, count):
    """Rows scattered multiplicatively around their class center (positive, like pooled amplitudes)."""
    labels = np.arange(count) % len(centers)
    rng.shuffle(labels)
    noise = rng.standard_normal((count, centers.shape[1]))
    return centers[labels] * np.exp(0.6 * noise), labels


def generate(workload, seed, out_dir):
    """Write the inputs of one workload; returns a description of the files.

    The description lists every file and, for image sets, the image
    count and the indices of the deliberate blanks.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, _WORKLOAD_IDS[workload]])
    files = {}

    def image_set(stem, images, labels, blanks=()):
        ipath, lpath = out / f"{stem}-images.idx", out / f"{stem}-labels.idx"
        write_idx(ipath, lpath, images, labels)
        files[stem] = {
            "images": str(ipath),
            "labels": str(lpath),
            "count": len(labels),
            "blanks": list(blanks),
        }

    if workload == "digits-bbox":
        image_set("train", *digit_set(rng, 0, DIGIT_TRAIN, 1.0))
        lines = []
        for shard, scale in enumerate(DIGIT_SCALES, 1):
            stem = f"test-scale-{scale:g}"
            image_set(stem, *digit_set(rng, shard, DIGIT_TEST, scale))
            lines.append(
                f"scale {scale:g} images {files[stem]['images']} labels {files[stem]['labels']}"
            )
        manifest = out / "manifest.txt"
        manifest.write_text("\n".join(lines) + "\n", encoding="ascii")
        files["manifest"] = str(manifest)
    elif workload == "textures-fixed":
        image_set("train", *texture_set(rng, TEXTURE_TRAIN))
        image_set("test", *texture_set(rng, TEXTURE_TEST))
    elif workload == "features-train":
        dim = feature_count(FEATURE_DEPTH, FEATURE_ANGLES)
        level = np.repeat(
            np.arange(FEATURE_DEPTH + 1),
            [FEATURE_ANGLES**k for k in range(FEATURE_DEPTH + 1)],
        )
        # fixed class centers: the seed draws only the rows, so the SGD work varies little
        centers = np.random.default_rng(0).uniform(0.5, 1.5, (FEATURE_CLASSES, dim)) * 0.5**level
        for stem, count in (("train", FEATURE_TRAIN), ("test", FEATURE_TEST)):
            path = out / f"{stem}.csv"
            write_feature_csv(path, *feature_rows(rng, centers, count), FEATURE_DEPTH, FEATURE_ANGLES)
            files[stem] = {"csv": str(path), "count": count}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files



def probe_sets(out_dir):
    """Fixed, seed-independent probe images for the recorded-feature gate.

    Returns (name, files, extra CLI flags) triples; the shapes cover odd,
    non-square, bbox-cropped (digits at every test scale, 0.5 to 4) and
    the two feature configurations.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(PROBE_SEED)
    smooth = np.stack(
        [
            _quantize(np.clip(0.5 + 0.15 * rng.standard_normal((37, 53)).cumsum(axis=1) / 4, 0, 1))
            for _ in range(3)
        ]
    )
    digits = np.stack(
        [render_digit(rng, rng, label, scale) for label, scale in ((3, 1.0), (8, 2.0), (1, 0.5), (5, 4.0))]
    )
    textures = np.stack([render_texture(rng, label, size=64) for label in (0, 3)])
    sets = (
        ("odd-k3m4", smooth, ["--depth", "3", "--angles", "4"]),
        ("bbox-k3m4", digits, ["--depth", "3", "--angles", "4", "--bbox"]),
        ("texture-k2m8", textures, ["--depth", "2", "--angles", "8"]),
    )
    result = []
    for name, images, flags in sets:
        ipath, lpath = out / f"probe-{name}-images.idx", out / f"probe-{name}-labels.idx"
        write_idx(ipath, lpath, images, range(len(images)))
        result.append((name, {"images": str(ipath), "labels": str(lpath)}, flags))
    return result


def file_digest(paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()
