"""Hierarchical Riesz feature representation.

One layer convolves the input with M rotated complex base filters
(first-order steered Hilbert response as imaginary part, second-order
as real part), scales by the constant C, and takes the pointwise
amplitude.  Layers are stacked to depth K; global pooling of every
intermediate map yields the translation-invariant feature vector.

One engine (``_level_chunks``) computes every level.  Its fused bank
holds m_k^2 + i*m_k per steered multiplier m_k; both are Hermitian
(checked once, when the bank is built), so one complex inverse FFT
yields the second-order response as real part and the first-order one
as imaginary part, and the amplitude is the modulus.  Per image that is
sum_{k<K} M^k forward and sum_{1<=k<=K} M^k inverse 2d transforms
(21/84 for K=3, M=4; 9/72 for K=2, M=8): one forward transform per
parent map.  The parent maps of a level go through numpy's FFT in
cache-sized groups, so a 25x17 crop with K=3, M=4 costs one group and
four one-axis FFT calls per level (12 per image, against 84 at one
parent per call), while a 128x128 image with M=8 goes one parent per
group.

Feature maps are ordered depth-major, then lexicographically by the
sequence of rotation indices, so the empty path (the raw input) comes
first.  With mean pooling the representation is exactly invariant to
circular shifts.  Max pooling is also provided but does not preserve
nonexpansiveness of the layer operator.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .image_core import NonFiniteImageError, as_image, fft2, freq_coords, ifft2
from .riesz import steered_multiplier

_POOLINGS = ("mean", "max")

# bytes of one parent group's (g, M, H, W) complex buffer; see _level_chunks
_BATCH_BYTES = 512 * 1024


@dataclass(frozen=True)
class RieszConfig:
    depth: int = 3
    angles: int = 4
    scale_constant: float = 1.0
    pooling: str = "mean"
    presmooth_sigma: float | None = None

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.angles < 1 or self.angles % 4 != 0:
            raise ValueError("angle count must be a positive multiple of 4")
        if self.scale_constant <= 0:
            raise ValueError("scale constant must be positive")
        if self.pooling not in _POOLINGS:
            raise ValueError(f"pooling must be one of {_POOLINGS}")
        if self.presmooth_sigma is not None and self.presmooth_sigma <= 0:
            raise ValueError("presmooth sigma must be positive")


def feature_count(depth: int, angles: int) -> int:
    """Total number of feature maps: sum of M^k for k = 0..K."""
    return sum(angles**k for k in range(depth + 1))


def feature_paths(depth: int, angles: int):
    """All rotation-index paths up to length K, depth-major lexicographic."""
    paths = []
    for k in range(depth + 1):
        paths.extend(itertools.product(range(angles), repeat=k))
    return paths


def path_label(path) -> str:
    """Column name for a feature path, e.g. '[]', '[0]', '[2,1,3]'."""
    return "[" + ",".join(str(i) for i in path) + "]"


def parse_path_label(label: str):
    label = label.strip()
    if not (label.startswith("[") and label.endswith("]")):
        raise ValueError(f"malformed feature path label {label!r}")
    inner = label[1:-1].strip()
    if not inner:
        return ()
    return tuple(int(t) for t in inner.split(","))


@functools.lru_cache(maxsize=None)
def _fused_bank(angles: int, height: int, width: int) -> np.ndarray:
    """Read-only (M, H, W) bank m_k^2 + i*m_k at the angles k*pi/M.

    Raises ValueError unless every m_k and m_k^2 is Hermitian
    (m[-u] = conj(m[u])), which makes both parts of the fused inverse
    transform real responses.
    """
    phis = [k * math.pi / angles for k in range(angles)]
    m = np.stack([steered_multiplier(phi, height, width) for phi in phis])
    m2 = m * m
    for part in (m, m2):
        negated = np.roll(part[:, ::-1, ::-1], 1, axis=(1, 2))
        if np.abs(part - np.conj(negated)).max() > 1e-12:
            raise ValueError(f"steered multipliers for M={angles} are not Hermitian")
    bank = m2 + 1j * m
    bank.setflags(write=False)
    return bank


def _level_chunks(f: np.ndarray, config: RieszConfig, depth: int, keep_last: bool):
    """Maps of levels 1..depth of the validated image f, in path order.

    Each level's parent maps are transformed g at a time, with
    g = min(max(1, _BATCH_BYTES // bank.nbytes), M^(depth-1)): one
    forward FFT over (g, H, W), one multiply by the broadcast bank into
    a (g, M, H, W) buffer, one in-place inverse per axis and one
    amplitude, scaling and finiteness check.  Yields one (g*M, H, W)
    chunk per group.  Deepest-level chunks share one buffer, valid until
    the next chunk, unless ``keep_last``.

    On small crops numpy's per-call overhead dominates, so grouping
    parents cuts the time; on large maps one whole level per call was
    slower than one parent per call (33.7 against 21 ms at 128x128,
    M=8).  The 512 KiB budget keeps a group's buffer well inside a 2 MiB
    per-core L2 cache: a 2 MiB budget lost most of the gain on small
    crops and raised peak memory.  Banks over 256 KiB (128x128, or
    98x63 with M=8) give g = 1.
    """
    bank = _fused_bank(config.angles, *f.shape)
    group = min(max(1, _BATCH_BYTES // bank.nbytes), config.angles ** max(depth - 1, 0))
    spec = np.empty((group, *f.shape), dtype=np.complex128)
    buf = np.empty((group, *bank.shape), dtype=np.complex128)
    level = f[None]
    for k in range(1, depth + 1):
        reuse = k == depth and not keep_last
        nxt = np.empty((group if reuse else len(level), *bank.shape))
        for start in range(0, len(level), group):
            parents = level[start : start + group]
            n = len(parents)
            out = nxt[:n] if reuse else nxt[start : start + n]
            s, b = spec[:n], buf[:n]
            np.fft.fft2(parents, out=s)
            np.multiply(bank, s[:, None], out=b)
            # per-axis in place: ifft2 with out=buf gives wrong values
            np.fft.ifft(b, axis=-1, out=b)
            np.fft.ifft(b, axis=-2, out=b)
            np.abs(b, out=out)
            if config.scale_constant != 1:
                out *= config.scale_constant
            if not math.isfinite(out.max()):  # max propagates nan and inf
                raise NonFiniteImageError("image contains non-finite samples")
            yield out.reshape(-1, *f.shape)
        level = nxt.reshape(-1, *f.shape)


def _prepared(f: np.ndarray, config: RieszConfig) -> np.ndarray:
    f = as_image(f)
    sigma = config.presmooth_sigma
    return f if sigma is None else gaussian_presmooth(f, sigma)


def base_response(f: np.ndarray, angle_index: int, angles: int):
    """Complex base-filter response at angle k*pi/M.

    Returns (real_part, imag_part): the second- and first-order steered
    Hilbert responses of f.
    """
    f = as_image(f)
    if not 0 <= angle_index < angles:
        raise ValueError(f"angle index {angle_index} out of range for M={angles}")
    m = steered_multiplier(angle_index * math.pi / angles, *f.shape)
    spec = fft2(f)
    return ifft2(m * m * spec), ifft2(m * spec)


def layer_S(f: np.ndarray, config: RieszConfig):
    """One transformation layer: C * amplitude of each rotated base response."""
    (chunk,) = _level_chunks(as_image(f), config, depth=1, keep_last=True)
    return list(chunk)


def build_hierarchy(f: np.ndarray, config: RieszConfig):
    """All feature maps up to depth K, keyed by rotation-index path."""
    f = _prepared(f, config)
    chunks = _level_chunks(f, config, config.depth, keep_last=True)
    maps = itertools.chain([f], *chunks)
    return dict(zip(feature_paths(config.depth, config.angles), maps))


def pool_global(feature_map: np.ndarray, kind: str) -> float:
    """Reduce a feature map to one scalar by global mean or max."""
    feature_map = as_image(feature_map)
    if kind == "mean":
        return float(feature_map.mean())
    if kind == "max":
        return float(feature_map.max())
    raise ValueError(f"pooling must be one of {_POOLINGS}")


def extract_features(f: np.ndarray, config: RieszConfig) -> np.ndarray:
    """Pooled feature vector over all paths, in the fixed path order.

    Only the levels that feed another are held; each chunk of the
    deepest level is pooled as soon as it is computed.
    """
    f = _prepared(f, config)
    pool = np.mean if config.pooling == "mean" else np.max
    levels = _level_chunks(f, config, config.depth, keep_last=False)
    chunks = itertools.chain([f[None]], levels)
    # each chunk is pooled before the generator reuses its buffer
    return np.concatenate([pool(c.reshape(len(c), -1), axis=1) for c in chunks])


def write_features_csv(path, matrix, paths, labels=None):
    """Write one feature row per image; column names are path labels.

    Column names contain commas, so fields are quoted per standard CSV
    rules.  Values use full decimal (round-trippable) precision; an
    optional integer label column comes last.
    """
    import csv

    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    header = [path_label(p) for p in paths]
    if matrix.shape[1] != len(header):
        raise ValueError("feature matrix width does not match path count")
    if labels is not None and len(labels) != matrix.shape[0]:
        raise ValueError("label count does not match row count")
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header + (["label"] if labels is not None else []))
        for i, row in enumerate(matrix):
            out = [format(v, ".17g") for v in row]
            if labels is not None:
                out.append(str(int(labels[i])))
            writer.writerow(out)


def read_features_csv(path):
    """Read a feature CSV; returns (matrix, paths, labels-or-None)."""
    import csv

    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty feature file") from None
        has_labels = bool(header) and header[-1] == "label"
        paths = [parse_path_label(h) for h in (header[:-1] if has_labels else header)]
        rows, labels = [], []
        for row in reader:
            if not row:
                continue
            if has_labels:
                rows.append([float(v) for v in row[:-1]])
                labels.append(int(row[-1]))
            else:
                rows.append([float(v) for v in row])
    if not rows:
        raise ValueError(f"{path}: feature file has no data rows")
    matrix = np.array(rows)
    return matrix, paths, (np.array(labels) if has_labels else None)


def gaussian_presmooth(f: np.ndarray, sigma: float) -> np.ndarray:
    """Periodic Gaussian smoothing realized in the frequency domain."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    f = as_image(f)
    u1, u2 = freq_coords(*f.shape)
    kernel = np.exp(-2 * np.pi**2 * sigma**2 * (u1**2 + u2**2))
    return ifft2(kernel * fft2(f))
