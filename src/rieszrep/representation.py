"""Hierarchical Riesz feature representation.

One layer convolves the input with M rotated complex base filters
(first-order steered Hilbert response as imaginary part, second-order
as real part), scales by the constant C, and takes the pointwise
amplitude.  Layers are stacked to depth K; global pooling of every
intermediate map yields the translation-invariant feature vector.

One engine (``_level_chunks``) computes every level.  By
steerability, the base response at angle phi = k*pi/M is a fixed
linear combination of five Riesz components: with c, s = cos, sin phi,
its second-order part is c^2 R11 + s^2 R22 + 2cs R12 and its
first-order part c R1 + s R2.  The engine therefore transforms each
parent map once with a real forward FFT and computes the five
components with five real (half-spectrum) inverse transforms, whatever
M is, from a cached bank of multipliers that is checked Hermitian when
it is built.  One matrix product steers them to all M angles, writing
each response as second-order + i * first-order part, so the amplitude
is the complex modulus.  Per image that is sum_{k<K} M^k real forward
and 5 * sum_{k<K} M^k real inverse 2d transforms: 63 complex-FFT
equivalents for K=3, M=4 and 27 for K=2, M=8 (105 and 81 with one
complex inverse per angle).  The parent maps of a level are
transformed in cache-sized groups, four one-axis transform calls per
group, so a 25x17 crop with K=3, M=4 costs one group per level (12
calls per image), while a 128x128 image with M=8 goes one parent per
group.  The complex (height) axis always goes through numpy's FFT.  The
real (width) axis does too for a 7-smooth width of 64 or more; any
other width up to 256 is transformed by products with a cached real
DFT matrix (``_real_dft``): pocketfft takes 4-9x longer on a prime
length than on a neighbouring smooth one, and a bounding-box crop has
whatever width the digit gives it.

Feature maps are ordered depth-major, then lexicographically by the
sequence of rotation indices, so the empty path (the raw input) comes
first.  With mean pooling the representation is exactly invariant to
circular shifts.  Max pooling is also provided but does not preserve
nonexpansiveness of the layer operator.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .image_core import NonFiniteImageError, as_image, fft2, freq_coords, ifft2
from .riesz import first_order_multipliers

_POOLINGS = ("mean", "max")

# Entries of ``_basis_bank`` (the one per-shape filter cache; the
# multipliers behind it are built per call) and of ``_real_dft`` (per
# width).  Bounded because --bbox crops come in many shapes (24 among
# 100 cropped digits, 57 among 80 at mixed scales); 32 keeps every hit
# an unbounded cache gets there.
SHAPE_CACHE_SIZE = 32

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


@functools.lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _basis_bank(height: int, width: int) -> np.ndarray:
    """Read-only (5, H, W//2+1) half spectra of m1^2, m2^2, m1*m2, m1, m2.

    Raises ValueError unless all five full-size multipliers are
    Hermitian (m[-u] = conj(m[u])): the half-spectrum inverse transform
    silently drops the imaginary part a non-Hermitian one would give.
    """
    m1, m2 = first_order_multipliers(height, width)
    full = np.stack([m1 * m1, m2 * m2, m1 * m2, m1, m2])
    negated = np.roll(full[:, ::-1, ::-1], 1, axis=(1, 2))
    if np.abs(full - np.conj(negated)).max() > 1e-12:
        raise ValueError("first-order Riesz multipliers are not Hermitian")
    bank = np.ascontiguousarray(full[..., : width // 2 + 1])
    bank.setflags(write=False)
    return bank


@functools.lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _real_dft(width: int):
    """Read-only real DFT matrices for the last axis, or None for pocketfft.

    Returns (forward, inverse) with h = W//2+1: forward is (W, 2h), so
    ``x @ forward`` holds ``np.fft.rfft(x)`` as interleaved re/im
    columns; inverse is (2h, W), so ``spec.view(float64) @ inverse`` is
    ``np.fft.irfft(spec, n=W)``.  The inverse weights bins 1..(W-1)//2
    by 2 and DC and (for even W) Nyquist by 1, and ignores their
    imaginary parts, as ``irfft`` does.

    pocketfft runs a slow generic pass for each prime factor above 5 of
    the length; one matrix product costs about W multiply-adds per
    output whatever W factors into.  So the matrix is used for every
    W < 64, where it always won, and for 64 <= W <= 256 with a prime
    factor above 7.  Forward, per row, on a 2-vCPU x86 host with numpy
    2.4.6 and OpenBLAS: 0.24 against 2.7 us at W=67, 2.0 against 8.6 us
    at 251.  A 7-smooth W >= 64 stays with pocketfft, which wins from
    W=128 on (0.60 against 0.76 us), and so does W > 256, where the
    matrices grow as W^2 and the matrix loses again by W=1021 (38.5
    against 26.5 us); below the cap a pair is at most about 1 MB.
    """
    rest = width
    for p in (2, 3, 5, 7):
        while rest % p == 0:
            rest //= p
    if width > 256 or (width >= 64 and rest == 1):
        return None
    half, even = width // 2 + 1, width % 2 == 0
    # twiddles indexed by (j*k) mod W keep every angle below 2*pi; the
    # DC and Nyquist twiddles are exactly 1 and -1, so the imaginary
    # rows of those bins in the inverse are exactly zero, not 1e-16
    twiddle = np.exp(-2j * np.pi * np.arange(width) / width)
    weight = np.full(half, 2.0 / width)
    weight[0] = 1.0 / width
    if even:
        twiddle[width // 2] = -1.0
        weight[-1] = 1.0 / width
    forward = twiddle[np.outer(np.arange(width), np.arange(half)) % width]
    # x[j] = sum_k w_k (Re X_k cos(2 pi jk/W) - Im X_k sin(2 pi jk/W))
    inverse = np.empty((half, 2, width))
    inverse[:, 0] = weight[:, None] * forward.real.T
    inverse[:, 1] = weight[:, None] * forward.imag.T
    forward = forward.view(np.float64)
    inverse = inverse.reshape(2 * half, width)
    forward.setflags(write=False)
    inverse.setflags(write=False)
    return forward, inverse


@functools.lru_cache(maxsize=None)
def _steering(angles: int) -> np.ndarray:
    """Read-only (M, 5, 2) weights that steer the basis to the angles k*pi/M.

    With c, s = cos, sin of the angle, the second-order response
    c^2 R11 + s^2 R22 + 2cs R12 goes to slot 0 and the first-order one
    c R1 + s R2 to slot 1, the real and imaginary parts of a complex.
    """
    weights = np.zeros((angles, 5, 2))
    for k in range(angles):
        c, s = math.cos(k * math.pi / angles), math.sin(k * math.pi / angles)
        weights[k, :3, 0] = c * c, s * s, 2 * c * s
        weights[k, 3:, 1] = c, s
    weights.setflags(write=False)
    return weights


class Workspace:
    """Engine buffers lent from one image to the next of the same shape.

    One run over a list of images (``cli.extract_matrix``) makes one and
    passes it to every ``extract_features`` call; it dies with the run,
    so no buffer outlives it or is shared between threads.  It holds at
    most one entry, keyed by everything the buffer shapes depend on
    (image shape, M, K and the group size, which ``_BATCH_BYTES`` sets).
    Buffers are kept only while the key repeats: a new key releases the
    kept buffers before the engine allocates its own, and the next call
    with the same key allocates again and keeps those.  With ``--bbox``
    nearly every crop has its own shape, and buffers kept across shape
    changes fragmented the heap (+6% peak RSS on ``digits-bbox``);
    same-shape runs (IDX input without ``--bbox``) fault their buffers
    in once, not once per image.
    """

    def __init__(self):
        self._key = None
        self._buffers = None

    def buffers(self, key, allocate):
        """The kept buffers when ``key`` repeats, else ``allocate()``."""
        if key != self._key:
            self._key, self._buffers = key, None
            return allocate()
        if self._buffers is None:
            self._buffers = allocate()
        return self._buffers


def _level_chunks(f: np.ndarray, config: RieszConfig, workspace=None):
    """Maps of levels 1..K of the validated image f, in path order.

    Each level's parent maps are transformed g at a time, with
    g = min(max(1, _BATCH_BYTES // (16*M*H*W)), M^(K-1)): one real
    forward transform along axis -1 over (g, H, W) into a half spectrum,
    one complex FFT along axis -2, one multiply by the broadcast basis
    bank into (g, 5, H, W//2+1), one in-place inverse FFT along axis -2
    and one real inverse along axis -1 into a contiguous (g, 5, H, W)
    buffer.  That gives R11, R22, R12, R1 and R2 of every parent: five
    real inverse transforms per parent whatever M is.  One
    matrix product of the transposed basis with the steering weights
    then writes each angle's second-order response as real part and
    first-order response as imaginary part of a (g, M, H*W) complex
    buffer, so the amplitude is one ``np.abs``: ``np.hypot`` on two real
    (8, 128, 128) arrays took 3.7 ms against 0.33 ms for ``np.abs`` on
    the same data held as complex.  Scaling and one finiteness check
    follow.  Yields one (g*M, H, W) chunk per group, valid until the
    next one: the deepest level's chunks share one group buffer.

    The two real transforms are ``np.fft.rfft`` and ``np.fft.irfft``
    unless ``_real_dft`` has matrices for the width (below 64, or up to
    256 with a prime factor above 7; see there why).  Then each is one
    ``np.matmul`` of the (g, H, W) or (g, 5, H, 2h) stack by the matrix,
    reading and writing the complex buffers as interleaved re/im floats.
    numpy makes one GEMM per (H, .) slice, so every product has the same
    shape whatever g is and the maps stay bit-identical across group
    sizes; one product over the stack flattened to (g*H) rows made them
    differ by up to 6e-16 relative.

    On small crops numpy's per-call overhead dominates, so grouping
    parents cuts the time; on large maps one whole level per call was
    slower than one parent per call (33.7 against 21 ms at 128x128,
    M=8).  The 512 KiB budget keeps a group's complex buffer well inside
    a 2 MiB per-core L2 cache: a 2 MiB budget lost most of the gain on
    small crops and raised peak memory.  Maps whose (M, H, W) complex
    buffer exceeds 256 KiB (128x128, or 98x63 with M=8) give g = 1.

    The scratch buffers and the level arrays come from ``workspace``
    (see ``Workspace``; a fresh one when none is given), keyed by
    (H, W, M, K, g); every element the engine reads it has written for
    this image first, so leftovers of an earlier image, or of one
    flagged part-way, never reach the output.
    """
    depth, height, width = config.depth, *f.shape
    if depth == 0:
        return
    angles = config.angles
    bank, weights, dft = _basis_bank(height, width), _steering(angles), _real_dft(width)
    group = min(max(1, _BATCH_BYTES // (16 * angles * f.size)), angles ** (depth - 1))

    def allocate():
        # level k < K holds its M^(k-1) parents' children; level K one group's
        sizes = [angles ** (k - 1) for k in range(1, depth)] + [group]
        return (
            np.empty((group, height, width // 2 + 1), dtype=np.complex128),
            np.empty((group, *bank.shape), dtype=np.complex128),
            np.empty((group, 5, height, width)),
            np.empty((group, angles, f.size), dtype=np.complex128),
            [np.empty((n, angles, height, width)) for n in sizes],
        )

    buffers = (workspace or Workspace()).buffers((height, width, angles, depth, group), allocate)
    spec, basis_spec, basis, steered, levels = buffers
    level = f[None]
    for k, nxt in enumerate(levels, 1):
        for start in range(0, len(level), group):
            parents = level[start : start + group]
            n = len(parents)
            out = nxt[:n] if k == depth else nxt[start : start + n]
            s, b, r, c = spec[:n], basis_spec[:n], basis[:n], steered[:n]
            if dft is None:
                np.fft.rfft(parents, axis=-1, out=s)
            else:
                np.matmul(parents, dft[0], out=s.view(np.float64))
            np.fft.fft(s, axis=-2, out=s)
            np.multiply(bank, s[:, None], out=b)
            np.fft.ifft(b, axis=-2, out=b)
            if dft is None:
                np.fft.irfft(b, n=width, axis=-1, out=r)
            else:
                np.matmul(b.view(np.float64), dft[1], out=r)
            # (n, 1, H*W, 5) @ (M, 5, 2) -> (n, M, H*W, 2) = real, imag
            np.matmul(
                r.reshape(n, 1, 5, -1).swapaxes(-1, -2),
                weights,
                out=c.view(np.float64).reshape(n, angles, -1, 2),
            )
            np.abs(c, out=out.reshape(n, angles, -1))
            if config.scale_constant != 1:
                out *= config.scale_constant
            if not math.isfinite(out.max()):  # max propagates nan and inf
                raise NonFiniteImageError("image contains non-finite samples")
            yield out.reshape(-1, height, width)
        level = nxt.reshape(-1, height, width)


def _prepared(f: np.ndarray, config: RieszConfig) -> np.ndarray:
    f = as_image(f)
    sigma = config.presmooth_sigma
    return f if sigma is None else gaussian_presmooth(f, sigma)


def layer_S(f: np.ndarray, config: RieszConfig):
    """One transformation layer: C * amplitude of each rotated base response.

    The input is not presmoothed, whatever ``config.presmooth_sigma`` is.
    """
    (chunk,) = _level_chunks(as_image(f), replace(config, depth=1))
    return list(chunk)


def build_hierarchy(f: np.ndarray, config: RieszConfig):
    """All feature maps up to depth K, keyed by rotation-index path.

    Each engine chunk is copied before the next is computed, since it
    is only valid until then.
    """
    f = _prepared(f, config)
    chunks = (c.copy() for c in _level_chunks(f, config))
    maps = itertools.chain([f], *chunks)
    return dict(zip(feature_paths(config.depth, config.angles), maps))


def extract_features(f: np.ndarray, config: RieszConfig, *, workspace=None) -> np.ndarray:
    """Pooled feature vector over all paths, in the fixed path order.

    Only the levels that feed another are held; each chunk of the
    deepest level is pooled as soon as it is computed.  A ``Workspace``
    shared by consecutive calls lends the engine's buffers from one
    image to the next while the shape repeats; none of them escapes,
    since only pooled values are returned, and the values are
    bit-identical to a call without one.  Raises ``NonFiniteImageError``
    when a map or a pooled value is not finite.
    """
    f = _prepared(f, config)
    pool = np.mean if config.pooling == "mean" else np.max
    chunks = itertools.chain([f[None]], _level_chunks(f, config, workspace))
    # each chunk is pooled before the engine computes the next
    features = np.concatenate([pool(c.reshape(len(c), -1), axis=1) for c in chunks])
    # the engine checks its maps, but the mean of the input itself can
    # overflow, which is all there is to check at depth 0
    if not np.isfinite(features).all():
        raise NonFiniteImageError("pooled features are not finite")
    return features


def write_features_csv(path, matrix, paths, labels=None):
    """Write one feature row per image; column names are path labels.

    Column names contain commas, so fields are quoted per standard CSV
    rules.  Values use full decimal (round-trippable) precision; an
    optional integer label column comes last.
    """
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
    """Read a feature CSV; returns (matrix, paths, labels-or-None).

    The header goes through the ``csv`` module, since path labels such
    as ``"[0,1]"`` are quoted and contain commas; the numeric rows go
    through numpy's C parser.  Blank lines are skipped.  A ragged row,
    a field that is not a number, a width that differs from the header
    or a label that is not an integer raises ``ValueError``.
    """
    with open(path, newline="", encoding="ascii") as fh:
        line = fh.readline()
        if not line:
            raise ValueError(f"{path}: empty feature file")
        header = next(csv.reader([line]))
        # np.loadtxt warns on an empty input; find a data row first
        start = fh.tell()
        if not any(row.strip() for row in iter(fh.readline, "")):
            raise ValueError(f"{path}: feature file has no data rows")
        fh.seek(start)
        data = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(
            f"{path}: {data.shape[1]} columns in the data rows, {len(header)} in the header"
        )
    has_labels = bool(header) and header[-1] == "label"
    paths = [parse_path_label(h) for h in (header[:-1] if has_labels else header)]
    if not has_labels:
        return data, paths, None
    column = data[:, -1]
    integral = np.isfinite(column) & (np.round(column) == column)
    if not integral.all():
        row = int(np.argmin(integral))
        raise ValueError(f"{path}: data row {row + 1}: label {float(column[row])!r} is not an integer")
    return data[:, :-1], paths, column.astype(np.int64)


def gaussian_presmooth(f: np.ndarray, sigma: float) -> np.ndarray:
    """Periodic Gaussian smoothing realized in the frequency domain."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    spec = fft2(f)
    u1, u2 = freq_coords(*spec.shape)
    kernel = np.exp(-2 * np.pi**2 * sigma**2 * (u1**2 + u2**2))
    return ifft2(kernel * spec)
