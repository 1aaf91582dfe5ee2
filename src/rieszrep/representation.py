"""Hierarchical Riesz feature representation.

One layer convolves the input with M rotated complex base filters
(first-order steered Hilbert response as imaginary part, second-order
as real part), takes the pointwise amplitude and scales it by the
constant C.  Layers are stacked to depth K; global mean pooling of every
intermediate map yields the translation-invariant feature vector.

One engine (``_level_chunks``) computes every level.  By
steerability, the base response at angle phi = k*pi/M is a fixed
linear combination of five Riesz components: with c, s = cos, sin phi,
its second-order part is c^2 R11 + s^2 R22 + 2cs R12 and its
first-order part c R1 + s R2.  The engine therefore transforms each
parent map once with a real forward FFT and computes the five
components with five real (half-spectrum) inverse transforms, whatever
M is, from a cached bank of multipliers that is checked Hermitian when
it is built.  One matrix product per chunk of angles (all M unless
the map is large) steers them, writing
each response as second-order + i * first-order part, so the amplitude
is the complex modulus.  Per image that is sum_{k<K} M^k real forward
and 5 * sum_{k<K} M^k real inverse 2d transforms: 63 complex-FFT
equivalents for K=3, M=4 and 27 for K=2, M=8 (105 and 81 with one
complex inverse per angle).  The engine takes a stack of n
same-shape images (``extract_features`` accepts one image or such a
stack), and the n * M^(k-1) parent maps of level k are transformed in
cache-sized groups that may span images, four one-axis transform calls
per group: a 25x17 crop with K=3, M=4 costs one group per level (12
calls per image), a stack of 16 such crops 19 groups (4.75 calls per
image), while a 128x128 image with M=8 goes one parent per group.
Every image's maps are bit-identical whatever the stack.  The complex
(height) axis always goes through numpy's FFT.  The real (width) axis
goes through one seam, ``_width_transforms``: numpy's real FFT, or
products with a cached real DFT matrix (``_real_dft``) for the widths
``_matrix_length`` picks, where pocketfft takes 4-9x longer on a prime
length than on a neighbouring smooth one, and a bounding-box crop has
whatever size the digit gives it.  So that an awkward height gets the
matrix too, ``extract_features`` runs the engine on the transposed
image when the height's largest prime factor is above 23 and above the
width's (``_transposes``).  Transposing swaps u1 and u2, so the angle
k*pi/M of f is (M/2 - k)*pi/M of f.T, mod pi, where the amplitude does
not change; steering slot k to that angle makes every map the transpose
of f's, in f's path order.

Feature maps are ordered depth-major, then lexicographically by the
sequence of rotation indices, so the empty path (the raw input) comes
first.  Mean pooling makes the representation exactly invariant to
circular shifts.

The engine does not check its maps for overflow.  Each transform and
product acts on one map, so an inf or nan stays in its image's maps,
and as every map is pooled and amplitudes are >= 0, it cannot cancel
out of the sum: an image's row is finite exactly when all its maps and
means are, so the pooled row is the one check.
"""

from __future__ import annotations

import collections
import csv
import functools
import itertools
import math
import numbers
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import riesz
from .image_core import NonFiniteImageError, as_image

# Bytes of arrays the shape memo (``_basis_bank``, ``_real_dft`` and
# ``_steering``) keeps.  --bbox crops come in many shapes: the 57 of the 80
# ``digits-bbox`` eval crops cycle any cache that fits a process, and a
# 32-entry bound held about 9 MB of their banks.  2 MiB holds the 24
# banks and 9 DFT pairs of the 100 ``digits-bbox`` training crops
# (0.44 MB), so a repeated extract keeps hitting, or one 128x128 bank
# (665 KB) and more.  1 MiB saved another 1.4 MB of peak memory, but
# the banks it let go were handed back to the OS and faulted in again:
# 2.4 times the page faults of an eval, which took 1-4% longer.
SHAPE_CACHE_BYTES = 2 << 20

# the reason an image's row is refused (``as_image`` refuses nan or inf samples)
NON_FINITE_FEATURES = "feature maps or their means are not finite"

# bytes of one parent group's (g, M, H, W) complex buffer; the steering
# buffer stays within it down to one angle per chunk; see _level_chunks
_BATCH_BYTES = 512 * 1024


@dataclass(frozen=True)
class RieszConfig:
    depth: int = 3
    angles: int = 4
    scale_constant: float = 1.0

    def __post_init__(self):
        for name in ("depth", "angles"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.angles < 1 or self.angles % 4 != 0:
            raise ValueError("angles must be a positive multiple of 4")
        if not 0 < self.scale_constant < math.inf:
            raise ValueError("scale constant must be finite and positive")


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


class _ByteMemo:
    """An LRU memo of the read-only arrays a function builds, bounded in bytes.

    Used as a decorator, keyed by the function and its arguments, so one
    memo serves every function that builds an array the engine reads:
    ``_steering``, ``_basis_bank`` and ``_real_dft`` (the matrices behind
    the width seam, ``_width_transforms``), and the first-order pair
    that ``verify.check`` installs.  After each build the least recently
    used entries go while the bytes held exceed ``budget``, but the
    three used last always stay: one engine call needs its steering
    weights, a bank and its width's DFT matrices, and a shape whose
    arrays alone exceed the budget are then built once per run of that
    shape, not once per call.  The two extraction workers share the
    memo: each builds outside the lock, and when both build one key the
    first result stored is the one both return, its bytes counted once.
    ``cache_clear`` and ``cache_info`` (hits, misses, entries, bytes
    held) are those of the whole memo.
    """

    Info = collections.namedtuple("Info", "hits misses entries bytes")

    def __init__(self, budget):
        self.budget = budget
        self._lock = threading.Lock()
        self._entries = collections.OrderedDict()  # key -> (value, bytes), oldest first
        self.cache_clear()

    def cache_clear(self):
        with self._lock:
            self._entries.clear()
            self._bytes = self._hits = self._misses = 0

    def cache_info(self):
        with self._lock:
            return self.Info(self._hits, self._misses, len(self._entries), self._bytes)

    def __call__(self, function):
        @functools.wraps(function)
        def memoized(*args):
            key = function, args
            with self._lock:
                if key in self._entries:
                    self._hits += 1
                    self._entries.move_to_end(key)
                    return self._entries[key][0]
                self._misses += 1
            value = function(*args)
            size = sum(a.nbytes for a in value) if isinstance(value, tuple) else value.nbytes
            with self._lock:
                if key in self._entries:  # the other worker stored it first
                    self._entries.move_to_end(key)
                    return self._entries[key][0]
                self._entries[key] = value, size
                self._bytes += size
                while self._bytes > self.budget and len(self._entries) > 3:
                    _, (_, dropped) = self._entries.popitem(last=False)
                    self._bytes -= dropped
            return value

        memoized.cache_clear, memoized.cache_info = self.cache_clear, self.cache_info
        return memoized


_shape_memo = _ByteMemo(SHAPE_CACHE_BYTES)


@_shape_memo
def _basis_bank(height: int, width: int) -> np.ndarray:
    """Read-only (5, H, W//2+1) half spectra of m1^2, m2^2, m1*m2, m1, m2.

    Raises ValueError unless m1 and m2 are Hermitian (m[-u] =
    conj(m[u])): the half-spectrum inverse transform silently drops the
    imaginary part a non-Hermitian multiplier would give.  Products of
    an exactly Hermitian pair are exactly Hermitian in IEEE arithmetic,
    so the squares and the product are formed on the half spectrum only.
    """
    pair = np.stack(riesz.first_order_multipliers(height, width))
    negated = np.roll(pair[:, ::-1, ::-1], 1, axis=(1, 2))
    if np.abs(pair - np.conj(negated)).max() > 1e-12:
        raise ValueError("first-order Riesz multipliers are not Hermitian")
    m1, m2 = pair[..., : width // 2 + 1]
    bank = np.stack([m1 * m1, m2 * m2, m1 * m2, m1, m2])
    bank.setflags(write=False)
    return bank


def _largest_prime_factor(n: int) -> int:
    """The largest prime factor of n >= 1; 1 for n = 1."""
    largest, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            n, largest = n // p, p
        p += 1
    return max(largest, n)


def _matrix_length(n: int) -> bool:
    """Whether the width seam transforms an axis of length n by DFT matrices.

    pocketfft runs a slow generic pass for each prime factor above 5 of
    the length; one matrix product costs about n multiply-adds per
    output whatever n factors into.  So the matrix is used for every
    n < 64, where it always won, and for 64 <= n <= 256 with a prime
    factor above 7.  Forward, per row, on a 2-vCPU x86 host with numpy
    2.4.6 and OpenBLAS: 0.24 against 2.7 us at n=67, 2.0 against 8.6 us
    at 251.  A 7-smooth n >= 64 stays with pocketfft, which wins from
    n=128 on (0.60 against 0.76 us), and so does n > 256, where the
    matrices grow as n^2 and the matrix loses again by n=1021 (38.5
    against 26.5 us).  Below the cap a pair is at most 1.04 MB (n=255),
    and below 64 at most 65 KB.
    """
    return n < 64 or (n <= 256 and _largest_prime_factor(n) > 7)


def _transposes(height: int, width: int) -> bool:
    """Whether ``extract_features`` runs the engine on the transposed image.

    The height always goes through numpy's complex FFT, which takes
    several times longer on a length with a large prime factor; a width
    that ``_matrix_length`` routes goes through ``_real_dft`` matrices,
    which cost the same whatever the length factors into.  So a height
    the matrices would take whose largest prime factor is above 23 and
    above the width's is moved to the width axis.  Median CPU time per
    image at K=3, M=4 on a shared 2-vCPU x86 host with numpy 2.4.6:
    97x70 took 41.8 ms and 17.1 ms as 70x97; 47x33, 53x38, 94x63 and
    103x76 gained x1.4-1.8, and heights from 193 to 251 x1.1-1.5.
    Shapes the rule leaves alone lost when transposed: 95x67 (height
    5*19) x0.53, 104x82 x0.75, 95x26 x0.85.  When both axes have a large
    prime factor the two orientations are within about 25% of each
    other either way (97x67 x1.07, 103x71 x0.85).
    """
    largest = _largest_prime_factor(height)
    return largest > max(23, _largest_prime_factor(width)) and _matrix_length(height)


@_shape_memo
def _real_dft(width: int):
    """Read-only real DFT matrices (forward, inverse) for the last axis.

    With h = W//2+1, forward is (W, 2h), so ``x @ forward`` holds
    ``np.fft.rfft(x)`` as interleaved re/im columns; inverse is (2h, W),
    so ``spec.view(float64) @ inverse`` is ``np.fft.irfft(spec, n=W)``.
    The inverse weights bins 1..(W-1)//2 by 2 and DC and (for even W)
    Nyquist by 1, and ignores their imaginary parts, as ``irfft`` does.
    ``_width_transforms`` multiplies by them on the widths
    ``_matrix_length`` picks.
    """
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


def _width_transforms(width: int):
    """The real transforms of the last axis, (forward, inverse), each called as ``f(x, out)``.

    forward writes the half spectrum ``np.fft.rfft(x)`` of a float64
    array into the complex128 ``out``; inverse writes
    ``np.fft.irfft(spec, n=width)`` of a complex128 half spectrum into the
    float64 ``out``.  Both are numpy's FFT, or, on the widths
    ``_matrix_length`` picks, one ``np.matmul`` by a ``_real_dft``
    matrix that reads and writes the complex arrays as interleaved re/im
    floats, so ``out`` and the half spectrum must be C-contiguous.
    """
    if not _matrix_length(width):
        return (
            lambda x, out: np.fft.rfft(x, axis=-1, out=out),
            lambda spec, out: np.fft.irfft(spec, n=width, axis=-1, out=out),
        )
    forward, inverse = _real_dft(width)
    return (
        lambda x, out: np.matmul(x, forward, out=out.view(np.float64)),
        lambda spec, out: np.matmul(spec.view(np.float64), inverse, out=out),
    )


@_shape_memo
def _steering(angles: int, transposed: bool) -> np.ndarray:
    """Read-only (M, 5, 2) weights that steer the basis.

    With c, s = cos, sin of the angle, the second-order response
    c^2 R11 + s^2 R22 + 2cs R12 goes to slot 0 and the first-order one
    c R1 + s R2 to slot 1, the real and imaginary parts of a complex.
    Slot k takes the angle k*pi/M, or (M/2 - k)*pi/M mod pi when the
    basis is of the transposed image (see ``_level_chunks``).
    """
    weights = np.zeros((angles, 5, 2))
    for k in range(angles):
        phi = ((angles // 2 - k) % angles if transposed else k) * math.pi / angles
        c, s = math.cos(phi), math.sin(phi)
        weights[k, :3, 0] = c * c, s * s, 2 * c * s
        weights[k, 3:, 1] = c, s
    weights.setflags(write=False)
    return weights


def group_size(height: int, width: int, angles: int) -> int:
    """Parent maps the engine transforms per group, before the level caps it.

    As many (M, H, W) complex buffers as fit ``_BATCH_BYTES``, at least
    one; see ``_level_chunks``.
    """
    return max(1, _BATCH_BYTES // (16 * angles * height * width))


def _shared(*views):
    """C-contiguous arrays, one per (dtype, shape), that share one uninitialised buffer."""
    sizes = [np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in views]
    buffer = np.empty(max(sizes), dtype=np.uint8)
    return [buffer[:n].view(dtype).reshape(shape) for n, (dtype, shape) in zip(sizes, views)]


def _level_chunks(f: np.ndarray, config: RieszConfig, transposed=False):
    """Maps at C = 1 of levels 1..K of the validated (n, H, W) stack f, in path order.

    Level k holds n * M^(k-1) parent maps, image-major: image i's maps
    come before image i+1's, each image's in path order.  A stack of
    one image is the single-image engine.  With ``transposed`` the
    engine runs on the stack with each image transposed and yields the
    transposes of the maps, still in path order: ``_steering`` gives
    slot k the angle of f.T that is angle k of f.

    Each level's parent maps are transformed g at a time, with
    g = min(``group_size(H, W, M)``, n * M^(K-1)), so one group may span
    several images: one real forward transform along axis -1 over
    (g, H, W) into a half spectrum, one complex FFT along axis -2, one
    multiply by the broadcast basis bank into (g, 5, H, W//2+1), one
    in-place inverse FFT along axis -2 and one real inverse along axis
    -1 into a contiguous (g, 5, H, W) buffer.  That gives R11, R22, R12,
    R1 and R2 of every parent: five real inverse transforms per parent
    whatever M is.  One matrix product of the transposed basis with the
    steering weights then writes each angle's second-order response as
    real part and first-order response as imaginary part of a
    (g, M, H*W) complex buffer, so the amplitude is one ``np.abs``:
    ``np.hypot`` on two real (8, 128, 128) arrays took 3.7 ms against
    0.33 ms for ``np.abs`` on the same data held as complex.  The angles
    are steered in chunks: all M of them, halved while the
    (g, chunk, H*W) complex buffer exceeds ``_BATCH_BYTES``, so a
    128x128 map with M=8 is steered two angles at a time through a
    0.5 MB buffer instead of 2.1 MB, and every group of g > 1 parents
    takes all M at once (a chunk below M means one parent per group).
    The last chunk is short where the chunk does not divide M: 96x96
    with M=28 steers 3 angles at a time, then 1.  Each angle's
    (H*W, 5) @ (5, 2) product is its own GEMM whatever the chunk, so
    the maps are bit-identical.  Yields the (g*chunk, H, W) maps of each
    chunk right after their ``np.abs``, in path order.  Levels below K
    are kept whole, as the next level transforms them; level K holds
    only one group's current chunk, (g, chunk, H, W), so each of its
    chunks is valid until the next one.  The maps are not checked for
    overflow (see the module docstring).

    The four scratch arrays share two buffers (``_shared``).  A group
    runs the forward transform into ``spec``, the bank multiply into
    ``basis_spec``, the inverse transform into ``basis``, the steering
    product into ``steered`` and ``np.abs`` into its level.  ``spec`` is
    last read by the multiply, before ``basis`` is first written, and
    ``basis_spec`` last read by the inverse transform, before
    ``steered`` is first written: each pair shares one buffer, and no
    ``out=`` overlaps an operand that is still live.  One call on a
    128x128 image at K=2, M=8 allocates 2,631,680 bytes of buffers, and
    on a 105x80 crop at K=3, M=4 2.16 MB.

    The group loop calls the two real transforms the width seam
    (``_width_transforms``) returns, whichever they are: ``np.fft.rfft``
    and ``np.fft.irfft``, or, on the widths ``_matrix_length`` picks
    (see there why), one ``np.matmul`` of the (g, H, W) or
    (g, 5, H, 2h) stack by a ``_real_dft`` matrix, reading and writing
    the complex buffers as interleaved re/im floats.  For the matrices
    numpy makes one GEMM per (H, .) slice, so every product has the same
    shape whatever g is and the maps stay bit-identical across group
    sizes, and so across stack sizes: each image's maps equal those of
    its one-image stack.  One product over the stack flattened to (g*H)
    rows made them differ by up to 6e-16 relative.

    On small crops numpy's per-call overhead dominates, so grouping
    parents, of one image or of several, cuts the time; on large maps
    one whole level per call was slower than one parent per call (33.7
    against 21 ms at 128x128, M=8).  The 512 KiB budget keeps a group's
    complex buffer well inside a 2 MiB per-core L2 cache: a 2 MiB budget
    lost most of the gain on small crops and raised peak memory.  Maps
    whose (M, H, W) complex buffer exceeds 256 KiB (128x128, or 98x63
    with M=8) give g = 1.

    Every call allocates its buffers and level arrays uninitialised and
    keeps none of them; every element the engine reads it has written
    first.
    """
    depth, angles = config.depth, config.angles
    if depth == 0:
        return
    if transposed:
        f = np.ascontiguousarray(f.swapaxes(1, 2))
    images, height, width = f.shape
    size = height * width
    weights = _steering(angles, transposed)
    bank, (forward, inverse) = _basis_bank(height, width), _width_transforms(width)
    group = min(group_size(height, width, angles), images * angles ** (depth - 1))
    chunk = angles
    while chunk > 1 and 16 * group * chunk * size > _BATCH_BYTES:
        chunk //= 2

    # spec and basis share one buffer, basis_spec and steered the other;
    # level k < K holds its n * M^(k-1) parents' children, level K one
    # group's current angle chunk
    spec, basis = _shared(
        (np.complex128, (group, height, width // 2 + 1)), (np.float64, (group, 5, height, width))
    )
    basis_spec, steered = _shared(
        (np.complex128, (group, *bank.shape)), (np.complex128, (group * chunk * size,))
    )
    parents = [images * angles ** (k - 1) for k in range(1, depth)]
    levels = [np.empty((n, angles, height, width)) for n in parents]
    levels.append(np.empty((group, chunk, height, width)))
    level = f
    for k, nxt in enumerate(levels, 1):
        amplitudes = nxt.reshape(len(nxt), -1, size)
        for start in range(0, len(level), group):
            parents = level[start : start + group]
            n = len(parents)
            s, b, r = spec[:n], basis_spec[:n], basis[:n]
            forward(parents, s)
            np.fft.fft(s, axis=-2, out=s)
            np.multiply(bank, s[:, None], out=b)
            np.fft.ifft(b, axis=-2, out=b)
            inverse(b, r)
            components = r.reshape(n, 1, 5, -1).swapaxes(-1, -2)
            for k0 in range(0, angles, chunk):
                w = weights[k0 : k0 + chunk]
                c = steered[: n * len(w) * size].reshape(n, len(w), -1)
                # (n, 1, H*W, 5) @ (a, 5, 2) -> (n, a, H*W, 2) = real, imag
                np.matmul(components, w, out=c.view(np.float64).reshape(n, len(w), -1, 2))
                if k == depth:  # level K holds only this chunk of this group
                    out = amplitudes[:n, : len(w)]
                else:
                    out = amplitudes[start : start + n, k0 : k0 + len(w)]
                np.abs(c, out=out)
                yield out.reshape(-1, height, width)
        level = nxt.reshape(-1, height, width)


def layer_S(f: np.ndarray, config: RieszConfig):
    """One layer: C * amplitude of each rotated base response, inf or nan where it overflows."""
    chunks = _level_chunks(as_image(f)[None], replace(config, depth=1))
    # each chunk is scaled into a new array before the engine overwrites it
    return [m for chunk in chunks for m in config.scale_constant * chunk]


def extract_features(f: np.ndarray, config: RieszConfig) -> np.ndarray:
    """Mean-pooled feature vector over all paths, in the fixed path order.

    ``f`` is one 2d image, giving an (F,) vector, or an (n, H, W) stack
    of same-shape images, giving an (n, F) matrix, one row per image,
    each bit-identical to that image's own vector: the engine runs the
    stack as one, in groups of parent maps that may span images.
    When ``_transposes`` picks it (a height with a large prime factor
    and a smoother width), the engine runs on the transposed images and
    yields the transposes of their maps in path order; they agree with
    the untransposed engine up to rounding.  The maps are those of
    C = 1; C^k multiplies the pooled depth-k means.  Only the levels that
    feed another are held; each chunk of the deepest level is pooled as
    soon as it is computed, and no buffer of the engine outlives the
    call.  A stack returns all its rows, finite or not; a 2d image whose
    vector is not finite raises ``NonFiniteImageError``.
    """
    single = np.ndim(f) == 2
    stack = as_image(f)[None] if single else as_image(f, stack=True)
    images, height, width = stack.shape
    maps = _level_chunks(stack, config, transposed=_transposes(height, width))
    chunks = itertools.chain([stack], maps)
    # each chunk is summed before the engine computes the next; the sums
    # and the one division are what np.mean does, so the means are the same
    sums = np.concatenate([np.add.reduce(c.reshape(len(c), -1), axis=1) for c in chunks])
    # level k's n * M^k sums are image-major: one (n, M^k) block per level
    ends = list(itertools.accumulate(images * config.angles**k for k in range(config.depth + 1)))
    blocks = [sums[start:end].reshape(images, -1) for start, end in zip([0, *ends], ends)]
    features = np.concatenate(blocks, axis=1) / (height * width)
    # positive homogeneity: a depth-k map at C is C^k times the map at C = 1
    depths = np.repeat(np.arange(config.depth + 1), [b.shape[1] for b in blocks])
    features *= config.scale_constant**depths
    if single and not np.isfinite(features).all():
        raise NonFiniteImageError(NON_FINITE_FEATURES)
    return features[0] if single else features


def write_features_csv(path, matrix, paths, labels=None):
    """Write one feature row per image; column names are path labels.

    Column names contain commas, so the header is quoted per standard
    CSV rules.  Values use full decimal (round-trippable) precision; an
    optional integer label column comes last.  Numbers never need
    quoting, so each data row is one ``%`` format of a template, ended
    with the ``\r\n`` that ``csv.writer`` ends the header with.
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
        fields = ["%.17g"] * len(header) + (["%d"] if labels is not None else [])
        line = ",".join(fields) + "\r\n"
        rows = matrix.tolist()
        if labels is not None:
            rows = [[*row, int(label)] for row, label in zip(rows, labels)]
        fh.writelines(line % tuple(row) for row in rows)


def read_features_csv(path):
    """Read a feature CSV; returns (matrix, paths, labels-or-None).

    The header goes through the ``csv`` module, since path labels such
    as ``"[0,1]"`` are quoted and contain commas; the numeric rows go
    through numpy's C parser.  Blank lines are skipped.  Text that is not
    ASCII, a bad path label, no feature column, a ragged row, a field
    that is not a number, a width other than the header's or a label
    that is not an int64 integer raises ``ValueError`` naming the path.
    """
    try:
        with open(path, newline="", encoding="ascii") as fh:
            line = fh.readline()
            if not line:
                raise ValueError("empty feature file")
            header = next(csv.reader([line]))
            # np.loadtxt warns on an empty input; find a data row first
            start = fh.tell()
            if not any(row.strip() for row in iter(fh.readline, "")):
                raise ValueError("feature file has no data rows")
            fh.seek(start)
            data = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
        if data.shape[1] != len(header):
            raise ValueError(f"{data.shape[1]} data columns, {len(header)} in the header")
        has_labels = bool(header) and header[-1] == "label"
        paths = [parse_path_label(h) for h in (header[:-1] if has_labels else header)]
        if not paths:
            raise ValueError("no feature columns")
        if not has_labels:
            return data, paths, None
        column = data[:, -1]
        # 2^63 itself does not fit an int64
        integral = (np.abs(column) < 2.0**63) & (np.round(column) == column)
        if not integral.all():
            row = int(np.argmin(integral))
            raise ValueError(f"data row {row + 1}: label {float(column[row])!r} is not an integer")
        return data[:, :-1], paths, column.astype(np.int64)
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}: {exc}") from exc

