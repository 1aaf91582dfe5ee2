"""Image containers, DFT conventions, and dataset ingestion.

All images are 2d float64 numpy arrays (row-major).  ``as_image``
rejects non-finite samples; only the matrix-text loader lets them
through, so that extraction can flag the image instead of the load
aborting.
The DFT convention is fixed globally: unnormalized forward transform,
1/(H*W) on the inverse, DC coefficient at index (0, 0), no fftshift.
"""

from __future__ import annotations

import os
import re
import struct
from collections.abc import Sequence

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# largest relative L2 imaginary residue ``ifft2`` lets through
MAX_IMAG_RESIDUE = 1e-6

# graymap header: the magic, then width, height and maxval, each after
# whitespace or '#' comments, then the one whitespace byte that ends it
_PNM_HEADER = re.compile(rb"P[25]" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


class FormatError(ValueError):
    """Raised for malformed input files (IDX, graymap, matrix text)."""


class NonFiniteImageError(ValueError):
    """An image, or a feature map computed from it, holds nan or inf."""


def as_image(a, stack=False) -> np.ndarray:
    """Validate and convert to a 2d float64 image grid, or with ``stack``
    to a non-empty (n, H, W) stack of same-shape grids."""
    img = np.asarray(a, dtype=np.float64)
    if img.ndim != 2 + stack or 0 in img.shape:
        kind = "a 2d image grid or an (n, H, W) stack" if stack else "a 2d image grid"
        raise ValueError(f"expected {kind}, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise NonFiniteImageError("image contains non-finite samples")
    return img


def signed_freq(n: int) -> np.ndarray:
    """Signed DFT frequencies k/n with k in [-ceil(n/2)+1, floor(n/2)].

    Differs from np.fft.fftfreq only in the sign of the Nyquist entry
    for even n (here +1/2 rather than -1/2).
    """
    k = np.arange(n)
    return np.where(k <= n // 2, k, k - n) / n


def freq_coords(height: int, width: int):
    """Per-index frequency coordinates (u1, u2) in cycles/pixel.

    Returned as broadcastable column/row vectors; DC is exactly (0, 0)
    at index (0, 0).
    """
    u1 = signed_freq(height)[:, None]
    u2 = signed_freq(width)[None, :]
    return u1, u2


def fft2(img: np.ndarray) -> np.ndarray:
    """Forward unnormalized 2d DFT of a real image grid."""
    return np.fft.fft2(as_image(img))


def ifft2(spec: np.ndarray) -> np.ndarray:
    """Inverse DFT with 1/(H*W) normalization, returning the real part.

    The imaginary residue must be negligible; a residue above
    ``MAX_IMAG_RESIDUE`` (relative L2) signals a non-Hermitian
    multiplier bug and raises ValueError.
    """
    spec = np.asarray(spec, dtype=np.complex128)
    if spec.ndim != 2:
        raise ValueError(f"expected a 2d spectrum, got shape {spec.shape}")
    out = np.fft.ifft2(spec)
    norm = np.linalg.norm(out)
    if norm > 0:
        residue = np.linalg.norm(out.imag) / norm
        if residue > MAX_IMAG_RESIDUE:
            raise ValueError(
                f"imaginary residue {residue:.3e} exceeds {MAX_IMAG_RESIDUE:.1e}; "
                "spectrum is not Hermitian"
            )
    return out.real


def _read_exact(fh, count: int, path, what: str) -> bytes:
    # checked first: a header claiming more than the file holds must not allocate it
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count > left:
        raise FormatError(f"{path}: truncated {what} (expected {count} bytes, {left} left)")
    return fh.read(count)


def scale_idx_pixels(pixels):
    """IDX pixel bytes as float64 samples in [0, 1]: each byte / 255."""
    return pixels / 255.0


class IdxImages(Sequence):
    """The images of an IDX file, scaled to [0, 1] when each is taken.

    Holds the (N, H, W) pixel bytes; indexing gives one (H, W) float64
    image, ``scale_idx_pixels(pixels[i])``, and slicing another
    ``IdxImages`` over the same bytes.  A float64 stack would take 8x the
    file's memory for the life of the run, while extraction needs one
    image at a time, and the crop search (``preprocess.find_crops``)
    reads the bytes themselves.
    """

    def __init__(self, pixels: np.ndarray):
        self.pixels = pixels

    def __len__(self):
        return len(self.pixels)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return IdxImages(self.pixels[index])
        return scale_idx_pixels(self.pixels[index])


def load_idx(images_path, labels_path):
    """Load a big-endian IDX image/label file pair as (images, labels).

    ``images`` is an ``IdxImages`` sequence of N (H, W) float64 images,
    pixel bytes mapped to [0, 1] by dividing by 255 when each image is
    taken; ``labels`` is an int64 array of length N.
    """
    with open(images_path, "rb") as fh:
        magic, count, height, width = struct.unpack(
            ">iiii", _read_exact(fh, 16, images_path, "IDX image header")
        )
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(
                f"{images_path}: bad IDX image magic 0x{magic:08x} "
                f"(expected 0x{IDX_IMAGE_MAGIC:08x})"
            )
        if count < 0 or height < 1 or width < 1:
            raise FormatError(f"{images_path}: bad IDX image size {count}x{height}x{width}")
        payload = _read_exact(
            fh, count * height * width, images_path, "IDX image payload"
        )
    with open(labels_path, "rb") as fh:
        magic, label_count = struct.unpack(
            ">ii", _read_exact(fh, 8, labels_path, "IDX label header")
        )
        if magic != IDX_LABEL_MAGIC:
            raise FormatError(
                f"{labels_path}: bad IDX label magic 0x{magic:08x} "
                f"(expected 0x{IDX_LABEL_MAGIC:08x})"
            )
        if label_count != count:
            raise FormatError(
                f"{labels_path}: label count {label_count} does not match image count {count}"
            )
        label_bytes = _read_exact(fh, label_count, labels_path, "IDX label payload")
    images = IdxImages(np.frombuffer(payload, dtype=np.uint8).reshape(count, height, width))
    labels = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    return images, labels


def load_gray_image(path) -> np.ndarray:
    """Load a P2/P5 portable graymap or a plain matrix text file.

    Graymap samples must be integers in 0..maxval, scaled to [0, 1] by
    the declared maxval, which must lie in 1..65535; P5 samples are one
    byte below maxval 256 and two big-endian bytes from there on.
    Matrix text files ("rows cols" header then samples) are taken
    verbatim, nan and inf included, so that extraction can flag such an
    image by its index instead of the load aborting the whole run.  A
    malformed file raises ``FormatError`` naming its path.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic in (b"P2", b"P5"):
        header = _PNM_HEADER.match(data)
        if header is None:
            raise FormatError(f"{path}: truncated or malformed {magic.decode()} header")
        width, height, maxval = (int(v) for v in header.groups())
        if width < 1 or height < 1:
            raise FormatError(f"{path}: expected a 2d image grid, got {height}x{width}")
        if not 1 <= maxval <= 65535:
            raise FormatError(f"{path}: maxval {maxval} is outside 1..65535")
        body = data[header.end() :]
        if magic == b"P2":
            # whitespace separated ASCII, '#' comments to end of line
            text = body.decode("ascii", errors="replace")
            tokens = [t for line in text.splitlines() for t in line.split("#", 1)[0].split()]
            try:
                samples = np.array(tokens, dtype=np.int64)
            except (ValueError, OverflowError) as exc:
                raise FormatError(f"{path}: bad P2 sample: {exc}") from exc
            if samples.size != width * height:
                raise FormatError(
                    f"{path}: expected {width * height} pixels, found {samples.size}"
                )
        else:
            dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
            payload = body[: width * height * dtype.itemsize]
            if len(payload) != width * height * dtype.itemsize:
                raise FormatError(f"{path}: truncated P5 payload")
            samples = np.frombuffer(payload, dtype=dtype)
        if not 0 <= samples.min() <= samples.max() <= maxval:
            raise FormatError(f"{path}: samples {samples.min()}..{samples.max()} outside 0..{maxval}")
        return samples.reshape(height, width).astype(np.float64) / maxval
    # plain matrix text: "rows cols" header line, then samples
    try:
        tokens = data.decode("ascii").split()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: unsupported image format") from exc
    if len(tokens) < 2:
        raise FormatError(f"{path}: missing 'rows cols' header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
        values = np.array(tokens[2:], dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"{path}: unsupported image format") from exc
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: expected a 2d image grid, got {rows}x{cols}")
    if len(values) != rows * cols:
        raise FormatError(
            f"{path}: expected {rows * cols} samples, found {len(values)}"
        )
    return values.reshape(rows, cols)


def save_gray_pgm(path, img: np.ndarray):
    """Write an image in [0, 1] as an ASCII (P2) graymap with maxval 255."""
    img = as_image(img)
    quantized = np.clip(np.rint(img * 255), 0, 255).astype(int)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"P2\n{img.shape[1]} {img.shape[0]}\n255\n")
        for row in quantized:
            fh.write(" ".join(str(v) for v in row) + "\n")
