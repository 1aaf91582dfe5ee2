"""Scale-equivariant bounding-box extraction and image rescaling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image_core import as_image, minmax_normalize


class BlankImageError(ValueError):
    """No pixel reaches the foreground threshold."""


@dataclass(frozen=True)
class BoundingBox:
    row0: int
    col0: int
    height: int
    width: int

    @property
    def row1(self):
        return self.row0 + self.height

    @property
    def col1(self):
        return self.col0 + self.width


def tight_bbox(mask: np.ndarray) -> BoundingBox:
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        raise BlankImageError("no foreground pixels above threshold")
    return BoundingBox(
        row0=int(rows[0]),
        col0=int(cols[0]),
        height=int(rows[-1] - rows[0] + 1),
        width=int(cols[-1] - cols[0] + 1),
    )


def enlarge_bbox(box: BoundingBox, enlarge: float, height: int, width: int) -> BoundingBox:
    """Scale each half-extent by (1 + enlarge) about the box center.

    The enlarged box is rounded outward (floor/ceil) so it never loses
    tight-box pixels, then clamped to the image bounds.
    """
    # pixel-area extents: box spans [row0, row0 + h) etc.
    rc = box.row0 + box.height / 2.0
    cc = box.col0 + box.width / 2.0
    hh = box.height / 2.0 * (1.0 + enlarge)
    hw = box.width / 2.0 * (1.0 + enlarge)
    r0 = max(0, math.floor(rc - hh))
    c0 = max(0, math.floor(cc - hw))
    r1 = min(height, math.ceil(rc + hh))
    c1 = min(width, math.ceil(cc + hw))
    return BoundingBox(row0=r0, col0=c0, height=r1 - r0, width=c1 - c0)


def bbox_compute(
    f: np.ndarray, pad: int = 50, threshold: float = 0.5, enlarge: float = 0.4
):
    """Run the four-step bounding-box pipeline.

    Returns (padded_image, tight_box, enlarged_box); boxes are in
    padded-image coordinates.  Pixels at or above the threshold count
    as foreground, so binary images keep their 1-pixels.
    """
    f = minmax_normalize(f)
    padded = np.pad(f, pad)
    tight = tight_bbox(padded >= threshold)
    box = enlarge_bbox(tight, enlarge, *padded.shape)
    return padded, tight, box


def bbox_extract(
    f: np.ndarray, pad: int = 50, threshold: float = 0.5, enlarge: float = 0.4
) -> np.ndarray:
    """Crop the enlarged foreground bounding box from the padded image."""
    padded, _, box = bbox_compute(f, pad=pad, threshold=threshold, enlarge=enlarge)
    return padded[box.row0 : box.row1, box.col0 : box.col1]


def rescale(f: np.ndarray, factor: float, method: str = "bilinear") -> np.ndarray:
    """Resample by a scale factor with nearest or bilinear interpolation.

    Output dimensions are round(dim * factor); bilinear sampling clamps
    at the edges.
    """
    f = as_image(f)
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    out_h = int(round(f.shape[0] * factor))
    out_w = int(round(f.shape[1] * factor))
    if out_h < 1 or out_w < 1:
        raise ValueError(f"degenerate output size {out_h}x{out_w}")
    if method == "nearest":
        rows = np.minimum((np.arange(out_h) / factor).astype(int), f.shape[0] - 1)
        cols = np.minimum((np.arange(out_w) / factor).astype(int), f.shape[1] - 1)
        return f[np.ix_(rows, cols)]
    if method == "bilinear":
        # map output pixel centers to input coordinates
        rows = (np.arange(out_h) + 0.5) * (f.shape[0] / out_h) - 0.5
        cols = (np.arange(out_w) + 0.5) * (f.shape[1] / out_w) - 0.5
        rows = np.clip(rows, 0, f.shape[0] - 1)
        cols = np.clip(cols, 0, f.shape[1] - 1)
        r0 = np.floor(rows).astype(int)
        c0 = np.floor(cols).astype(int)
        r1 = np.minimum(r0 + 1, f.shape[0] - 1)
        c1 = np.minimum(c0 + 1, f.shape[1] - 1)
        wr = (rows - r0)[:, None]
        wc = (cols - c0)[None, :]
        top = f[np.ix_(r0, c0)] * (1 - wc) + f[np.ix_(r0, c1)] * wc
        bot = f[np.ix_(r1, c0)] * (1 - wc) + f[np.ix_(r1, c1)] * wc
        return top * (1 - wr) + bot * wr
    raise ValueError(f"unknown interpolation method {method!r}")
