"""Scale-equivariant bounding-box extraction: normalize, pad, threshold,
then crop the tight foreground box enlarged about its center.

The padding is virtual.  Boxes are in the coordinates of the image
framed by ``pad`` zero pixels on every side, but that frame is never
built: with a threshold above 0 the padding is never foreground, so the
tight box is found on the image alone and shifted by ``pad``, and the
crop is zeros plus the part of the image the enlarged box overlaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image_core import as_image


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


def tight_bbox(row_mask: np.ndarray, col_mask: np.ndarray) -> BoundingBox:
    """The smallest box holding every flagged row and column.

    ``row_mask[i]`` says whether row i has a foreground pixel,
    ``col_mask[j]`` the same of column j.
    """
    rows = np.flatnonzero(row_mask)
    cols = np.flatnonzero(col_mask)
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


def check_crop_settings(pad, threshold, enlarge):
    """Raise ValueError naming the first setting out of range.

    ``pad`` must be >= 0 and ``enlarge`` finite and > -1.  Images are
    normalized to [0, 1], so ``threshold`` must be in (0, 1]: above 0 the
    zero padding is never foreground, and above 1 no pixel would be.
    """
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if not -1 < enlarge < math.inf:
        raise ValueError(f"enlarge must be finite and > -1, got {enlarge}")


def bbox_compute(
    f: np.ndarray, pad: int = 50, threshold: float = 0.5, enlarge: float = 0.4
):
    """Run the four-step bounding-box pipeline.

    Returns (crop, tight_box, enlarged_box).  The boxes are in the
    coordinates of the normalized image padded by ``pad`` zeros on every
    side, and the crop is the enlarged box cut from that padded frame,
    which is never allocated (see the module docstring).  Pixels at or
    above the threshold count as foreground, so binary images keep
    their 1-pixels.  Raises ValueError for settings that
    ``check_crop_settings`` rejects and BlankImageError when no pixel
    is foreground.
    """
    check_crop_settings(pad, threshold, enlarge)
    f = as_image(f)
    height, width = f.shape
    col_max = f.max(axis=0)
    lo, hi = f.min(), col_max.max()
    if hi == lo:  # normalizes to zeros, below any threshold
        raise BlankImageError("no foreground pixels above threshold")
    # (x - lo) / (hi - lo) never decreases as x grows, so a column or row
    # has a pixel at or above the threshold exactly when its maximum does
    # once normalized.  Rows are searched between the first and the last
    # such column only, and only the pixels the crop keeps are normalized.
    span = hi - lo
    cols = (col_max - lo) / span >= threshold
    c0, c1 = np.flatnonzero(cols)[[0, -1]]
    # the row maxima as column maxima of the transposed copy: numpy reduces
    # those as elementwise maxima of contiguous rows, 3 against 9 us
    # for 12 columns of a 112-row frame
    row_max = np.ascontiguousarray(f[:, c0 : c1 + 1].T).max(axis=0)
    inner = tight_bbox((row_max - lo) / span >= threshold, cols)
    tight = BoundingBox(inner.row0 + pad, inner.col0 + pad, inner.height, inner.width)
    box = enlarge_bbox(tight, enlarge, height + 2 * pad, width + 2 * pad)
    # the box's overlap with the image, in image coordinates
    r0, r1 = max(box.row0 - pad, 0), min(box.row1 - pad, height)
    c0, c1 = max(box.col0 - pad, 0), min(box.col1 - pad, width)
    dr, dc = pad - box.row0, pad - box.col0
    crop = np.zeros((box.height, box.width))
    crop[r0 + dr : r1 + dr, c0 + dc : c1 + dc] = (f[r0:r1, c0:c1] - lo) / span
    return crop, tight, box


def bbox_extract(
    f: np.ndarray, pad: int = 50, threshold: float = 0.5, enlarge: float = 0.4
) -> np.ndarray:
    """Crop the enlarged foreground bounding box from the padded image."""
    return bbox_compute(f, pad=pad, threshold=threshold, enlarge=enlarge)[0]
