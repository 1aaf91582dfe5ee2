"""Scale-equivariant bounding-box extraction: normalize, pad, threshold,
then crop the tight foreground box enlarged about its center."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image_core import minmax_normalize


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
