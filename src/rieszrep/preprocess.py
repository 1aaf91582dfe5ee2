"""Scale-equivariant bounding-box extraction: normalize, pad, threshold,
then crop the tight foreground box enlarged about its center.

The padding is virtual.  Boxes are in the coordinates of the image
framed by ``PAD`` zero pixels on every side, but that frame is never
built: ``THRESHOLD`` is above 0, so the padding is never foreground, the
tight box is found on the image alone and shifted by ``PAD``, and the
crop is zeros plus the part of the image the enlarged box overlaps.

``find_crops``, the one crop search, finds the boxes of a same-shape
stack at once (a list image by image), from each image's row and column
maxima and its minimum, and flags a bad image in its ``Crop``.
(x - lo) / (hi - lo) never decreases as x grows, so a row or column has
a pixel at or above the threshold exactly when its maximum does once
normalized.  An IDX stack is reduced over its stored bytes: byte / 255
grows with the byte too, so the maxima and minima of the bytes are
those of the images.  Only those reductions and, when a crop is cut,
the pixels it keeps are made float64, the way ``IdxImages`` makes them
(``scale_idx_pixels``); no float64 copy of the stack is made.
``bbox_compute`` is the one-image case.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .image_core import IdxImages, NonFiniteImageError, as_image, scale_idx_pixels

# the zero frame's width in pixels, the normalized value at or above
# which a pixel is foreground, and the fraction by which the tight box's
# half-extents grow about its center
PAD, THRESHOLD, ENLARGE = 50, 0.5, 0.4


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


def enlarge_bbox(box: BoundingBox, height: int, width: int) -> BoundingBox:
    """Scale each half-extent by (1 + ENLARGE) about the box center.

    The box is rounded outward (floor/ceil), then clamped to the image
    bounds.
    """
    # pixel-area extents: box spans [row0, row0 + h) etc.
    rc = box.row0 + box.height / 2.0
    cc = box.col0 + box.width / 2.0
    hh = box.height / 2.0 * (1.0 + ENLARGE)
    hw = box.width / 2.0 * (1.0 + ENLARGE)
    r0 = max(0, math.floor(rc - hh))
    c0 = max(0, math.floor(cc - hw))
    r1 = min(height, math.ceil(rc + hh))
    c1 = min(width, math.ceil(cc + hw))
    return BoundingBox(row0=r0, col0=c0, height=r1 - r0, width=c1 - c0)


@dataclass(frozen=True)
class Crop:
    """One image's boxes, and what cuts its crop.

    ``samples`` is the image as stored, ``to_float`` makes its pixels
    float64 and ``lo`` and ``span`` normalize them.  A blank image (span
    0), one with a nan or inf sample (span nan) and one whose sample
    range overflows float64 (span inf) have no boxes; ``cut`` says why.
    """

    samples: np.ndarray
    to_float: Callable
    lo: float
    span: float
    tight: BoundingBox | None = None
    box: BoundingBox | None = None

    def cut(self) -> np.ndarray:
        """The enlarged box cut from the padded, normalized image.

        Raises BlankImageError for a blank image and NonFiniteImageError
        for a non-finite (``as_image``'s message) or overflowing one.
        """
        if self.span == 0:  # normalizes to zeros, below any threshold
            raise BlankImageError("no foreground pixels above threshold")
        if self.span == math.inf:
            raise NonFiniteImageError("sample range overflows float64")
        if math.isnan(self.span):
            as_image(self.samples)  # raises for the nan or inf sample
        box = self.box
        height, width = self.samples.shape
        # the box's overlap with the image, in image coordinates
        r0, r1 = max(box.row0 - PAD, 0), min(box.row1 - PAD, height)
        c0, c1 = max(box.col0 - PAD, 0), min(box.col1 - PAD, width)
        dr, dc = PAD - box.row0, PAD - box.col0
        crop = np.zeros((box.height, box.width))
        pixels = self.to_float(self.samples[r0:r1, c0:c1])
        crop[r0 + dr : r1 + dr, c0 + dc : c1 + dc] = (pixels - self.lo) / self.span
        return crop


def _float_samples(images, stack=False):
    """``as_image(images, stack)``, keeping nan and inf for ``Crop`` to flag."""
    try:
        return as_image(images, stack)
    except NonFiniteImageError:
        return np.asarray(images, dtype=np.float64)


def find_crops(images) -> list[Crop]:
    """The ``Crop`` of each image, in order.

    An ``IdxImages`` or an (n, H, W) array is one stack, whose row
    maxima, column maxima and minima are one reduction each (an
    ``IdxImages``'s over its bytes); any other sequence's images, whose
    shapes may differ, are each a stack of one.  A blank image, one with
    a nan or inf sample and one whose sample range overflows float64 get
    a boxless ``Crop`` whose ``cut`` raises.  Raises ValueError only for
    an input that is not 2-D images.
    """
    if isinstance(images, IdxImages):
        samples, to_float = images.pixels, scale_idx_pixels
    elif isinstance(images, np.ndarray):
        samples, to_float = _float_samples(images, stack=True), np.asarray
    else:
        return [find_crops(_float_samples(image)[None])[0] for image in images]
    _, height, width = samples.shape
    col_max = to_float(samples.max(axis=1))
    row_max = to_float(samples.max(axis=2))
    lo = to_float(samples.min(axis=(1, 2)))
    hi = col_max.max(axis=1)
    # the masks of a boxless image (span 0, nan or inf) are never read
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # a nan or inf sample leaves the maximum or the minimum not finite
        span = np.where(np.isfinite(hi) & np.isfinite(lo), hi - lo, np.nan)
        rows = (row_max - lo[:, None]) / span[:, None] >= THRESHOLD
        cols = (col_max - lo[:, None]) / span[:, None] >= THRESHOLD
    # each image's first foreground row and column, and its last as the
    # first of the reversed masks
    ends = [mask.argmax(axis=1).tolist() for mask in (rows, cols, rows[:, ::-1], cols[:, ::-1])]
    crops = []
    for image, low, s, r0, c0, r_end, c_end in zip(samples, lo.tolist(), span.tolist(), *ends):
        if not 0 < s < math.inf:
            crops.append(Crop(image, to_float, low, s))
            continue
        tight = BoundingBox(r0 + PAD, c0 + PAD, height - r_end - r0, width - c_end - c0)
        box = enlarge_bbox(tight, height + 2 * PAD, width + 2 * PAD)
        crops.append(Crop(image, to_float, low, s, tight, box))
    return crops


def bbox_compute(f: np.ndarray):
    """(crop, tight_box, enlarged_box) of one image, a list of one to ``find_crops``.

    The boxes are in the coordinates of the ``PAD`` frame, and the crop
    is the enlarged box cut from it (see the module docstring).  Raises
    what ``Crop.cut`` raises for a blank, non-finite or overflowing image.
    """
    crop = find_crops([f])[0]
    return crop.cut(), crop.tight, crop.box

