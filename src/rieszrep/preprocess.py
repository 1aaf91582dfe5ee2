"""Scale-equivariant bounding-box extraction: normalize, pad, threshold,
then crop the tight foreground box enlarged about its center.

The padding is virtual.  Boxes are in the coordinates of the image
framed by ``pad`` zero pixels on every side, but that frame is never
built: with a threshold above 0 the padding is never foreground, so the
tight box is found on the image alone and shifted by ``pad``, and the
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


def enlarge_bbox(box: BoundingBox, enlarge: float, height: int, width: int) -> BoundingBox:
    """Scale each half-extent by (1 + enlarge) about the box center.

    The box is rounded outward (floor/ceil), then clamped to the image
    bounds.  It keeps every tight-box pixel only for enlarge >= 0; the
    -1 < enlarge < 0 that ``check_crop_settings`` admits shrinks it.
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
    pad: int
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
        box, pad = self.box, self.pad
        height, width = self.samples.shape
        # the box's overlap with the image, in image coordinates
        r0, r1 = max(box.row0 - pad, 0), min(box.row1 - pad, height)
        c0, c1 = max(box.col0 - pad, 0), min(box.col1 - pad, width)
        dr, dc = pad - box.row0, pad - box.col0
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


def find_crops(images, pad: int = 50, threshold: float = 0.5, enlarge: float = 0.4) -> list[Crop]:
    """The ``Crop`` of each image, in order.

    An ``IdxImages`` or an (n, H, W) array is one stack, whose row
    maxima, column maxima and minima are one reduction each (an
    ``IdxImages``'s over its bytes); any other sequence's images, whose
    shapes may differ, are each a stack of one.  A blank image, one with
    a nan or inf sample and one whose sample range overflows float64 get
    a boxless ``Crop`` whose ``cut`` raises.  Raises ValueError only for
    settings that ``check_crop_settings`` rejects and for an input that
    is not 2-D images.  The defaults are the one setting the program
    crops with.
    """
    check_crop_settings(pad, threshold, enlarge)
    if isinstance(images, IdxImages):
        samples, to_float = images.pixels, scale_idx_pixels
    elif isinstance(images, np.ndarray):
        samples, to_float = _float_samples(images, stack=True), np.asarray
    else:
        return [find_crops(_float_samples(image)[None], pad, threshold, enlarge)[0] for image in images]
    _, height, width = samples.shape
    col_max = to_float(samples.max(axis=1))
    row_max = to_float(samples.max(axis=2))
    lo = to_float(samples.min(axis=(1, 2)))
    hi = col_max.max(axis=1)
    # the masks of a boxless image (span 0, nan or inf) are never read
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # a nan or inf sample leaves the maximum or the minimum not finite
        span = np.where(np.isfinite(hi) & np.isfinite(lo), hi - lo, np.nan)
        rows = (row_max - lo[:, None]) / span[:, None] >= threshold
        cols = (col_max - lo[:, None]) / span[:, None] >= threshold
    # each image's first foreground row and column, and its last as the
    # first of the reversed masks
    ends = [mask.argmax(axis=1).tolist() for mask in (rows, cols, rows[:, ::-1], cols[:, ::-1])]
    crops = []
    for image, low, s, r0, c0, r_end, c_end in zip(samples, lo.tolist(), span.tolist(), *ends):
        if not 0 < s < math.inf:
            crops.append(Crop(image, to_float, low, s, pad))
            continue
        tight = BoundingBox(r0 + pad, c0 + pad, height - r_end - r0, width - c_end - c0)
        box = enlarge_bbox(tight, enlarge, height + 2 * pad, width + 2 * pad)
        crops.append(Crop(image, to_float, low, s, pad, tight, box))
    return crops


def bbox_compute(f: np.ndarray, pad: int = 50, threshold: float = 0.5, enlarge: float = 0.4):
    """Run the four-step bounding-box pipeline on one image.

    Returns (crop, tight_box, enlarged_box).  The boxes are in the
    coordinates of the normalized image padded by ``pad`` zeros on every
    side, and the crop is the enlarged box cut from that padded frame,
    which is never allocated (see the module docstring).  Pixels at or
    above the threshold count as foreground, so binary images keep
    their 1-pixels.  Raises ValueError for settings that
    ``check_crop_settings`` rejects, BlankImageError when no pixel is
    foreground and NonFiniteImageError for a nan or inf sample or an
    overflowing range.  The image is a list of one to ``find_crops``.
    """
    crop = find_crops([f], pad, threshold, enlarge)[0]
    return crop.cut(), crop.tight, crop.box

