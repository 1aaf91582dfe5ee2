import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rieszrep.image_core import IdxImages, NonFiniteImageError, as_image
from rieszrep.preprocess import (
    BlankImageError,
    BoundingBox,
    bbox_compute,
    enlarge_bbox,
    find_crops,
)

from conftest import synthetic_digit


def test_blank_image_raises():
    with pytest.raises(BlankImageError):
        bbox_compute(np.zeros((20, 20)))


def test_single_foreground_pixel():
    img = np.zeros((21, 21))
    img[10, 10] = 1.0
    crop, tight, box = bbox_compute(img, pad=5)
    assert (tight.height, tight.width) == (1, 1)
    assert crop.shape == (box.height, box.width)
    assert crop.max() == 1.0


def test_tight_box_of_rectangle():
    img = np.zeros((40, 40))
    img[10:20, 5:15] = 1.0
    _, tight, box = bbox_compute(img, pad=50)
    assert (tight.height, tight.width) == (10, 10)
    # enlarged box contains the tight box
    assert box.row0 <= tight.row0 and box.row1 >= tight.row1
    assert box.col0 <= tight.col0 and box.col1 >= tight.col1


def test_threshold_keeps_binary_ones():
    img = np.zeros((10, 10))
    img[4, 4] = 1.0
    _, tight, _ = bbox_compute(img, pad=2, threshold=1.0)
    assert (tight.height, tight.width) == (1, 1)


def test_integer_scale_equivariance():
    img = synthetic_digit(64)
    _, tight1, _ = bbox_compute(img)
    up = np.kron(img, np.ones((2, 2)))
    _, tight2, _ = bbox_compute(up)
    assert tight2.height == 2 * tight1.height
    assert tight2.width == 2 * tight1.width


def test_bbox_pipeline_scale_match():
    img = synthetic_digit(96)
    crop1 = bbox_compute(img)[0]
    crop2 = bbox_compute(np.kron(img, np.ones((2, 2))))[0]
    # enlargement rounding may differ by one pixel per side
    assert abs(crop2.shape[0] - 2 * crop1.shape[0]) <= 2
    assert abs(crop2.shape[1] - 2 * crop1.shape[1]) <= 2


def test_bbox_near_idempotent():
    crop = bbox_compute(synthetic_digit(96))[0]
    again = bbox_compute(crop)[0]
    assert abs(again.shape[0] - crop.shape[0]) <= 2
    assert abs(again.shape[1] - crop.shape[1]) <= 2


def padded_reference(f, pad, threshold, enlarge):
    """The crop and boxes found on an explicitly zero-padded frame."""
    lo, hi = f.min(), f.max()
    padded = np.pad((f - lo) / (hi - lo), pad)
    mask = padded >= threshold
    rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    tight = BoundingBox(rows[0], cols[0], rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1)
    box = enlarge_bbox(tight, enlarge, *padded.shape)
    return padded[box.row0 : box.row1, box.col0 : box.col1], tight, box


def _border_image(shape, rows, cols):
    img = np.zeros(shape)
    img[rows, cols] = 1.0
    img[shape[0] // 2, shape[1] // 2] = 0.7
    return img


_rng = np.random.default_rng(5)
_CROP_CASES = {
    # foreground on each border, so the box is clamped at that side of the frame
    **{
        f"{side}-pad{pad}": (_border_image((13, 11), *index), pad, 0.5, 0.4)
        for pad in (0, 1)
        for side, index in (
            ("top", (0, slice(3, 6))),
            ("bottom", (-1, slice(3, 6))),
            ("left", (slice(4, 8), 0)),
            ("right", (slice(4, 8), -1)),
            ("all", (slice(None), slice(None))),
        )
    },
    "single-pixel": (_border_image((9, 9), 4, 4), 3, 0.5, 0.4),
    "non-square": (_rng.random((17, 40)) * (_rng.random((17, 40)) > 0.8), 6, 0.5, 0.4),
    "enlarge-shrink": (_rng.random((20, 23)), 4, 0.5, -0.5),
    "enlarge-2": (_rng.random((20, 23)) - 2, 4, 0.5, 2.0),
    "threshold-1": (_rng.random((15, 12)), 2, 1.0, 0.4),
    "negative-input": (-np.abs(_rng.standard_normal((12, 14))), 3, 0.3, 1.0),
}


@pytest.mark.parametrize("image, pad, threshold, enlarge", _CROP_CASES.values(), ids=_CROP_CASES)
def test_crop_equals_padded_frame_slice(image, pad, threshold, enlarge):
    expected, expected_tight, expected_box = padded_reference(image, pad, threshold, enlarge)
    crop, tight, box = bbox_compute(image, pad=pad, threshold=threshold, enlarge=enlarge)
    assert (tight, box) == (expected_tight, expected_box)
    assert crop.dtype == expected.dtype == np.float64
    assert crop.shape == expected.shape
    # equal values, and the padding zeros are +0.0 as np.pad writes them
    assert np.array_equal(crop, expected)
    assert np.array_equal(np.signbit(crop), np.signbit(expected))
    # a run over a list of images crops each at find_crops' defaults
    expected = padded_reference(image, pad=50, threshold=0.5, enlarge=0.4)[0]
    assert np.array_equal(find_crops([image])[0].cut(), expected)


@pytest.mark.parametrize("name", [n for n in _CROP_CASES if "-pad" in n])
def test_border_cases_clamp_the_box_at_the_frame(name):
    image, pad, threshold, enlarge = _CROP_CASES[name]
    _, _, box = bbox_compute(image, pad=pad, threshold=threshold, enlarge=enlarge)
    frame = (image.shape[0] + 2 * pad, image.shape[1] + 2 * pad)
    reached = {
        "top": box.row0 == 0,
        "bottom": box.row1 == frame[0],
        "left": box.col0 == 0,
        "right": box.col1 == frame[1],
    }
    side = name.split("-")[0]
    assert all(reached.values()) if side == "all" else reached[side]


@pytest.mark.parametrize("threshold", [math.nan, 0.0, -0.5, 1.0000001, 2.0])
def test_threshold_out_of_range_raises(threshold):
    img = np.zeros((10, 10))
    img[4, 4] = 1.0
    with pytest.raises(ValueError, match="threshold must be in"):
        bbox_compute(img, threshold=threshold)


def per_image_reference(f, pad, threshold, enlarge):
    """The crop and boxes of one float image, searched image by image: on
    its own float64 column maxima, then on the row maxima between its
    first and last foreground column."""
    height, width = f.shape
    col_max = f.max(axis=0)
    lo, hi = f.min(), col_max.max()
    if hi == lo:
        raise BlankImageError("no foreground pixels above threshold")
    span = hi - lo
    cols = np.flatnonzero((col_max - lo) / span >= threshold)
    row_max = f[:, cols[0] : cols[-1] + 1].max(axis=1)
    rows = np.flatnonzero((row_max - lo) / span >= threshold)
    tight = BoundingBox(
        int(rows[0]) + pad, int(cols[0]) + pad, int(rows[-1] - rows[0] + 1), int(cols[-1] - cols[0] + 1)
    )
    box = enlarge_bbox(tight, enlarge, height + 2 * pad, width + 2 * pad)
    frame = np.pad((f - lo) / span, pad)
    return frame[box.row0 : box.row1, box.col0 : box.col1], tight, box


@st.composite
def uint8_image(draw, height, width):
    """A blank, constant, single-pixel, border-touching or random image."""
    kind = draw(st.sampled_from(["blank", "constant", "single-pixel", "border", "random"]))
    byte = st.integers(0, 255)
    img = np.full((height, width), draw(byte) if kind == "constant" else 0, dtype=np.uint8)
    if kind == "single-pixel":
        img[draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))] = draw(byte)
    elif kind == "border":
        img[draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))] = draw(byte)
        rows, cols = [0, -1] if draw(st.booleans()) else slice(None), draw(st.sampled_from([0, -1]))
        img[rows, cols] = draw(byte)
    elif kind == "random":
        values = draw(st.lists(byte, min_size=height * width, max_size=height * width))
        img[...] = np.reshape(values, (height, width))
    return img


@st.composite
def uint8_stack(draw):
    # 1xN, Nx1 and non-square shapes included
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    count = draw(st.integers(1, 5))
    return np.stack([draw(uint8_image(height, width)) for _ in range(count)])


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    stack=uint8_stack(),
    pad=st.sampled_from([0, 1, 3]),
    threshold=st.sampled_from([1.0, 0.5, 0.3]),
    enlarge=st.sampled_from([-0.5, 0.0, 0.4, 2.0]),
)
def test_stack_search_equals_per_image_crop(stack, pad, threshold, enlarge):
    # each image of an IDX stack, found from the stack's bytes, has the
    # boxes and the crop, byte for byte and sign bit included, that its
    # own float image gives alone; so does a float stack of the same
    images = IdxImages(stack)
    floats = np.stack([images[i] for i in range(len(images))])
    for found in (find_crops(images, pad, threshold, enlarge), find_crops(floats, pad, threshold, enlarge)):
        assert len(found) == len(stack)
        for crop, img in zip(found, floats):
            try:
                expected, tight, box = per_image_reference(img, pad, threshold, enlarge)
            except BlankImageError:
                assert (crop.tight, crop.box) == (None, None)
                with pytest.raises(BlankImageError, match="no foreground pixels above threshold"):
                    crop.cut()
                continue
            assert (crop.tight, crop.box) == (tight, box)
            cut = crop.cut()
            assert cut.dtype == np.float64 and cut.shape == expected.shape
            assert cut.tobytes() == expected.tobytes()
            assert np.array_equal(np.signbit(cut), np.signbit(expected))


def test_find_crops_flags_an_overflowing_range():
    # each sample is finite, but max - min is not: the image cannot be
    # normalized, so its crop is flagged instead of cut at a wrong box
    img = np.array([[-1e308, 0.0], [0.5, 1e308]])
    (crop,) = find_crops(img[None])
    assert crop.box is None
    with pytest.raises(NonFiniteImageError, match="sample range overflows"):
        crop.cut()
    with pytest.raises(NonFiniteImageError):
        bbox_compute(img)


def test_find_crops_flags_each_non_finite_image(rng):
    # a nan, +inf or -inf sample flags its own image alone, in a float
    # stack and in a list, with as_image's reason; +inf beside -inf is a
    # non-finite sample, not an overflowing range.  Each finite neighbour
    # keeps the boxes and the crop of its own stack-of-one search
    images = rng.random((7, 9, 7))
    bad = {1: [np.nan], 3: [np.inf], 4: [-np.inf], 6: [np.inf, -np.inf]}
    for i, values in bad.items():
        images[i, [2, 5][: len(values)], 3] = values
    with pytest.raises(NonFiniteImageError) as raised:
        as_image(images[1])
    for found in (find_crops(images), find_crops(list(images))):
        assert len(found) == len(images)
        for i, (crop, image) in enumerate(zip(found, images)):
            if i in bad:
                assert (crop.tight, crop.box) == (None, None)
                with pytest.raises(NonFiniteImageError) as cut:
                    crop.cut()
                assert str(cut.value) == str(raised.value) == "image contains non-finite samples"
                continue
            (alone,) = find_crops(image[None])
            assert (crop.tight, crop.box) == (alone.tight, alone.box) != (None, None)
            assert crop.cut().tobytes() == alone.cut().tobytes()
