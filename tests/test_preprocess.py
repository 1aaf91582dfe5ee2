import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rieszrep.image_core import IdxImages, NonFiniteImageError, as_image
from rieszrep.preprocess import (
    PAD,
    THRESHOLD,
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
    crop, tight, box = bbox_compute(img)
    assert (tight.height, tight.width) == (1, 1)
    assert crop.shape == (box.height, box.width)
    assert crop.max() == 1.0


def test_tight_box_of_rectangle():
    img = np.zeros((40, 40))
    img[10:20, 5:15] = 1.0
    _, tight, box = bbox_compute(img)
    assert (tight.height, tight.width) == (10, 10)
    # enlarged box contains the tight box
    assert box.row0 <= tight.row0 and box.row1 >= tight.row1
    assert box.col0 <= tight.col0 and box.col1 >= tight.col1


def test_threshold_keeps_binary_ones():
    img = np.zeros((10, 10))
    img[4, 4] = 1.0
    _, tight, _ = bbox_compute(img)
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


def padded_reference(f):
    """The crop and boxes found on an explicitly zero-padded frame."""
    lo, hi = f.min(), f.max()
    padded = np.pad((f - lo) / (hi - lo), PAD)
    mask = padded >= THRESHOLD
    rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    tight = BoundingBox(rows[0], cols[0], rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1)
    box = enlarge_bbox(tight, *padded.shape)
    return padded[box.row0 : box.row1, box.col0 : box.col1], tight, box


def _border_image(side, margin):
    """Foreground ``margin`` pixels in from one border of a 300-px tall
    (top, bottom) or wide (left, right) image, or from all four of a
    300x300 one.  A single-border image has a 0.7 pixel 20 px from the
    opposite border, so its tight box spans more than the 250 px past
    which enlarging it reaches beyond the zero frame on that side alone."""
    if side == "all":
        img = np.zeros((300, 300))
        img[margin : 300 - margin, margin : 300 - margin] = 1.0
        img[150, 150] = 0.7
        return img
    img = np.zeros((300, 11))
    img[margin, 3:6] = 1.0
    img[280, 5] = 0.7
    return {"top": img, "bottom": img[::-1], "left": img.T, "right": img.T[:, ::-1]}[side]


_rng = np.random.default_rng(5)
_CROP_CASES = {
    # "<side>-pad<k>": the foreground lies k zero pixels in from that side,
    # and the enlarged box is clamped at that side of the frame
    **{f"{side}-pad{margin}": _border_image(side, margin)
       for margin in (0, 1) for side in ("top", "bottom", "left", "right", "all")},
    "single-pixel": np.pad([[0.7]], 4),
    "non-square": _rng.random((17, 40)) * (_rng.random((17, 40)) > 0.8),
    "negative-input": -np.abs(_rng.standard_normal((12, 14))),
}


@pytest.mark.parametrize("image", _CROP_CASES.values(), ids=_CROP_CASES)
def test_crop_equals_padded_frame_slice(image):
    expected, expected_tight, expected_box = padded_reference(image)
    crop, tight, box = bbox_compute(image)
    assert (tight, box) == (expected_tight, expected_box)
    assert crop.dtype == expected.dtype == np.float64
    assert crop.shape == expected.shape
    # equal values, and the padding zeros are +0.0 as np.pad writes them
    assert np.array_equal(crop, expected)
    assert np.array_equal(np.signbit(crop), np.signbit(expected))
    # a run over a stack of one crops the same
    assert np.array_equal(find_crops(image[None])[0].cut(), expected)


@pytest.mark.parametrize("name", [n for n in _CROP_CASES if "-pad" in n])
def test_border_cases_clamp_the_box_at_the_frame(name):
    image = _CROP_CASES[name]
    _, _, box = bbox_compute(image)
    frame = (image.shape[0] + 2 * PAD, image.shape[1] + 2 * PAD)
    reached = {
        "top": box.row0 == 0,
        "bottom": box.row1 == frame[0],
        "left": box.col0 == 0,
        "right": box.col1 == frame[1],
    }
    side = name.split("-")[0]
    assert {s for s, hit in reached.items() if hit} == (set(reached) if side == "all" else {side})
    if side == "all":
        assert box == BoundingBox(0, 0, 400, 400)


def per_image_reference(f):
    """The crop and boxes of one float image, searched image by image: on
    its own float64 column maxima, then on the row maxima between its
    first and last foreground column."""
    height, width = f.shape
    col_max = f.max(axis=0)
    lo, hi = f.min(), col_max.max()
    if hi == lo:
        raise BlankImageError("no foreground pixels above threshold")
    span = hi - lo
    cols = np.flatnonzero((col_max - lo) / span >= THRESHOLD)
    row_max = f[:, cols[0] : cols[-1] + 1].max(axis=1)
    rows = np.flatnonzero((row_max - lo) / span >= THRESHOLD)
    tight = BoundingBox(
        int(rows[0]) + PAD, int(cols[0]) + PAD, int(rows[-1] - rows[0] + 1), int(cols[-1] - cols[0] + 1)
    )
    box = enlarge_bbox(tight, height + 2 * PAD, width + 2 * PAD)
    frame = np.pad((f - lo) / span, PAD)
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
@given(stack=uint8_stack())
def test_stack_search_equals_per_image_crop(stack):
    # each image of an IDX stack, found from the stack's bytes, has the
    # boxes and the crop, byte for byte and sign bit included, that its
    # own float image gives alone; so does a float stack of the same
    images = IdxImages(stack)
    floats = np.stack([images[i] for i in range(len(images))])
    for found in (find_crops(images), find_crops(floats)):
        assert len(found) == len(stack)
        for crop, img in zip(found, floats):
            try:
                expected, tight, box = per_image_reference(img)
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
