import numpy as np
import pytest

from rieszrep.preprocess import BlankImageError, bbox_compute, bbox_extract

from conftest import synthetic_digit


def test_blank_image_raises():
    with pytest.raises(BlankImageError):
        bbox_extract(np.zeros((20, 20)))


def test_single_foreground_pixel():
    img = np.zeros((21, 21))
    img[10, 10] = 1.0
    padded, tight, box = bbox_compute(img, pad=5)
    assert (tight.height, tight.width) == (1, 1)
    crop = padded[box.row0 : box.row1, box.col0 : box.col1]
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
    crop1 = bbox_extract(img)
    crop2 = bbox_extract(np.kron(img, np.ones((2, 2))))
    # enlargement rounding may differ by one pixel per side
    assert abs(crop2.shape[0] - 2 * crop1.shape[0]) <= 2
    assert abs(crop2.shape[1] - 2 * crop1.shape[1]) <= 2


def test_bbox_near_idempotent():
    crop = bbox_extract(synthetic_digit(96))
    again = bbox_extract(crop)
    assert abs(again.shape[0] - crop.shape[0]) <= 2
    assert abs(again.shape[1] - crop.shape[1]) <= 2
