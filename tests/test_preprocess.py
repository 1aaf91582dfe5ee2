import numpy as np
import pytest
from numpy.testing import assert_allclose

from rieszrep.preprocess import BlankImageError, bbox_compute, bbox_extract, rescale
from rieszrep.verify import lowpass_image

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
    up = rescale(img, 2, "nearest")
    _, tight2, _ = bbox_compute(up)
    assert tight2.height == 2 * tight1.height
    assert tight2.width == 2 * tight1.width


def test_bbox_pipeline_scale_match():
    img = synthetic_digit(96)
    crop1 = bbox_extract(img)
    crop2 = bbox_extract(rescale(img, 2, "nearest"))
    # enlargement rounding may differ by one pixel per side
    assert abs(crop2.shape[0] - 2 * crop1.shape[0]) <= 2
    assert abs(crop2.shape[1] - 2 * crop1.shape[1]) <= 2


def test_bbox_near_idempotent():
    crop = bbox_extract(synthetic_digit(96))
    again = bbox_extract(crop)
    assert abs(again.shape[0] - crop.shape[0]) <= 2
    assert abs(again.shape[1] - crop.shape[1]) <= 2


def test_rescale_identity(rng):
    f = rng.random((9, 13))
    assert_allclose(rescale(f, 1.0, "nearest"), f)
    assert_allclose(rescale(f, 1.0, "bilinear"), f, atol=1e-12)


def test_rescale_nearest_replication(rng):
    f = rng.random((3, 4))
    up = rescale(f, 2, "nearest")
    assert up.shape == (6, 8)
    assert_allclose(up, np.kron(f, np.ones((2, 2))))


def test_rescale_bilinear_round_trip(rng):
    f = lowpass_image(rng, 32, 32, cutoff=0.1)
    f = f - f.min()
    back = rescale(rescale(f, 0.5, "bilinear"), 2.0, "bilinear")
    assert np.linalg.norm(back - f) / np.linalg.norm(f) <= 0.1


def test_rescale_degenerate():
    with pytest.raises(ValueError):
        rescale(np.ones((4, 4)), 0.1)
    with pytest.raises(ValueError):
        rescale(np.ones((4, 4)), -1)


def test_rescale_unknown_method():
    with pytest.raises(ValueError):
        rescale(np.ones((4, 4)), 2, "spline")
