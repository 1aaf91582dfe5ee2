import re
import struct
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rieszrep.image_core import (
    FormatError,
    fft2,
    freq_coords,
    ifft2,
    load_gray_image,
    load_idx,
    save_gray_pgm,
    signed_freq,
)


def test_fft2_constant_image():
    spec = fft2(np.full((6, 9), 3.5))
    assert spec[0, 0] == pytest.approx(3.5 * 54, rel=1e-10)
    spec[0, 0] = 0
    assert np.abs(spec).max() < 1e-10 * 3.5 * 54


def test_fft2_unit_impulse():
    f = np.zeros((5, 7))
    f[0, 0] = 1.0
    assert_allclose(fft2(f), np.ones((5, 7)), atol=1e-12)


@pytest.mark.parametrize("shape", [(8, 8), (31, 17), (64, 64)])
def test_round_trip(rng, shape):
    f = rng.standard_normal(shape)
    err = np.linalg.norm(ifft2(fft2(f)) - f) / np.linalg.norm(f)
    assert err <= 1e-10


def test_ifft2_dc_only():
    spec = np.zeros((4, 6), dtype=complex)
    spec[0, 0] = 24
    assert_allclose(ifft2(spec), np.ones((4, 6)), atol=1e-14)


def test_ifft2_zero_spectrum():
    assert_allclose(ifft2(np.zeros((4, 4), dtype=complex)), np.zeros((4, 4)))


def test_ifft2_rejects_non_hermitian(rng):
    spec = fft2(rng.standard_normal((8, 8)))
    spec[1, 1] += 100j * np.abs(spec).max()
    with pytest.raises(ValueError, match="Hermitian"):
        ifft2(spec)


@pytest.mark.parametrize("shape", [(8, 8), (31, 17), (33, 16)])
def test_parseval(rng, shape):
    f = rng.standard_normal(shape)
    spec = fft2(f)
    lhs = np.sum(f**2)
    rhs = np.sum(np.abs(spec) ** 2) / f.size
    assert abs(lhs - rhs) / lhs <= 1e-10


def test_hermitian_spectrum_of_real_image(rng):
    f = rng.standard_normal((12, 10))
    spec = fft2(f)
    h, w = spec.shape
    for p in range(h):
        for q in range(w):
            assert spec[(-p) % h, (-q) % w] == pytest.approx(
                np.conj(spec[p, q]), rel=1e-10, abs=1e-10
            )


@pytest.mark.parametrize("n", [4, 5, 8, 9])
def test_signed_freq_range(n):
    k = signed_freq(n) * n
    assert k[0] == 0
    assert k.min() == -np.ceil(n / 2) + 1
    assert k.max() == n // 2
    assert np.abs(signed_freq(n)).max() <= 0.5


def test_freq_coords_hermitian_pairing():
    h, w = 6, 7
    u1, u2 = freq_coords(h, w)
    u1 = u1 + np.zeros((h, w))
    u2 = u2 + np.zeros((h, w))
    for p in range(h):
        for q in range(w):
            mirrored = ((-p) % h, (-q) % w)
            if mirrored == (p, q) or p == h // 2:
                continue  # self-paired / Nyquist
            assert u1[mirrored] == -u1[p, q]
            assert u2[mirrored] == -u2[p, q]


def _write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801):
    images = np.asarray(images, dtype=np.uint8)
    ipath = tmp_path / "imgs.idx"
    lpath = tmp_path / "labels.idx"
    with open(ipath, "wb") as fh:
        fh.write(struct.pack(">iiii", image_magic, *images.shape))
        fh.write(images.tobytes())
    with open(lpath, "wb") as fh:
        fh.write(struct.pack(">ii", label_magic, len(labels)))
        fh.write(bytes(labels))
    return ipath, lpath


def _taken(images):
    """Every image of a loaded IDX sequence, by index and by iteration."""
    by_index = [images[i] for i in range(len(images))]
    by_iteration = list(images)
    for a, b in zip(by_index, by_iteration, strict=True):
        assert a.tobytes() == b.tobytes()
    return by_index


def test_load_idx_zeros(tmp_path):
    ipath, lpath = _write_idx_pair(tmp_path, np.zeros((2, 4, 4)), [0, 1])
    images, labels = load_idx(ipath, lpath)
    taken = _taken(images)
    assert len(taken) == 2
    for img in taken:
        assert img.shape == (4, 4) and img.dtype == np.float64
        assert_array_equal(img, 0)
    assert list(labels) == [0, 1]


def test_load_idx_value_scaling(tmp_path):
    pixels = np.arange(24).reshape(2, 3, 4) * 11
    ipath, lpath = _write_idx_pair(tmp_path, pixels, [3, 4])
    images, _ = load_idx(ipath, lpath)
    # the same division, byte for byte, as one image at a time
    expected = [p.astype(np.float64) / 255.0 for p in pixels.astype(np.uint8)]
    taken = _taken(images)
    assert [img.shape for img in taken] == [(3, 4)] * 2
    assert_array_equal(taken, expected)


@pytest.mark.parametrize("limit", [None, 0, 1, 3, 7])
@pytest.mark.parametrize("count", [0, 5])
def test_load_idx_images_are_scaled_when_taken(tmp_path, rng, count, limit):
    # each image, also after a --limit slice and of a zero-image file, is
    # the file's bytes as float64 divided by 255, as one (H, W) array
    raw = rng.integers(0, 256, size=(count, 6, 5), dtype=np.uint8)
    ipath, lpath = _write_idx_pair(tmp_path, raw, [1] * count)
    images, labels = load_idx(ipath, lpath)
    assert_array_equal(images.pixels, raw)
    sliced = images[:limit]
    taken = _taken(sliced)
    assert len(sliced) == len(taken) == len(raw[:limit]) == len(labels[:limit])
    for img, pixels in zip(taken, raw[:limit], strict=True):
        expected = pixels.astype(np.float64) / 255.0
        assert img.dtype == np.float64 and img.shape == (6, 5)
        assert img.tobytes() == expected.tobytes()
    if count:
        assert images[-1].tobytes() == (raw[-1].astype(np.float64) / 255.0).tobytes()
        with pytest.raises(IndexError):
            images[count]


def test_load_idx_bad_magic(tmp_path):
    ipath, lpath = _write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0], image_magic=0x123)
    with pytest.raises(FormatError, match="magic"):
        load_idx(ipath, lpath)


def test_load_idx_count_mismatch(tmp_path):
    ipath, lpath = _write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1, 2])
    with pytest.raises(FormatError, match="count"):
        load_idx(ipath, lpath)


@pytest.mark.parametrize("dims", [(-1, 2, 2), (1, -2, 2), (1, 2, -2), (1, 0, 5), (1, 5, 0)])
def test_load_idx_bad_dimensions_name_the_file(tmp_path, dims):
    ipath, lpath = _write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0])
    ipath.write_bytes(struct.pack(">iiii", 0x803, *dims) + bytes(4))
    with pytest.raises(FormatError, match=re.escape(f"{ipath}: bad IDX image size")):
        load_idx(ipath, lpath)


def test_load_idx_negative_label_count_names_the_file(tmp_path):
    ipath, lpath = _write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0])
    lpath.write_bytes(struct.pack(">ii", 0x801, -3))
    with pytest.raises(FormatError, match=re.escape(f"{lpath}: label count -3")):
        load_idx(ipath, lpath)


def test_load_idx_truncated(tmp_path):
    ipath, lpath = _write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
    data = ipath.read_bytes()
    ipath.write_bytes(data[:-3])
    with pytest.raises(FormatError, match="truncated"):
        load_idx(ipath, lpath)


@pytest.mark.parametrize(
    "dims", [(48, 33554432, 50343217), (2**30, 2**30, 2**30)], ids=["memory", "overflow"]
)
def test_load_idx_header_larger_than_file_names_the_file(tmp_path, dims):
    # checked against the file size before any payload is read
    ipath, lpath = _write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0])
    ipath.write_bytes(struct.pack(">iiii", 0x803, *dims) + bytes(27))
    assert ipath.stat().st_size == 43
    claimed = dims[0] * dims[1] * dims[2]
    expected = f"{ipath}: truncated IDX image payload (expected {claimed} bytes, 27 left)"
    with pytest.raises(FormatError, match=re.escape(expected)):
        load_idx(ipath, lpath)


def test_load_gray_p2(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n2 2\n255\n0 255 255 0\n")
    assert_allclose(load_gray_image(path), [[0, 1], [1, 0]])


def test_load_gray_p5(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0]))
    assert_allclose(load_gray_image(path), [[0, 1], [1, 0]])


@pytest.mark.parametrize(
    "data",
    [
        b"P2\n# made by hand\n2 # width\n# height next\n2\n255 # maxval\n0 255\n# row 2\n255 0\n",
        b"P5\n# made by hand\n2 # width\n# height next\n2\n#\n255\n" + bytes([0, 255, 255, 0]),
        b"P5 2 2 255\n" + bytes([0, 255, 255, 0]),
    ],
    ids=["p2-comments", "p5-comments", "p5-one-line"],
)
def test_load_gray_header_comments(tmp_path, data):
    path = tmp_path / "img.pgm"
    path.write_bytes(data)
    assert_array_equal(load_gray_image(path), [[0, 1], [1, 0]])


def test_load_gray_p5_16_bit(tmp_path):
    path = tmp_path / "img.pgm"
    # a payload byte that is whitespace must not be taken for header
    samples = np.array([[0, 65535, 10], [2560, 1, 32768]], dtype=">u2")
    path.write_bytes(b"P5\n3 2\n65535\n" + samples.tobytes())
    assert_array_equal(load_gray_image(path), samples / 65535.0)


@pytest.mark.parametrize(
    "data, reason",
    [
        (b"P2\n2 2\n0\n0 0 0 0\n", "maxval 0"),
        (b"P5\n2 2\n0\n\0\0\0\0", "maxval 0"),
        (b"P2\n2 2\n70000\n0 0 0 0\n", "maxval 70000"),
        (b"P5\n2 2\n70000\n" + bytes(8), "maxval 70000"),
        (b"P2\n2 xx\n255\n0 0 0 0\n", "header"),
        (b"P5\n2 2 -1\n\0\0\0\0", "header"),
        (b"P5\n2 2", "header"),
        (b"P2\n2 2\n255\n0 1 zz 0\n", "'zz'"),
        (b"P5\n2 2\n255\n\0\0\0", "payload"),
        (b"P2\n0 3\n255\n", "2d image grid, got 3x0"),
    ],
    ids=["p2-maxval-0", "p5-maxval-0", "p2-maxval-70000", "p5-maxval-70000", "p2-header-token",
         "p5-negative-maxval", "p5-truncated-header", "p2-sample", "p5-truncated-payload",
         "p2-zero-width"],
)
def test_load_gray_malformed_graymap_names_the_file(tmp_path, data, reason):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match=reason) as info:
            load_gray_image(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "data, reason",
    [
        (b"P2\n2 1\n255\n300 0\n", "samples 0..300 outside 0..255"),
        (b"P2\n2 1\n255\n1.5 0\n", "bad P2 sample: invalid literal for int() with base 10: '1.5'"),
        (b"P2\n2 1\n255\n0 1e3081\n",
         "bad P2 sample: invalid literal for int() with base 10: '1e3081'"),
        (b"P2\n2 1\n255\n0 -1\n", "samples -1..0 outside 0..255"),
        # the OverflowError's wording depends on the numpy version
        (b"P2\n2 1\n255\n0 " + b"9" * 30 + b"\n", "bad P2 sample: "),
        (b"P5\n2 1\n100\n" + bytes([200, 3]), "samples 3..200 outside 0..100"),
        (b"P5\n1 1\n1000\n" + struct.pack(">H", 1001), "samples 1001..1001 outside 0..1000"),
    ],
    ids=["p2-above-maxval", "p2-fraction", "p2-exponent", "p2-negative", "p2-beyond-int64",
         "p5-above-maxval", "p5-16-bit-above-maxval"],
)
def test_load_gray_sample_outside_maxval_names_the_file(tmp_path, data, reason):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=re.escape(f"{path}: {reason}")):
        load_gray_image(path)


def test_load_gray_p2_truncated(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n2 2\n255\n0 255 255\n")
    with pytest.raises(FormatError, match="pixels"):
        load_gray_image(path)


def test_load_gray_matrix_text(tmp_path):
    path = tmp_path / "img.txt"
    path.write_text("2 3\n0 0.5 1\n1 0.25 0\n")
    assert_allclose(load_gray_image(path), [[0, 0.5, 1], [1, 0.25, 0]])


def test_load_gray_matrix_text_keeps_non_finite(tmp_path):
    path = tmp_path / "img.txt"
    path.write_text("2 2\nnan 1\ninf 0\n")
    img = load_gray_image(path)
    assert img.shape == (2, 2)
    assert np.isnan(img[0, 0]) and np.isinf(img[1, 0])
    path.write_text("0 0\n")
    with pytest.raises(FormatError, match="2d image grid"):
        load_gray_image(path)
    path.write_text("2 2\nnan 1\n0\n")
    with pytest.raises(FormatError, match="samples"):
        load_gray_image(path)


def test_pgm_round_trip(tmp_path, rng):
    img = rng.random((5, 7))
    path = tmp_path / "x.pgm"
    save_gray_pgm(path, img)
    back = load_gray_image(path)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12
