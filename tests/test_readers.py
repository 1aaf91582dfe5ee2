"""Every reader either loads valid data or raises an error naming its file.

Each reader gets a valid file, mutated by up to three byte edits and an
optional truncation.  The edits draw half their bytes from the
characters the text formats are made of, so that numbers, signs,
exponents and separators change as well as arbitrary bytes.  An input
either loads finite values in the documented range or raises the
reader's error with the path in its message; ``MemoryError``,
``OverflowError`` and numpy warnings fail the test.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rieszrep import classify
from rieszrep.cli import _SCHEMA, ConfigError, _parse_manifest, load_config_file
from rieszrep.image_core import FormatError, load_gray_image, load_idx
from rieszrep.representation import feature_paths, read_features_csv, write_features_csv

SUITE = settings(
    derandomize=True,
    database=None,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_TEXT_BYTES = list(b"0123456789 \n\t.-+eE#,[]nai")


def _edit(data: bytes, kind: str, position: int, byte: int) -> bytes:
    position %= len(data) + 1
    if kind == "insert":
        return data[:position] + bytes([byte]) + data[position:]
    if kind == "delete":
        return data[:position] + data[position + 1 :]
    return data[:position] + bytes([byte]) + data[position + 1 :]


@st.composite
def mutated(draw, seed: bytes):
    data = seed
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.sampled_from(_TEXT_BYTES) | st.integers(0, 255))
        data = _edit(data, kind, draw(st.integers(0, len(data))), byte)
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return data


def _loads_or_names(read, paths, errors):
    """``read()``, or None when it raises one of ``errors`` naming a path."""
    try:
        return read()
    except errors as exc:
        assert any(str(p) in str(exc) for p in paths), str(exc)
        return None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


def _idx_seed():
    pixels = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4) * 10
    images = struct.pack(">iiii", 0x803, 2, 3, 4) + pixels.tobytes()
    labels = struct.pack(">ii", 0x801, 2) + bytes([7, 3])
    return images, labels


_IDX_IMAGES, _IDX_LABELS = _idx_seed()


@SUITE
@given(
    images=mutated(_IDX_IMAGES),
    labels=mutated(_IDX_LABELS),
    header=st.none() | st.tuples(*[st.integers(-(2**31), 2**31 - 1)] * 3),
)
def test_load_idx(workdir, images, labels, header):
    if header is not None:
        images = struct.pack(">iiii", 0x803, *header) + images[16:]
    ipath, lpath = workdir / "images.idx", workdir / "labels.idx"
    ipath.write_bytes(images)
    lpath.write_bytes(labels)
    loaded = _loads_or_names(lambda: load_idx(ipath, lpath), (ipath, lpath), FormatError)
    if loaded is not None:
        images, classes = loaded
        assert images.pixels.dtype == np.uint8 and images.pixels.ndim == 3
        for img in images:
            assert img.dtype == np.float64 and img.shape == images.pixels.shape[1:]
            assert ((img >= 0) & (img <= 1)).all()
        assert classes.dtype == np.int64 and classes.shape == (len(images),)


_GRAY_SEEDS = [
    b"P2\n# comment\n3 2\n255\n0 128 255\n7 64 200\n",
    b"P5\n3 2\n100\n" + bytes([0, 50, 100, 1, 99, 3]),
    b"P5\n2 1\n1000\n" + bytes([0, 5, 3, 232]),
    b"2 3\n0 0.5 1\nnan 1e-3 -2\n",
]


@SUITE
@given(data=st.sampled_from(_GRAY_SEEDS).flatmap(mutated))
def test_load_gray_image(workdir, data):
    path = workdir / "image.pgm"
    path.write_bytes(data)
    image = _loads_or_names(lambda: load_gray_image(path), (path,), FormatError)
    if image is not None:
        assert image.dtype == np.float64 and image.ndim == 2 and image.size >= 1
        if data[:2] in (b"P2", b"P5"):
            assert ((image >= 0) & (image <= 1)).all()


@pytest.fixture(scope="module")
def csv_seed(workdir):
    path = workdir / "seed.csv"
    matrix = np.array([[0.5, -1.25, 3e-7, 2.0, np.nan], [1.0, 0.0, 4.5, -0.0, 1e5]])
    write_features_csv(path, matrix, feature_paths(1, 4), [0, 12])
    return path.read_bytes()


@SUITE
@given(data=st.data())
def test_read_features_csv(workdir, csv_seed, data):
    data = data.draw(mutated(csv_seed))
    path = workdir / "features.csv"
    path.write_bytes(data)
    loaded = _loads_or_names(lambda: read_features_csv(path), (path,), ValueError)
    if loaded is not None:
        matrix, paths, labels = loaded
        assert matrix.dtype == np.float64 and matrix.shape[1] == len(paths)
        assert labels is None or (labels.dtype == np.int64 and labels.shape == matrix.shape[:1])


@pytest.fixture(scope="module")
def model_seeds(workdir):
    seeds = []
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 3))
    y = np.arange(12) % 3
    for name, model in (
        ("svm", classify.svm_fit(X, y, reg=0.01, epochs=2, normalizer=classify.maxabs_fit(X))),
        ("pca", classify.pca_fit(X, y, 2)),
    ):
        path = workdir / f"{name}-seed.txt"
        classify.save_model(model, path)
        seeds.append(path.read_bytes())
    return seeds


@SUITE
@given(data=st.data())
def test_load_model(workdir, model_seeds, data):
    text = data.draw(st.sampled_from(model_seeds).flatmap(mutated))
    path = workdir / "model.txt"
    path.write_bytes(text)
    model = _loads_or_names(lambda: classify.load_model(path), (path,), ValueError)
    if isinstance(model, classify.SvmModel):
        classes, dim = model.weights.shape
        assert model.biases.shape == (classes,) and np.isfinite(model.biases).all()
        assert np.isfinite(model.weights).all()
        if model.normalizer is not None:
            scales = model.normalizer.scales
            assert scales.shape == (dim,) and np.isfinite(scales).all() and (scales > 0).all()
    elif model is not None:
        classes, dim = model.means.shape
        assert np.isfinite(model.means).all() and len(model.bases) == classes
        for basis in model.bases:
            assert basis.shape[0] == dim and np.isfinite(basis).all()


_MANIFEST = (
    b"# shards\nscale 0.5 images a-images.idx labels a-labels.idx\n"
    b"scale 2 images b-images.idx labels b-labels.idx  # larger\n"
)


@SUITE
@given(data=mutated(_MANIFEST))
def test_parse_manifest(workdir, data):
    path = workdir / "manifest.txt"
    path.write_bytes(data)
    shards = _loads_or_names(lambda: _parse_manifest(path), (path,), ConfigError)
    if shards is not None:
        assert shards
        for scale, images, labels in shards:
            assert np.isfinite(scale) and scale > 0
            assert images and labels


_CONFIG = b"# run\ndepth = 2\nangles = 8\nepochs = 5\nbbox = yes\nreg = 1e-3\n"


@SUITE
@given(data=mutated(_CONFIG))
def test_load_config_file(workdir, data):
    path = workdir / "riesz.cfg"
    path.write_bytes(data)
    values = _loads_or_names(lambda: load_config_file(path), (path,), ConfigError)
    if values is not None:
        assert set(values) <= set(_SCHEMA)
        for key, value in values.items():
            parse = _SCHEMA[key][0]
            assert isinstance(value, bool if key == "bbox" else parse)
